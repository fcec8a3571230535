package transport

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"lifting/internal/msg"
	"lifting/internal/net"
)

// outbox frames every plain frame its node sends, into the groups the
// datagram model of net.Outbox makes of them: during a callback of the node
// — a dispatch, a timer or an Exec — one frame per destination, sender and
// flags, each shipped as one datagram when the callback returns, and alone
// whatever the model sends alone. A datagram ships at once when its due is 0
// (no modelled latency), otherwise as one job on the runtime's clock at its
// due. A message too big for any frame is left to Send, which ships it as a
// fragment train.
//
// The storage is reused across callbacks: the group slots stay, and so does
// each slot's frame buffer, unless a delayed datagram took it to the clock.
type outbox struct {
	mu     sync.Mutex // Send may reach an outbox from any goroutine
	open   bool
	groups net.Outbox[datagram]
}

// datagram is what a group keeps of its messages: their frame, and the
// address it leaves for.
type datagram struct {
	addr  netip.AddrPort
	frame *[]byte
}

// begin opens the outbox for a callback of its node.
func (o *outbox) begin() {
	o.mu.Lock()
	o.open = true
	o.mu.Unlock()
}

// add frames m, whose wire size is size, sent to `to` at addr with flags and
// due at due (0: inline) as copies datagrams, into the group the model gives
// it, and ships that group at once if it goes alone. held reports a modelled
// reorder. It reports false when m alone outgrows a frame.
func (o *outbox) add(n *nodeCtx, to msg.NodeID, addr netip.AddrPort, flags uint8, m msg.Message, size int, due time.Duration, copies int, held bool) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	r := n.rt
	g, fresh := o.groups.Add(m.From(), to, flags, size-msg.TransportHeaderSize, due, copies, held, o.open)
	if g.Oversize() {
		return false
	}
	if fresh {
		frame := g.Body.frame
		if frame == nil {
			frame = r.bufs.Get().(*[]byte)
		}
		*frame = msg.StartFrame((*frame)[:0], flags)
		g.Body = datagram{addr: addr, frame: frame}
	}
	// A frame about to outgrow a small buffer moves to a full one, so no
	// buffer grows by appending.
	if need := msg.FrameHeaderSize + g.Len; need > cap(*g.Body.frame) && cap(*g.Body.frame) < fullFrame {
		full := r.full.Get().(*[]byte)
		*full = append((*full)[:0], *g.Body.frame...)
		r.put(g.Body.frame)
		g.Body.frame = full
	}
	frame, err := msg.AppendMessage(*g.Body.frame, m)
	if err != nil {
		panic(fmt.Sprintf("transport: framing %T: %v", m, err))
	}
	*g.Body.frame = frame
	if g.Alone {
		o.seal(n, g)
	}
	return true
}

// seal closes g's frame and ships it from n. A delayed datagram takes the
// frame to the clock; an inline one leaves it in the slot.
func (o *outbox) seal(n *nodeCtx, g *net.Group[datagram]) {
	msg.SealFrame(*g.Body.frame)
	n.rt.ship(job{node: n, copies: g.Copies, flags: g.Flags, frame: g.Body.frame, addr: g.Body.addr}, g.Due)
	if g.Due != 0 {
		g.Body.frame = nil
	}
}

// flush closes the outbox and ships its datagrams, in the order they were
// begun. n is the outbox's node, and n's lock is held.
func (o *outbox) flush(n *nodeCtx) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.open = false
	gs := o.groups.End()
	for i := range gs {
		o.seal(n, &gs[i])
	}
}
