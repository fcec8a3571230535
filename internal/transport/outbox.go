package transport

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"lifting/internal/msg"
)

// outbox frames every plain frame its node sends. During a callback of the
// node — a dispatch, a timer or an Exec — it gathers the sends into one frame
// per destination, sender and flags, and ships each frame as one datagram
// when the callback returns: at once when the modelled latency of its
// messages is 0, otherwise as one job on the runtime's clock at the latest
// modelled due of the frame's messages, so no message leaves before its own
// due. A send made outside any callback, and a message that drew a modelled
// reorder or duplication, gets a group of its own: it carries its own due and
// copies, ships as soon as it is sealed, and no later message joins it. A
// frame that would pass msg.MaxFramePayload starts a second datagram to the
// same destination; a message too big for any frame is left to Send, which
// ships it as a fragment train.
//
// The storage is reused across callbacks: the group slots stay, and so does
// each slot's frame buffer, unless a delayed datagram took it to the clock.
type outbox struct {
	mu     sync.Mutex // Send may reach an outbox from any goroutine
	open   bool
	groups []group // this callback's datagrams, in the order they were begun
}

// group is one datagram in the making.
type group struct {
	addr   netip.AddrPort
	sender msg.NodeID
	flags  uint8
	copies uint8         // datagrams the frame ships as: 2 for a modelled duplicate
	due    time.Duration // the latest due of its messages; 0 ships inline
	frame  *[]byte
}

// begin opens the outbox for a callback of its node.
func (o *outbox) begin() {
	o.mu.Lock()
	o.open = true
	o.mu.Unlock()
}

// add frames m, due at due (0: inline), into this callback's datagram for
// addr — or, alone or outside any callback, into one of its own, shipped at
// once as copies datagrams. It reports false when m alone outgrows a frame.
func (o *outbox) add(n *nodeCtx, addr netip.AddrPort, flags uint8, m msg.Message, due time.Duration, copies uint8, alone bool) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	r := n.rt
	alone = alone || !o.open
	sender := m.From()
	for i := len(o.groups) - 1; i >= 0 && !alone; i-- {
		g := &o.groups[i]
		if g.addr != addr || g.sender != sender || g.flags != flags {
			continue
		}
		if o.append(r, g, m, due) {
			return true
		}
		break // full: a second datagram
	}
	if len(o.groups) == cap(o.groups) {
		o.groups = append(o.groups, group{})
	} else {
		o.groups = o.groups[:len(o.groups)+1]
	}
	g := &o.groups[len(o.groups)-1]
	frame := g.frame
	if frame == nil {
		frame = r.bufs.Get().(*[]byte)
	}
	*frame = msg.StartFrame((*frame)[:0], flags)
	*g = group{addr: addr, sender: sender, flags: flags, copies: copies, frame: frame}
	took := o.append(r, g, m, due)
	if took && !alone {
		return true
	}
	if took {
		o.seal(n, g)
	}
	o.groups = o.groups[:len(o.groups)-1] // the slot keeps its buffer, unless the clock took it
	return took
}

// append adds m to g's frame, or reports that the frame has no room for it.
// A frame about to outgrow a small buffer moves to a full one (an entry is
// m's encoding and its length), so no buffer grows by appending.
func (o *outbox) append(r *Runtime, g *group, m msg.Message, due time.Duration) bool {
	if need := len(*g.frame) + msg.EntryHeaderSize + msg.EncodedSize(m); need > cap(*g.frame) && cap(*g.frame) < fullFrame {
		full := r.full.Get().(*[]byte)
		*full = append((*full)[:0], *g.frame...)
		r.put(g.frame)
		g.frame = full
	}
	frame, err := msg.AppendMessage(*g.frame, m)
	if err != nil {
		if !errors.Is(err, msg.ErrPayloadTooLarge) {
			panic(fmt.Sprintf("transport: encoding %T: %v", m, err))
		}
		return false
	}
	*g.frame = frame
	g.due = max(g.due, due)
	return true
}

// seal closes g's frame and ships it from n. A delayed datagram takes the
// frame to the clock; an inline one leaves it in the slot.
func (o *outbox) seal(n *nodeCtx, g *group) {
	msg.SealFrame(*g.frame)
	n.rt.ship(job{node: n, copies: g.copies, flags: g.flags, frame: g.frame, addr: g.addr}, g.due)
	if g.due != 0 {
		g.frame = nil
	}
}

// flush closes the outbox and ships its datagrams, in the order they were
// begun. n is the outbox's node, and n's lock is held.
func (o *outbox) flush(n *nodeCtx) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.open = false
	for i := range o.groups {
		o.seal(n, &o.groups[i])
	}
	o.groups = o.groups[:0]
}
