package transport

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"lifting/internal/msg"
)

// outbox gathers what one node sends during one callback — a dispatch, a
// timer or an Exec — into one plain frame per destination, sender and flags,
// and ships each frame as one datagram when the callback returns: at once
// when the node's half of the link latency is 0, otherwise as one job on its
// clock at the latest modelled due of the frame's messages, so no message
// leaves before its own due. The outbox is open only while a callback of its
// node runs; a send made outside any callback ships alone, as does a message
// that drew a modelled reorder or duplication. A frame that would pass
// msg.MaxFramePayload starts a second datagram to the same destination, and
// a message too big for any frame ships as a fragment train.
//
// The storage is reused across callbacks: the group slots stay, and so does
// each slot's frame buffer, unless a delayed datagram took it to the clock.
type outbox struct {
	mu     sync.Mutex // Send may reach an open outbox from any goroutine
	open   bool
	groups []group // this callback's datagrams, in the order they were begun
}

// group is one datagram in the making.
type group struct {
	addr   netip.AddrPort
	sender msg.NodeID
	flags  uint8
	due    time.Duration // the latest due of its messages; 0 ships inline
	frame  *[]byte
}

// begin opens the outbox for a callback of its node.
func (o *outbox) begin() {
	o.mu.Lock()
	o.open = true
	o.mu.Unlock()
}

// add puts m into the datagram for its destination and reports whether it
// took it: not when no callback is open, nor when m alone outgrows a frame.
// latency is the sender's half of the link for m.
func (o *outbox) add(r *Runtime, addr netip.AddrPort, flags uint8, m msg.Message, latency time.Duration) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.open {
		return false
	}
	var due time.Duration
	if latency > 0 {
		due = r.Now() + latency
	}
	sender := m.From()
	for i := len(o.groups) - 1; i >= 0; i-- {
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
	*g = group{addr: addr, sender: sender, flags: flags, frame: frame}
	if o.append(r, g, m, due) {
		return true
	}
	o.groups = o.groups[:len(o.groups)-1] // the slot keeps its buffer
	return false
}

// append adds m to g's frame, or reports that the frame has no room for it.
// A frame about to outgrow a small buffer moves to a full one (m's modelled
// wire size bounds its encoding), so no buffer grows by appending.
func (o *outbox) append(r *Runtime, g *group, m msg.Message, due time.Duration) bool {
	if need := len(*g.frame) + msg.EntryHeaderSize + m.WireSize(); need > cap(*g.frame) && cap(*g.frame) < fullFrame {
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

// flush closes the outbox and ships its datagrams, in the order they were
// begun. n is the outbox's node, and n's lock is held.
func (o *outbox) flush(n *nodeCtx) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.open = false
	for i := range o.groups {
		g := &o.groups[i]
		msg.SealFrame(*g.frame)
		j := job{copies: 1, flags: g.flags, frame: g.frame, addr: g.addr}
		if g.due == 0 {
			n.rt.write(n, &j)
			continue
		}
		n.clock.at(g.due, j)
		g.frame = nil
	}
	o.groups = o.groups[:0]
}
