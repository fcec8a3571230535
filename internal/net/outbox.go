package net

import (
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
)

// Group is one datagram in the making: the messages one node callback sends
// one destination under one sender and one set of flags, or one message
// that goes alone. Body is what the runtime keeps of the messages — the udp
// runtime's frame, the sim's chain of messages — and outlives the group in its
// slot, so a runtime may reuse it.
type Group[B any] struct {
	Sender, To msg.NodeID
	Flags      uint8
	// Copies is how many times the group travels: 2 for a duplicate.
	Copies uint8
	// Alone marks a group no later message joins: its runtime ships it as
	// soon as its one message is in.
	Alone bool
	// Due is the latest due of its messages.
	Due time.Duration
	// Len is the frame payload its messages take: the count, and each
	// entry's length and encoding.
	Len  int
	Body B
}

// Outbox is the datagram model, stated once for both runtimes: how the
// messages a node sends travel together. There is one group per sender,
// destination and flags for each node callback, due at the latest due of
// its messages. A message goes alone when it drew a modelled reorder or
// duplication, and when it is sent outside any node callback — on the sim,
// from the global phase. A group that would pass msg.MaxFramePayload opens
// a second one to the same destination, and a message too big for any frame
// goes alone too.
//
// The udp runtime keeps one Outbox per node, the sim one per engine shard:
// both gather a callback's sends into it and ship what End returns when the
// callback returns. The group slots are reused from callback to callback,
// and a group that goes alone borrows the next free one.
type Outbox[B any] struct {
	groups []Group[B] // this callback's groups, in the order they were begun
}

// Add places a message whose encoding is enc bytes long, sent to `to` with
// flags and due at due as copies datagrams, into a group: this callback's
// group for its sender, destination and flags while it has room, else a
// new one. held reports a modelled reorder, and callback whether the send
// is made inside a node callback. Add returns the group, and whether it is
// new: the caller then starts the group's Body, which holds what the slot's
// last group left in it. A group that is Alone is the caller's to ship at
// once.
func (o *Outbox[B]) Add(sender, to msg.NodeID, flags uint8, enc int, due time.Duration, copies int, held, callback bool) (g *Group[B], fresh bool) {
	entry := msg.EntryHeaderSize + enc
	alone := held || copies > 1 || !callback || msg.CountSize+entry > msg.MaxFramePayload
	for i := len(o.groups) - 1; i >= 0 && !alone; i-- {
		g = &o.groups[i]
		if g.Sender != sender || g.To != to || g.Flags != flags {
			continue
		}
		if g.Len+entry <= msg.MaxFramePayload {
			g.Len += entry
			g.Due = max(g.Due, due)
			return g, false
		}
		break // full: a second group
	}
	// The next free slot; a group that goes alone leaves it free.
	n := len(o.groups)
	if n == cap(o.groups) {
		o.groups = append(o.groups, Group[B]{})[:n]
	}
	g = &o.groups[:n+1][n]
	if !alone {
		o.groups = o.groups[:n+1]
	}
	// Field by field, Body left as it was: no write of a pointer.
	g.Sender, g.To, g.Flags, g.Copies, g.Alone = sender, to, flags, uint8(copies), alone
	g.Due, g.Len = due, msg.CountSize+entry
	return g, true
}

// Oversize reports whether g's one message is too big for any frame: the
// udp runtime ships it as a fragment train.
func (g *Group[B]) Oversize() bool { return g.Len > msg.MaxFramePayload }

// End returns the groups of the callback that returns, in the order they
// were begun, and empties the outbox for the next one. The groups are the
// caller's until it next calls Add.
func (o *Outbox[B]) End() []Group[B] {
	gs := o.groups
	o.groups = o.groups[:0]
	return gs
}

// Receive is the receive loop of both runtimes: it hands node to the
// messages of one group from sender from that arrived for it, in order,
// within one callback of to's. A message to a node that is down or has no
// handler is dropped, and so is an unreliable one lost to the receiver's
// draw, with probability loss (0 on the sim, whose sender drew it); each of
// the others is delivered, and the collector counts every drop and
// delivery.
func Receive(c *metrics.Collector, from, to msg.NodeID, h Handler, ms []msg.Message, down bool, loss float64, rand Rand) {
	for _, m := range ms {
		if h == nil || down || loss > 0 && rand.Bernoulli(loss) {
			c.OnDrop(m, m.WireSize())
			continue
		}
		c.OnDeliver(to, m, m.WireSize())
		h.HandleMessage(from, m)
	}
}
