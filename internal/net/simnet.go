package net

import (
	"fmt"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// SimNet delivers messages through the discrete-event engine. It is the
// simulation-side implementation of Network.
//
// Sends from different nodes may run concurrently (one goroutine per engine
// shard), so each sender draws loss and jitter from its own derived stream
// and tracks its own uplink, keyed by node id: the draw sequence then
// depends only on the sender's own event order, which is what makes results
// shard-count-invariant.
type SimNet struct {
	engine    *sim.Engine
	rand      *rng.Stream // parent of the per-node streams
	collector *metrics.Collector
	defaults  Conditions

	// Per-node state, indexed by node id. The slices grow, and handlers and
	// conds are written, in Attach, SetConditions and SetDown only, which
	// are global-phase work; during a window shards read handlers and conds
	// and only a node's own shard touches its nodeRand and nodeUplink slots.
	handlers   []Handler     // nil: detached, or never attached
	conds      []*Conditions // nil: the defaults
	nodeRand   []*rng.Stream
	nodeUplink []time.Duration // uplink busy-until

	shards []simShard // one for each engine shard
}

var _ Network = (*SimNet)(nil)

// NewSimNet creates the network of the given engine, binding itself as the
// engine's delivery Sink (so an engine carries one SimNet). rand is the parent
// of the per-node loss/latency streams; collector counts every send, delivery
// and drop; defaults apply to nodes without explicit conditions.
func NewSimNet(engine *sim.Engine, rand *rng.Stream, collector *metrics.Collector, defaults Conditions) *SimNet {
	n := &SimNet{
		engine:    engine,
		rand:      rand,
		collector: collector,
		defaults:  defaults,
		shards:    make([]simShard, engine.ShardCount()),
	}
	engine.Bind(n)
	return n
}

// grow makes room for node id in the per-node slices.
func (n *SimNet) grow(id msg.NodeID) {
	for len(n.handlers) <= int(id) {
		n.handlers = append(n.handlers, nil)
		n.conds = append(n.conds, nil)
		n.nodeRand = append(n.nodeRand, nil)
		n.nodeUplink = append(n.nodeUplink, 0)
	}
}

// Attach registers the handler for a node, and on first use the node itself:
// its engine domain, its random stream and its uplink slot. It is the one
// registration point — a node must be attached before it sends. A nil
// handler detaches the node.
func (n *SimNet) Attach(id msg.NodeID, h Handler) {
	if h == nil {
		if int(id) < len(n.handlers) {
			n.handlers[id] = nil
		}
		return
	}
	n.grow(id)
	n.handlers[id] = h
	n.engine.Domain(int(id))
	if n.nodeRand[id] == nil {
		// Derivation hashes the parent seed with the id — independent of
		// attach order, so churn joins stay deterministic.
		n.nodeRand[id] = n.rand.ForNode(uint32(id))
	}
}

// SetConditions overrides the connection quality of a node.
func (n *SimNet) SetConditions(id msg.NodeID, c Conditions) {
	n.grow(id)
	n.conds[id] = &c
}

// ConditionsOf returns the effective conditions of a node.
func (n *SimNet) ConditionsOf(id msg.NodeID) Conditions { return *n.cond(id) }

// cond is ConditionsOf without the copy; the result is read-only.
func (n *SimNet) cond(id msg.NodeID) *Conditions {
	if int(id) < len(n.conds) && n.conds[id] != nil {
		return n.conds[id]
	}
	return &n.defaults
}

// SetDown marks a node as departed (true) or alive (false), preserving its
// other conditions.
func (n *SimNet) SetDown(id msg.NodeID, down bool) {
	c := n.ConditionsOf(id)
	c.Down = down
	n.SetConditions(id, c)
}

// Send implements Network. The message is delivered through the event queue
// after uplink serialization and the delay Link models, unless Link cuts or
// loses it, in the group Outbox gives it: a group is sealed when the node
// event that sends it returns, and arrives at the latest due of its
// messages, as one node event of its destination. Send must be called from
// the sending node's own callbacks (or the global phase) — the same
// serialization the rest of a node's state already requires — and the
// sender must have been attached.
func (n *SimNet) Send(from, to msg.NodeID, m msg.Message, mode Mode) {
	size := m.WireSize()
	n.collector.OnSend(from, m, size)
	if int(from) >= len(n.nodeRand) || n.nodeRand[from] == nil {
		panic(fmt.Sprintf("net: node %d sends but was never attached; attach the node first", from))
	}
	src := n.cond(from)
	latency, copies, held := Link(src, n.cond(to), mode, n.nodeRand[from])
	if copies == 0 {
		n.collector.OnDrop(m, size)
		return
	}

	now := n.engine.NodeNow(int(from))
	start := max(now, n.nodeUplink[from])
	var tx time.Duration
	if src.UplinkBps > 0 {
		tx = time.Duration(float64(size) / src.UplinkBps * float64(time.Second))
	}
	n.nodeUplink[from] = start + tx
	if copies > 1 {
		// In-network duplication: a second identical copy arrives right
		// behind the first (no extra uplink charge). It is accounted as
		// a send of its own so the sent/recv/dropped books still balance.
		n.collector.OnSend(from, m, size)
	}
	var flags uint8
	if mode == Reliable {
		flags = msg.FlagReliable
	}
	sh := &n.shards[n.engine.ShardOf(int(from))]
	g, fresh := sh.out.Add(from, to, flags, size-msg.TransportHeaderSize, start+tx+latency, copies, held, n.engine.InWindow())
	if g.Alone {
		for range copies {
			n.engine.Deliver(int32(from), int32(to), g.Due-now, m, uint32(size), false)
		}
		return
	}
	i := int32(len(sh.msgs))
	sh.msgs = append(sh.msgs, link{m: m, size: uint32(size), next: -1})
	if fresh {
		g.Body = chain{i, i}
	} else {
		sh.msgs[g.Body.tail].next = i
		g.Body.tail = i
	}
}

// Returned implements sim.Sink: the node event shard ran has returned, so
// the groups its sends began are sealed and ship, each at its due as one
// engine delivery per message, each but the last joined to the next one:
// the group arrives as one node event. Each delivery's tag is its message's
// wire size, so that the receiving shard need not walk the message again.
func (n *SimNet) Returned(shard int) {
	sh := &n.shards[shard]
	gs := sh.out.End()
	if len(gs) == 0 {
		return
	}
	now := n.engine.NodeNow(int(gs[0].Sender)) // the event's clock, on shard
	for _, g := range gs {
		for i := g.Body.head; i >= 0; i = sh.msgs[i].next {
			l := &sh.msgs[i]
			n.engine.Deliver(int32(g.Sender), int32(g.To), g.Due-now, l.m, l.size, l.next >= 0)
		}
	}
	clear(sh.msgs) // keeps no message alive
	sh.msgs = sh.msgs[:0]
}

// Deliver implements sim.Sink: the arrival half of Send, fired by the
// engine at a group's due for each of its messages, tagged with its wire
// size. The shard gathers them up to the last one, then hands the group to
// its destination through Receive, as one callback: the handler and
// down-ness are looked up then.
func (n *SimNet) Deliver(from, to int32, payload any, size uint32, more bool) {
	sh := &n.shards[n.engine.ShardOf(int(to))]
	sh.in = append(sh.in, Arrival{M: payload.(msg.Message), Size: int(size)})
	if more {
		return
	}
	var h Handler
	if int(to) < len(n.handlers) {
		h = n.handlers[to]
	}
	Receive(n.collector, msg.NodeID(from), msg.NodeID(to), h, sh.in, n.cond(msg.NodeID(to)).Down, 0, nil)
	clear(sh.in)
	sh.in = sh.in[:0]
}

// simShard is what SimNet keeps for one engine shard, padded so that no two
// shards' share a cache line: each shard writes its own at every send,
// delivery and return, and a line two cores write ping-pongs between them
// (it cost `sim_scale` several per cent of its CPU). The messages of the
// node event the shard runs wait in msgs, and those of the group arriving
// in in; both keep their capacity from node event to node event, so a
// steady state allocates no group.
type simShard struct {
	out  Outbox[chain] // the groups of the node event the shard runs
	msgs []link        // their messages, in the order they were sent
	in   []Arrival     // the group arriving, up to its last message
	_    [64]byte
}

// chain is what a group keeps of its messages on the sim: the first and
// last of them in its shard's msgs.
type chain struct{ head, tail int32 }

// link is a message waiting in msgs, with its wire size and the index of
// the next message of its group (-1 after the last).
type link struct {
	m    msg.Message
	size uint32
	next int32
}
