package net

import (
	"fmt"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// ReliableSetupFactor models the extra one-way latency of establishing a TCP
// connection (SYN/SYN-ACK) relative to a bare datagram. Every backend scales
// a reliable send's latency by it.
const ReliableSetupFactor = 3

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
}

var _ Network = (*SimNet)(nil)

// NewSimNet creates the network of the given engine, binding itself as the
// engine's delivery Sink (so an engine carries one SimNet). rand is the parent
// of the per-node loss/latency streams; collector may be nil to disable
// accounting; defaults apply to nodes without explicit conditions.
func NewSimNet(engine *sim.Engine, rand *rng.Stream, collector *metrics.Collector, defaults Conditions) *SimNet {
	n := &SimNet{
		engine:    engine,
		rand:      rand,
		collector: collector,
		defaults:  defaults,
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
// after uplink serialization and propagation delay, unless it is lost. Send
// must be called from the sending node's own callbacks (or the global phase)
// — the same serialization the rest of a node's state already requires — and
// the sender must have been attached.
func (n *SimNet) Send(from, to msg.NodeID, m msg.Message, mode Mode) {
	size := m.WireSize()
	if n.collector != nil {
		n.collector.OnSend(from, m, size)
	}
	src, dst := n.cond(from), n.cond(to)
	if src.Down || dst.Down || Partitioned(src.PartitionGroup, dst.PartitionGroup) {
		n.drop(m, size)
		return
	}
	if int(from) >= len(n.nodeRand) || n.nodeRand[from] == nil {
		panic(fmt.Sprintf("net: node %d sends but was never attached; attach the node first", from))
	}
	rand := n.nodeRand[from]
	now := n.engine.NodeNow(int(from))
	if mode == Unreliable {
		if rand.Bernoulli(dst.LossIn) {
			n.drop(m, size)
			return
		}
	}

	start := now
	if busy := n.nodeUplink[from]; busy > start {
		start = busy
	}
	var tx time.Duration
	if src.UplinkBps > 0 {
		tx = time.Duration(float64(size) / src.UplinkBps * float64(time.Second))
	}
	n.nodeUplink[from] = start + tx

	latency := src.LatencyBase/2 + dst.LatencyBase/2
	jitter := src.LatencyJitter/2 + dst.LatencyJitter/2
	if jitter > 0 {
		latency += time.Duration(rand.Float64() * float64(jitter))
	}
	if mode == Reliable {
		latency *= ReliableSetupFactor
	}
	if mode == Unreliable && rand.Bernoulli(src.ReorderProb) {
		// Hold the datagram back so later sends overtake it.
		latency += src.ReorderDelay
	}

	n.engine.Deliver(int32(from), int32(to), start+tx+latency-now, m, int32(size))

	if mode == Unreliable && rand.Bernoulli(src.DupProb) {
		// In-network duplication: a second identical copy arrives right
		// behind the first (no extra uplink charge). It is accounted as
		// a send of its own so the sent/recv/dropped books still balance.
		if n.collector != nil {
			n.collector.OnSend(from, m, size)
		}
		n.engine.Deliver(int32(from), int32(to), start+tx+latency-now, m, int32(size))
	}
}

// Deliver implements sim.Sink: the arrival half of Send, fired by the
// engine at delivery time. Handler lookup and down-ness are evaluated on
// arrival, exactly as the closure-based path did.
func (n *SimNet) Deliver(from, to int32, payload any, size int32) {
	m := payload.(msg.Message)
	var h Handler
	if int(to) < len(n.handlers) {
		h = n.handlers[to]
	}
	if h == nil || n.cond(msg.NodeID(to)).Down {
		n.drop(m, int(size))
		return
	}
	if n.collector != nil {
		n.collector.OnDeliver(msg.NodeID(to), m, int(size))
	}
	h.HandleMessage(msg.NodeID(from), m)
}

func (n *SimNet) drop(m msg.Message, size int) {
	if n.collector != nil {
		n.collector.OnDrop(m, size)
	}
}
