package cluster

import (
	"time"

	"lifting/internal/chaos"
	"lifting/internal/content"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/sim"
	"lifting/internal/stream"
)

// This file alone decides what a LiFTinG node is made of. Every node a
// Cluster builds — initial build, churn join, crash restart, the one node of
// a deployment process — goes through setDefaults and assemble; what differs
// between them is data in wiring, never a second copy of the recipe.

// setDefaults fills the derived fields of a system configuration, once per
// system, before any node is assembled.
func (o *Options) setDefaults() {
	if o.BlameMode == 0 {
		o.BlameMode = BlameDirect
	}
	// The verifier checks the protocol the node gossips and a serve carries
	// the stream's chunks: what Core and Gossip leave zero of those is read
	// off the field that states it.
	if o.Core.F == 0 {
		o.Core.F = o.Gossip.F
	}
	if o.Core.Period == 0 {
		o.Core.Period = o.Gossip.Period
	}
	if o.Core.HistoryPeriods == 0 {
		o.Core.HistoryPeriods = o.Gossip.HistoryPeriods
	}
	if o.Gossip.ChunkPayload == 0 {
		o.Gossip.ChunkPayload = o.Stream.ChunkPayload
	}
	if o.ExpectedLoss == 0 {
		o.ExpectedLoss = o.NetDefaults.LossIn
	}
	if o.Rep.Compensation == 0 && o.LiFTinG {
		o.Rep.Compensation = CompensationFor(o.ExpectedLoss, o.Gossip.F, gossip.NominalRequest, o.Core.Pdcc)
	}
	if o.Core.Population == 0 {
		o.Core.Population = o.N
	}
	if o.ExpelOnDetection && o.Rep.GracePeriods == 0 {
		// Young scores are noisy (σ(s) ∝ 1/√r); don't act on them.
		o.Rep.GracePeriods = 8
	}
	if o.Chaos != nil && o.Chaos.ReorderDelay > 0 {
		// The plan's standing link perturbations apply to every node for
		// the whole run, so they fold into the default conditions before
		// the backend is built.
		o.NetDefaults.DupProb = chaos.DupProb
		o.NetDefaults.ReorderProb = chaos.ReorderProb
		o.NetDefaults.ReorderDelay = o.Chaos.ReorderDelay
	}
}

// conditions returns node id's base link conditions — ConditionsFor's
// override, else NetDefaults — and whether they are an override.
func (o *Options) conditions(id msg.NodeID) (net.Conditions, bool) {
	if cf := o.ConditionsFor; cf != nil {
		if cond, ok := cf(id); ok {
			return cond, true
		}
	}
	return o.NetDefaults, false
}

// storeCapacity is the size of a chunk store of the system: the configured
// one, else the horizon past which no node can still serve a chunk.
func (o *Options) storeCapacity() int {
	if o.StoreCapacity > 0 {
		return o.StoreCapacity
	}
	return content.StoreCapacityFor(o.Stream.ChunkInterval(), o.Gossip.Period)
}

// contentSource returns the stream's canonical payload source; a system
// cannot be assembled around an invalid stream. The seed derives from the
// deployment's root stream alone, so an in-process cluster and every process
// of a multi-process deployment of the same seed broadcast byte-identical
// streams.
func contentSource(root *rng.Stream, cfg stream.Config) *content.Source {
	if err := cfg.Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	return content.NewSource(root.Derive("content").Seed(), cfg.ChunkPayload)
}

// wiring is what a caller of assemble decides: where the node runs, the
// state it shares with its peers, and the hooks that differ between an
// in-process cluster and a one-node-per-process deployment.
type wiring struct {
	id        msg.NodeID
	rt        runtime.Runtime
	dir       *membership.Directory // shared by the cluster's nodes
	root      *rng.Stream           // the deployment's root stream; per-node streams derive from it
	collector *metrics.Collector    // shared by the cluster's nodes
	// verified is the verified-once table the nodes of a sim cluster share
	// (gossip.Deps.VerifiedOnce); nil wherever payloads cross a socket.
	verified *content.Store
	// sends is the set of send blocks of the node's execution context: its
	// engine shard's on the sim, its own on udp.
	sends *msg.Sends
	// behavior picks the node's behavior from its "behavior" stream; a nil
	// func or result means honest.
	behavior func(*rng.Stream) gossip.Behavior
	skew     float64         // clock-rate factor (see sim.Skewed); 0 or 1 is a true clock
	playout  *stream.Playout // nil = arrivals untracked
	// sink takes the node's blames by call (direct mode's keeper). Nil
	// routes them as messages: the node gets a blame client and serves
	// manager duty, reporting verdicts to onExpel.
	sink     core.BlameSink
	onExpel  func(target msg.NodeID, reason msg.BlameReason)
	reader   bool              // add the over-the-wire score reader (deployments)
	extraAux gossip.AuxHandler // appended to the aux chain; may be nil
}

// assembled is one wired node; everything but node may be nil.
type assembled struct {
	node      *gossip.Node
	verifier  *core.Verifier
	manager   *reputation.Manager
	client    *reputation.Client
	reader    *reputation.Reader
	freerider bool
}

// assemble builds one node — gossip, chunk store, verifier, its share of the
// reputation substrate — from the defaulted system configuration and the
// caller's wiring, and attaches it to the runtime. Registering it with the
// scorekeepers and starting it is the caller's.
func assemble(o *Options, w wiring) assembled {
	id := w.id
	nodeRand := w.root.ForNode(uint32(id))
	ctx := w.rt.Context(id)
	if w.skew > 0 && w.skew != 1 {
		ctx = sim.Skewed(ctx, w.skew)
	}
	netw := w.rt.Network()

	var a assembled
	var behavior gossip.Behavior
	if w.behavior != nil {
		behavior = w.behavior(nodeRand.Derive("behavior"))
	}
	a.freerider = behavior != nil
	if behavior == nil {
		behavior = gossip.Honest{}
	}

	gcfg := o.Gossip
	gcfg.StartOffset = time.Duration(nodeRand.Derive("offset").Float64() * float64(gcfg.Period))

	deps := gossip.Deps{
		Ctx:      ctx,
		Net:      netw,
		Dir:      w.dir,
		Rand:     nodeRand.Derive("gossip"),
		Behavior: behavior,
		History:  history.NewLog(gcfg.HistoryPeriods),
		Sends:    w.sends,
		Metrics:  w.collector,

		Store:        content.NewStore(o.storeCapacity()),
		VerifiedOnce: w.verified,
	}

	// QoE accounting rides the same per-chunk callback as playout
	// tracking. The closure state (previous arrival) is only touched from
	// the node's serialized execution context, and the collector sums are
	// commuting integer adds, so sharded runs stay byte-identical across
	// shard counts. It lives as long as the node: capture the three values
	// it needs, not the wiring.
	playout, coll, scfg := w.playout, w.collector, o.Stream
	interval := scfg.ChunkInterval()
	var lastArrival time.Duration
	seenArrival := false
	deps.OnChunk = func(ch msg.ChunkID, at time.Duration) {
		if playout != nil {
			playout.Received(ch, at)
		}
		coll.OnStreamLag(at - scfg.GenTime(ch))
		if seenArrival {
			coll.OnJitter((at - lastArrival) - interval)
		}
		lastArrival, seenArrival = at, true
	}

	if o.LiFTinG {
		sink := w.sink
		if sink == nil {
			a.client = reputation.NewClientOn(id, o.Rep, netw, w.dir, w.sends)
			sink = a.client
		}
		sink = countingSink{coll: w.collector, inner: sink}
		a.verifier = core.NewVerifier(id, o.Core, ctx, netw, nodeRand.Derive("verify"), deps.History, behavior, sink, w.sends)
		aux := auxChain{a.verifier}
		if a.client != nil {
			mcfg := o.Rep
			mcfg.OnExpel = w.onExpel
			a.manager = reputation.NewManager(id, mcfg, netw, w.dir, w.sends)
			aux = append(aux, managerAux{a.manager})
		}
		if w.reader {
			a.reader = reputation.NewReader(id, o.Rep, ctx, netw, w.dir, 2*gcfg.Period)
			aux = append(aux, a.reader)
		}
		if w.extraAux != nil {
			aux = append(aux, w.extraAux)
		}
		deps.Monitor = a.verifier
		deps.Aux = aux
	}

	a.node = gossip.NewNode(id, gcfg, deps)
	w.rt.Attach(id, a.node)
	return a
}

// auxChain fans a message out to handlers until one claims it.
type auxChain []gossip.AuxHandler

func (c auxChain) HandleAux(from msg.NodeID, m msg.Message) bool {
	for _, h := range c {
		if h.HandleAux(from, m) {
			return true
		}
	}
	return false
}

// managerAux adapts a reputation.Manager to gossip.AuxHandler.
type managerAux struct{ m *reputation.Manager }

func (a managerAux) HandleAux(from msg.NodeID, mm msg.Message) bool {
	return a.m.HandleMessage(from, mm)
}

// countingSink wraps a BlameSink with per-reason issue accounting. The
// counter adds commute, so wrapping does not affect sharded determinism.
type countingSink struct {
	coll  *metrics.Collector
	inner core.BlameSink
}

func (s countingSink) Blame(target msg.NodeID, value float64, reason msg.BlameReason) {
	s.coll.OnBlameIssued(reason)
	s.inner.Blame(target, value, reason)
}

// scheduleStream schedules the source's chunk injections, payload bytes and
// hash, for the given duration on its execution context. The source's own
// playout, if tracked, holds every chunk from its generation time.
func scheduleStream(ctx sim.Context, source *gossip.Node, src *content.Source, cfg stream.Config, duration time.Duration, playout *stream.Playout) {
	total := cfg.ChunksBy(duration)
	for i := 0; i < total; i++ {
		ch := msg.ChunkID(i)
		at := cfg.GenTime(ch)
		if at > duration {
			break
		}
		ctx.After(at, func() {
			payload, hash := src.Chunk(ch)
			source.InjectChunkData(ch, payload, hash)
		})
		if playout != nil {
			playout.Received(ch, at)
		}
	}
}

// flushDue reports whether score period p closes a blame batch: clients
// flush every Rep.FlushEvery periods, every period when it is unset.
func flushDue(cfg reputation.Config, p msg.Period) bool {
	every := msg.Period(cfg.FlushEvery)
	if every < 1 {
		every = 1
	}
	return p%every == 0
}
