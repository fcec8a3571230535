// Package sim implements a deterministic discrete-event simulation engine
// with a virtual clock. The gossip and LiFTinG protocol logic is written
// against the small Context interface so the same node code runs both under
// this engine (for large-scale Monte-Carlo runs, §6 of the paper) and over
// real UDP sockets in internal/transport (the deployment of §7).
//
// Nodes are partitioned across S ≥ 1 shards, each with its own event queue
// and clock, advancing in lockstep lookahead windows with a deterministic
// cross-shard merge. Events are ordered by the shard-count-independent key
// (time, scheduling domain, per-domain sequence), so results are
// byte-identical for every S — see DESIGN.md, "The discrete-event engine".
//
// Events are 40-byte values, and every queue is a calendar (queue.go): a ring
// of buckets one lookahead window wide, of which only the one being executed
// is ordered — sorted when its window opens. Pages of events recycle within a
// queue, so the steady-state scheduling path — including message delivery
// through the Sink — performs no allocation.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Context is the execution environment a protocol node sees: a virtual (or
// real) clock plus one-shot timers. Implementations guarantee that all
// callbacks for one node are serialized.
type Context interface {
	// Now returns the current virtual time, measured from the start of the
	// run.
	Now() time.Duration
	// After schedules fn to run once, d from now. d < 0 is treated as 0.
	After(d time.Duration, fn func())
}

// Skewed returns ctx with every delay scaled by a constant clock-rate factor:
// one node's timers on a drifting local clock. A node at factor 1.02 fires its
// gossip periods 2% late and slowly drifts against the period auditor. Now
// stays on true time — arrival timestamps (QoE, playout) measure when chunks
// actually land — so a due time computed as Now()+d is not when After(d)
// fires. Scaling is a pure function of the delay, so skewed runs remain
// deterministic and shard-count-invariant.
func Skewed(ctx Context, factor float64) Context { return skewed{ctx, factor} }

type skewed struct {
	Context
	factor float64
}

func (s skewed) After(d time.Duration, fn func()) {
	s.Context.After(time.Duration(float64(d)*s.factor), fn)
}

// Sink receives the engine's simulated message deliveries. It exists so a
// network implementation can schedule deliveries without allocating a closure
// per message: the engine keeps the delivery operands in the event and calls
// the Sink bound to it (Bind) when the event fires.
type Sink interface {
	// Deliver hands the payload scheduled from node `from` to node `to`, and
	// the tag it was scheduled with (Engine.Deliver). It runs on the
	// goroutine of to's shard. more reports that the shard's
	// next event is the next delivery of the same run (Engine.Deliver);
	// the Sink then schedules nothing, for an event it scheduled at this
	// instant could sort into the run.
	Deliver(from, to int32, payload any, tag uint32, more bool)
	// Returned reports that a node event — a callback, or a run of
	// deliveries joined by Engine.Deliver's more — that shard ran has
	// returned. It runs on that shard's goroutine, before the shard's next
	// event.
	Returned(shard int)
}

// globalDomain is the ordering domain of harness events (After). Global
// events always run before node events at the same instant — the global
// queue drains to the barrier before a window starts — so the domain only
// orders events *within* the global queue: harness callbacks sort after
// same-instant deferred globals (which carry their scheduling node's
// domain). A follow-up scheduled with After(0) by the first deferred action
// of a burst therefore runs once the whole burst has drained, letting it
// coalesce the burst (manager rebalances after an expulsion wave rely on
// this).
const globalDomain int32 = 1<<31 - 1

// shard is one partition of the engine: an event queue, a clock and the
// outboxes for cross-shard and deferred-global traffic. During a window a
// shard is owned exclusively by one goroutine; between windows the
// coordinator owns all of them.
type shard struct {
	id     int
	now    time.Duration
	q      queue
	events uint64
	// out buffers events destined for other shards during a window, in
	// pages of the shard's queue; the coordinator merges them at the
	// barrier, and the pages go back to the shard's free list.
	// out[own index] is unused (same-shard events are pushed directly).
	out []bucket
	// outG buffers deferred-global events scheduled from this shard's
	// node callbacks during a window.
	outG []event
	// run executes the shard's part of the current window, to the engine's
	// bound, and reports it done: what a window starts the shard's goroutine
	// with, built once by NewSharded.
	run func()
}

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; create one with NewSharded. Node events run on shard goroutines
// during lookahead windows (on the caller's goroutine when there is one
// shard); everything outside Run — setup, harness callbacks, global events —
// happens on the caller's goroutine.
type Engine struct {
	shards  []*shard
	window  time.Duration
	now     time.Duration // global clock T: the current window's start
	sink    Sink          // receives every delivery; set once by Bind
	gq      queue         // global events: harness callbacks and deferred globals
	gseq    uint64
	gevents uint64
	nodeSeq []uint64
	domains []*Domain
	// inWindow is true while shard goroutines execute a window. It is
	// written by the coordinator with a happens-before edge to the workers
	// (the window dispatch), so they may read it without synchronization.
	inWindow bool
	// bound is the current window's bound, which shard goroutines read
	// (written before the dispatch, like inWindow); wg joins them.
	bound time.Duration
	wg    sync.WaitGroup
}

// NewEngine returns a one-shard engine with a fixed 5 ms lookahead, for
// callers that schedule only timers. Outside tests that is
// benchmark/probes.go alone (its sim.event_ns probe) — what keeps the
// function out of no-orphan's findings.
func NewEngine() *Engine { return NewSharded(1, 5*time.Millisecond) }

// NewSharded returns an engine that partitions nodes across s shards
// (node → shard id%s) and advances them in lockstep windows of the given
// lookahead. The lookahead must be a lower bound on every cross-shard
// delivery delay (Deliver panics on a violation); window must be > 0 and
// s ≥ 1. Results are byte-identical for every shard count.
func NewSharded(s int, window time.Duration) *Engine {
	if s < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if window <= 0 {
		panic("sim: NewSharded needs a positive lookahead window")
	}
	e := &Engine{window: window, shards: make([]*shard, s)}
	e.gq.init(window)
	for i := range e.shards {
		sh := &shard{id: i, out: make([]bucket, s)}
		sh.q.init(window)
		sh.run = func() {
			sh.runTo(e.bound, e.sink)
			e.wg.Done()
		}
		e.shards[i] = sh
	}
	return e
}

// Bind makes sink the receiver of every delivery this engine schedules. An
// engine carries one network, so binding a second Sink panics.
func (e *Engine) Bind(sink Sink) {
	if e.sink != nil {
		panic("sim: Bind called twice; an engine delivers to one Sink")
	}
	e.sink = sink
}

var _ Context = (*Engine)(nil)

// ShardCount returns the number of shards.
func (e *Engine) ShardCount() int { return len(e.shards) }

// ShardOf returns the shard node id runs on: every one of its events, on
// that shard's goroutine during a window.
func (e *Engine) ShardOf(id int) int { return id % len(e.shards) }

// InWindow reports whether a window is currently executing — i.e. whether
// the caller is running inside a node callback. Harness code uses it to
// decide between acting immediately (global phase) and deferring through
// DeferGlobal.
func (e *Engine) InWindow() bool { return e.inWindow }

// Now returns the global clock: the current window's start. Node callbacks
// should use their Domain's clock, which tracks event time within the
// window.
func (e *Engine) Now() time.Duration { return e.now }

// After schedules a global (harness) event at Now()+d: it runs in the global
// phase between windows, before any node event of the same instant, and
// harness events of one instant run in scheduling order (FIFO). It must
// itself be called from the global phase — calling it from a node callback
// panics, because a per-node scheduling order would depend on the shard
// layout. Node callbacks schedule through their own Context (or DeferGlobal
// for harness work).
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if e.inWindow {
		panic("sim: After called from a node callback; use the node Context or DeferGlobal")
	}
	e.gseq++
	e.gq.push(event{at: e.now + d, dom: globalDomain, seq: e.gseq, to: callback, payload: fn})
}

// Domain returns the scheduling context of node id, registering the node on
// first use: a context bound to its shard, with the per-domain sequence
// that makes the event order shard-count-independent.
//
// Registering (first call for a given id) must happen outside a running
// window — node construction is global-phase work.
func (e *Engine) Domain(id int) Context {
	if id < 0 {
		panic("sim: negative node id")
	}
	if id >= len(e.domains) || e.domains[id] == nil {
		if e.inWindow {
			panic("sim: node domains must be created in the global phase, not from a node callback")
		}
		for len(e.domains) <= id {
			e.domains = append(e.domains, nil)
			e.nodeSeq = append(e.nodeSeq, 0)
		}
		e.domains[id] = &Domain{e: e, id: int32(id), sh: e.shards[e.ShardOf(id)]}
	}
	return e.domains[id]
}

// NodeNow returns node id's current clock: its shard's event time during a
// window, the global clock otherwise.
func (e *Engine) NodeNow(id int) time.Duration {
	return e.shards[e.ShardOf(id)].now
}

// nextSeq returns node from's next scheduling sequence number, shifted up
// by tagBits (event.seq). Only a registered node has one: scheduling on
// behalf of an id that never got a Domain is a harness bug, reported by name
// instead of as an index error.
func (e *Engine) nextSeq(from int32) uint64 {
	if from < 0 || int(from) >= len(e.nodeSeq) {
		panic(fmt.Sprintf("sim: node %d schedules an event but has no domain; attach the node first", from))
	}
	seq := e.nodeSeq[from]
	if seq>>(64-tagBits) != 0 {
		panic(fmt.Sprintf("sim: node %d has scheduled 2^%d events", from, 64-tagBits))
	}
	e.nodeSeq[from]++
	return seq << tagBits
}

// Deliver schedules a delivery of payload from node `from` to node `to`, d
// from from's current clock, through the bound Sink, which is handed tag
// with it. This is the allocation-free delivery path: the operands ride in
// the event itself, no closure is built, and tag rides in the low half of
// its sequence word.
//
// The delivery is keyed by (time, from, from's send sequence) — a
// shard-count-independent order — and a cross-shard delivery with d < the
// lookahead window panics: the destination shard may already have advanced
// past it. more joins the delivery to the next one into one node event: the
// caller schedules that one at once, to the same node with the same d, so
// no event comes between them, the Sink hears no Returned between them, and
// Events counts the run once.
func (e *Engine) Deliver(from, to int32, d time.Duration, payload any, tag uint32, more bool) {
	if d < 0 {
		d = 0
	}
	if e.sink == nil {
		panic("sim: Deliver before Bind; the engine has no Sink")
	}
	if to < 0 || to >= follows {
		panic(fmt.Sprintf("sim: delivery %d→%d to a node id outside [0, %d)", from, to, follows))
	}
	seq := e.nextSeq(from)
	own, dst := e.ShardOf(int(from)), e.ShardOf(int(to))
	src := e.shards[own]
	ev := event{at: src.now + d, dom: from, seq: seq | uint64(tag), to: to, payload: payload}
	if more {
		ev.to |= follows
	}
	if dst == own {
		src.q.push(ev)
		return
	}
	if e.inWindow {
		if d < e.window {
			panic(fmt.Sprintf("sim: cross-shard delivery %d→%d with delay %v below the %v lookahead window", from, to, d, e.window))
		}
		src.q.appendTo(&src.out[dst], ev)
		return
	}
	// Global phase: every shard is parked at the barrier, push directly.
	e.shards[dst].q.push(ev)
}

// DeferGlobal schedules fn as a global-phase event one lookahead window
// from node `from`'s current clock. It is the bridge from node callbacks to
// harness work that must mutate global state (expulsions, membership): the
// event is keyed by (time, from, from's sequence), so the order in which
// deferred actions run is shard-count-independent. Calling it from the
// global phase runs fn through the global queue at the current instant,
// ahead of harness events scheduled for that instant.
func (e *Engine) DeferGlobal(from int, fn func()) {
	seq := e.nextSeq(int32(from))
	sh := e.shards[e.ShardOf(from)]
	ev := event{at: sh.now + e.window, dom: int32(from), seq: seq, to: callback, payload: fn}
	if e.inWindow {
		sh.outG = append(sh.outG, ev)
		return
	}
	ev.at = sh.now // global phase: run at the current instant, in queue order
	e.gq.push(ev)
}

// Run executes events until the queues are empty or the clock would pass
// until. It returns the number of events executed. Events scheduled exactly
// at until still run.
func (e *Engine) Run(until time.Duration) uint64 {
	return e.RunChunk(until, ^uint64(0))
}

// RunAll executes events until every queue is empty and returns the number
// of events executed. Use only for workloads that provably quiesce.
func (e *Engine) RunAll() uint64 {
	var total uint64
	for {
		n := e.Run(e.now + 1000*e.window)
		total += n
		if n == 0 && e.Pending() == 0 {
			return total
		}
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	n := e.gq.len()
	for _, sh := range e.shards {
		n += sh.q.len()
	}
	return n
}

// Events returns the total number of events executed so far, a run of
// deliveries joined by more (Deliver) counting as one.
func (e *Engine) Events() uint64 {
	n := e.gevents
	for _, sh := range e.shards {
		n += sh.events
	}
	return n
}

// Domain is a node's scheduling context: the shard clock plus timers keyed
// by the node's own sequence. All of a node's callbacks run serialized on
// its shard, so a Domain may only be used from its own node's callbacks or
// from the global phase.
type Domain struct {
	e  *Engine
	id int32
	sh *shard
}

var _ Context = (*Domain)(nil)

// Now returns the node's current virtual time: its shard's event time
// during a window, the window-start time in the global phase.
func (d *Domain) Now() time.Duration { return d.sh.now }

// After schedules fn on this node, d from now. Self-timers have no
// lookahead constraint — they stay on the node's own shard.
func (d *Domain) After(dur time.Duration, fn func()) {
	if dur < 0 {
		dur = 0
	}
	d.sh.q.push(event{at: d.sh.now + dur, dom: d.id, seq: d.e.nextSeq(d.id), to: callback, payload: fn})
}
