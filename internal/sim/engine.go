// Package sim implements a deterministic discrete-event simulation engine
// with a virtual clock. The gossip and LiFTinG protocol logic is written
// against the small Context interface so the same node code runs both under
// this engine (for large-scale Monte-Carlo runs, §6 of the paper) and over
// real UDP sockets in internal/transport (the deployment of §7).
//
// The engine has two modes:
//
//   - Serial (NewEngine): one event heap, one virtual clock, events totally
//     ordered by (time, scheduling sequence). This is the legacy mode and
//     its event order is bit-for-bit what it always was.
//   - Sharded (NewSharded): nodes are partitioned across S shards, each
//     with its own heap and clock, advancing in lockstep lookahead windows
//     with a deterministic cross-shard merge. Events are ordered by the
//     shard-count-independent key (time, scheduling domain, per-domain
//     sequence), so results are byte-identical for every S ≥ 1 — see
//     DESIGN.md, "Sharded discrete-event engine".
//
// Both modes pool event structs and use a hand-rolled binary heap, so the
// steady-state scheduling path — including message delivery through a Sink
// — performs no allocation.
package sim

import (
	"fmt"
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

// Sink receives a simulated message delivery. It exists so network
// implementations can schedule deliveries without allocating a closure per
// message: the engine stores the four delivery operands in the pooled event
// and calls Deliver when the event fires.
type Sink interface {
	// Deliver hands the payload scheduled from node `from` to node `to`.
	// Under a sharded engine it runs on the goroutine of to's shard.
	Deliver(from, to int32, payload any, size int32)
}

// globalDomain is the ordering domain of harness events (After) on a
// sharded engine. Global events always run before node events at the same
// instant — the global queue drains to the barrier before a window starts —
// so the domain only orders events *within* the global queue: harness
// callbacks sort after same-instant deferred globals (which carry their
// scheduling node's domain). That mirrors the serial engine's FIFO — a
// follow-up scheduled with After(0) by the first deferred action of a
// burst runs once the whole burst has drained, letting it coalesce the
// burst (manager rebalances after an expulsion wave rely on this).
const globalDomain int32 = 1<<31 - 1

// event is one scheduled occurrence. fn != nil marks a callback event;
// otherwise it is a delivery through sink. Events are pooled: exec copies
// the fields out and releases the struct before invoking the callback.
type event struct {
	at  time.Duration
	seq uint64
	dom int32 // ordering domain: node id, or globalDomain

	fn      func()
	sink    Sink
	payload any
	from    int32
	to      int32
	size    int32
}

// less is the canonical event order: time, then domain, then per-domain
// sequence. In serial mode every event carries dom 0 and a single global
// sequence, which reduces to the legacy (time, scheduling order) rule.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	return a.seq < b.seq
}

// eheap is a hand-rolled binary min-heap of events. container/heap costs an
// interface call per comparison and an allocation per Push on the hot path;
// at tens of millions of events both show up in profiles.
type eheap struct {
	h []*event
}

func (q *eheap) len() int { return len(q.h) }

func (q *eheap) top() *event { return q.h[0] }

func (q *eheap) push(ev *event) {
	h := append(q.h, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.h = h
}

func (q *eheap) pop() *event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && less(h[r], h[l]) {
			c = r
		}
		if !less(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.h = h
	return top
}

// shard is one partition of the sharded engine: a heap, a clock, an event
// pool and the outboxes for cross-shard and deferred-global traffic. The
// serial engine uses a single shard through the same code paths. During a
// window a shard is owned exclusively by one goroutine; between windows the
// coordinator owns all of them.
type shard struct {
	now    time.Duration
	q      eheap
	pool   []*event
	events uint64
	// out buffers events destined for other shards during a window; the
	// coordinator merges them at the barrier. out[own index] is unused
	// (same-shard events are pushed directly).
	out [][]*event
	// outG buffers deferred-global events scheduled from this shard's
	// node callbacks during a window.
	outG []*event
}

func (sh *shard) alloc() *event {
	if n := len(sh.pool); n > 0 {
		ev := sh.pool[n-1]
		sh.pool[n-1] = nil
		sh.pool = sh.pool[:n-1]
		return ev
	}
	return &event{}
}

// release zeroes the event's reference fields (so the pool retains neither
// closures nor payloads) and returns it to the pool.
func (sh *shard) release(ev *event) {
	*ev = event{}
	sh.pool = append(sh.pool, ev)
}

// exec runs one event on behalf of shard sh, releasing the event struct
// back to sh's pool before invoking the callback (so the callback can
// schedule into a warm pool).
func (sh *shard) exec(ev *event) {
	if ev.fn != nil {
		fn := ev.fn
		sh.release(ev)
		fn()
		return
	}
	sink, from, to, payload, size := ev.sink, ev.from, ev.to, ev.payload, ev.size
	sh.release(ev)
	sink.Deliver(from, to, payload, size)
}

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; create one with NewEngine (serial) or NewSharded. A serial engine
// runs entirely on the caller's goroutine. A sharded engine runs node
// events on shard goroutines during lookahead windows; everything outside
// Run — setup, harness callbacks, global events — still happens on the
// caller's goroutine.
type Engine struct {
	// serial mode state (also the single shard's identity in serial mode).
	s   shard
	seq uint64

	// sharded mode state; shards == nil means serial.
	shards  []*shard
	window  time.Duration
	now     time.Duration // global clock T: the current window's start
	gq      eheap         // global events: harness callbacks and deferred globals
	gseq    uint64
	gevents uint64
	nodeSeq []uint64
	domains []*Domain
	// inWindow is true while shard goroutines execute a window. It is
	// written by the coordinator with a happens-before edge to the workers
	// (the window dispatch), so they may read it without synchronization.
	inWindow bool
}

// NewEngine returns a serial engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// NewSharded returns an engine that partitions nodes across s shards
// (node → shard id%s) and advances them in lockstep windows of the given
// lookahead. The lookahead must be a lower bound on every cross-node
// delivery delay (Deliver panics on a violation); window must be > 0 and
// s ≥ 1. Results are byte-identical for every shard count, including 1.
func NewSharded(s int, window time.Duration) *Engine {
	if s < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if window <= 0 {
		panic("sim: NewSharded needs a positive lookahead window")
	}
	e := &Engine{window: window, shards: make([]*shard, s)}
	for i := range e.shards {
		sh := &shard{out: make([][]*event, s)}
		e.shards[i] = sh
	}
	return e
}

var _ Context = (*Engine)(nil)

// Sharded reports whether the engine runs in sharded mode.
func (e *Engine) Sharded() bool { return e.shards != nil }

// ShardCount returns the number of shards (0 for a serial engine).
func (e *Engine) ShardCount() int { return len(e.shards) }

// Window returns the lookahead window (0 for a serial engine).
func (e *Engine) Window() time.Duration { return e.window }

// InWindow reports whether a sharded window is currently executing — i.e.
// whether the caller is running inside a node callback on a shard
// goroutine. Harness code uses it to decide between acting immediately
// (global phase) and deferring through DeferGlobal.
func (e *Engine) InWindow() bool { return e.inWindow }

// Now returns the current virtual time: the serial clock, or the current
// window's start under a sharded engine (node callbacks should use their
// Domain's clock, which tracks event time within the window).
func (e *Engine) Now() time.Duration {
	if e.shards == nil {
		return e.s.now
	}
	return e.now
}

// After schedules fn at Now()+d. Events scheduled for the same instant run
// in scheduling order (FIFO), which keeps runs reproducible.
//
// Under a sharded engine this schedules a global (harness) event: it runs
// in the global phase between windows, before any node event of the same
// instant, and must itself be called from the global phase — calling it
// from a node callback panics, because a per-node scheduling order would
// depend on the shard layout. Node callbacks schedule through their own
// Context (or DeferGlobal for harness work).
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if e.shards == nil {
		e.seq++
		ev := e.s.alloc()
		ev.at, ev.seq, ev.fn = e.s.now+d, e.seq, fn
		e.s.q.push(ev)
		return
	}
	if e.inWindow {
		panic("sim: After called from a node callback under a sharded engine; use the node Context or DeferGlobal")
	}
	e.gseq++
	e.gq.push(&event{at: e.now + d, dom: globalDomain, seq: e.gseq, fn: fn})
}

// At schedules fn at absolute virtual time t. Times in the past run
// immediately (at the current time).
func (e *Engine) At(t time.Duration, fn func()) {
	e.After(t-e.Now(), fn)
}

// Domain returns the scheduling context of node id. Under a serial engine
// every node shares the engine's single clock and queue; under a sharded
// engine each node gets a context bound to its shard, with the per-domain
// sequence that makes the event order shard-count-independent.
//
// Growing the domain table (first call for a given id) must happen outside
// a running window — node construction is global-phase work.
func (e *Engine) Domain(id int) Context {
	if e.shards == nil {
		return e
	}
	if id < 0 {
		panic("sim: negative node id")
	}
	e.ensureNode(id)
	return e.domains[id]
}

func (e *Engine) ensureNode(id int) {
	if id < len(e.domains) && e.domains[id] != nil {
		return
	}
	if e.inWindow {
		panic("sim: node domains must be created in the global phase, not from a node callback")
	}
	for len(e.domains) <= id {
		e.domains = append(e.domains, nil)
		e.nodeSeq = append(e.nodeSeq, 0)
	}
	if e.domains[id] == nil {
		e.domains[id] = &Domain{e: e, id: int32(id), sh: e.shards[id%len(e.shards)]}
	}
}

// NodeNow returns node id's current clock: its shard's event time during a
// window, the global clock otherwise. Serial engines have one clock.
func (e *Engine) NodeNow(id int) time.Duration {
	if e.shards == nil {
		return e.s.now
	}
	return e.shards[id%len(e.shards)].now
}

// Deliver schedules a message delivery from node `from` to node `to`, d
// from from's current clock, through sink. This is the allocation-free
// delivery path: the operands ride in a pooled event, no closure is built.
// In serial mode the delivery occupies exactly the position in the event
// order that After would have given it.
//
// Under a sharded engine the delivery is keyed by (time, from, from's send
// sequence) — a shard-count-independent order — and a cross-shard delivery
// with d < the lookahead window panics: the destination shard may already
// have advanced past it.
func (e *Engine) Deliver(from, to int32, d time.Duration, sink Sink, payload any, size int32) {
	if d < 0 {
		d = 0
	}
	if e.shards == nil {
		e.seq++
		ev := e.s.alloc()
		ev.at, ev.seq = e.s.now+d, e.seq
		ev.sink, ev.payload, ev.from, ev.to, ev.size = sink, payload, from, to, size
		e.s.q.push(ev)
		return
	}
	s := len(e.shards)
	src := e.shards[int(from)%s]
	dst := int(to) % s
	ev := src.alloc()
	ev.at, ev.dom, ev.seq = src.now+d, from, e.nodeSeq[from]
	e.nodeSeq[from]++
	ev.sink, ev.payload, ev.from, ev.to, ev.size = sink, payload, from, to, size
	if dst == int(from)%s {
		src.q.push(ev)
		return
	}
	if e.inWindow {
		if d < e.window {
			panic(fmt.Sprintf("sim: cross-shard delivery %d→%d with delay %v below the %v lookahead window", from, to, d, e.window))
		}
		src.out[dst] = append(src.out[dst], ev)
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
// global phase runs through the global queue at the current instant,
// preserving the serial engine's "immediate" semantics in event order.
func (e *Engine) DeferGlobal(from int, fn func()) {
	if e.shards == nil {
		panic("sim: DeferGlobal requires a sharded engine")
	}
	sh := e.shards[from%len(e.shards)]
	ev := &event{at: sh.now + e.window, dom: int32(from), seq: e.nodeSeq[from], fn: fn}
	e.nodeSeq[from]++
	if e.inWindow {
		sh.outG = append(sh.outG, ev)
		return
	}
	ev.at = sh.now // global phase: run at the current instant, in queue order
	e.gq.push(ev)
}

// Step runs the next pending event and reports whether one existed. Serial
// engines only: a sharded engine has no single "next" event.
func (e *Engine) Step() bool {
	if e.shards != nil {
		panic("sim: Step requires a serial engine")
	}
	if e.s.q.len() == 0 {
		return false
	}
	ev := e.s.q.pop()
	e.s.now = ev.at
	e.s.events++
	e.s.exec(ev)
	return true
}

// Run executes events until the queue is empty or the clock would pass
// until. It returns the number of events executed. Events scheduled exactly
// at until still run.
func (e *Engine) Run(until time.Duration) uint64 {
	if e.shards != nil {
		return e.runSharded(until, ^uint64(0))
	}
	start := e.s.events
	for e.s.q.len() > 0 {
		if e.s.q.top().at > until {
			break
		}
		e.Step()
	}
	if e.s.now < until {
		e.s.now = until
	}
	return e.s.events - start
}

// RunChunk executes events up to until in a bounded burst and returns the
// number executed, so callers can interleave event bursts with cancellation
// checks and still end on the same clock as one uninterrupted Run. A return
// of 0 means the advance to until is complete. The serial engine executes
// at most max events per call; the sharded engine executes whole lookahead
// windows and may overshoot max by the events of one window.
func (e *Engine) RunChunk(until time.Duration, max uint64) uint64 {
	if e.shards != nil {
		return e.runSharded(until, max)
	}
	start := e.s.events
	for e.s.q.len() > 0 && e.s.events-start < max {
		if e.s.q.top().at > until {
			break
		}
		e.Step()
	}
	if (e.s.q.len() == 0 || e.s.q.top().at > until) && e.s.now < until {
		e.s.now = until
	}
	return e.s.events - start
}

// RunAll executes events until every queue is empty and returns the number
// of events executed. Use only for workloads that provably quiesce.
func (e *Engine) RunAll() uint64 {
	if e.shards != nil {
		var total uint64
		for {
			n := e.runSharded(e.now+1000*e.window, ^uint64(0))
			total += n
			if n == 0 && e.Pending() == 0 {
				return total
			}
		}
	}
	start := e.s.events
	for e.Step() {
	}
	return e.s.events - start
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	if e.shards == nil {
		return e.s.q.len()
	}
	n := e.gq.len()
	for _, sh := range e.shards {
		n += sh.q.len()
	}
	return n
}

// Events returns the total number of events executed so far.
func (e *Engine) Events() uint64 {
	if e.shards == nil {
		return e.s.events
	}
	n := e.gevents
	for _, sh := range e.shards {
		n += sh.events
	}
	return n
}

// Domain is a node's scheduling context under a sharded engine: the shard
// clock plus timers keyed by the node's own sequence. All of a node's
// callbacks run serialized on its shard, so a Domain may only be used from
// its own node's callbacks or from the global phase.
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
	e := d.e
	ev := d.sh.alloc()
	ev.at, ev.dom, ev.seq, ev.fn = d.sh.now+dur, d.id, e.nodeSeq[d.id], fn
	e.nodeSeq[d.id]++
	d.sh.q.push(ev)
}
