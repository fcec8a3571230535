package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The sharded tests drive a toy flooding protocol through the engine's
// delivery path: every node logs what it sees (receipts, timers, deferred
// globals), and the concatenated logs form a fingerprint that must be
// byte-identical for every shard count — the engine's core contract.

const twin = 2 * time.Millisecond // lookahead window of the toy workload

type toyNet struct {
	e       *Engine
	nodes   []*toyNode
	globals []string // appended only in the global phase (single-threaded)
}

type toyNode struct {
	net   *toyNet
	id    int32
	ctx   Context
	log   []string
	state uint64
}

// Deliver is the toy protocol: log the receipt, fold it into node state,
// forward the hop-decremented payload to two pseudo-random targets, and
// occasionally arm a self-timer or defer a global action. It runs on the
// destination shard's goroutine; everything it touches is owned by node
// `to` except the engine's own scheduling entry points.
func (*toyNet) Returned(int) {}

func (t *toyNet) Deliver(from, to int32, payload any, _ uint32, more bool) {
	n := t.nodes[to]
	hop := payload.(int)
	n.log = append(n.log, fmt.Sprintf("n%d recv hop=%d from=%d at=%v", to, hop, from, n.ctx.Now()))
	n.state = n.state*31 + uint64(from)*7 + uint64(hop)
	if hop == 0 {
		return
	}
	for k := 0; k < 2; k++ {
		tgt := (int(to)*5 + hop*13 + k*3) % len(t.nodes)
		d := twin + time.Duration(n.state%5)*time.Millisecond
		t.e.Deliver(to, int32(tgt), d, hop-1, 0, false)
	}
	if n.state%3 == 0 {
		n.ctx.After(time.Duration(n.state%2)*time.Millisecond, func() {
			n.log = append(n.log, fmt.Sprintf("n%d timer at=%v", n.id, n.ctx.Now()))
		})
	}
	if n.state%7 == 0 {
		id := n.id
		t.e.DeferGlobal(int(id), func() {
			t.globals = append(t.globals, fmt.Sprintf("global from=%d at=%v", id, t.e.Now()))
		})
	}
}

func runToy(s int, drive func(e *Engine)) *toyNet {
	e := NewSharded(s, twin)
	t := &toyNet{e: e}
	e.Bind(t)
	const nodes = 24
	for i := 0; i < nodes; i++ {
		t.nodes = append(t.nodes, &toyNode{net: t, id: int32(i), ctx: e.Domain(i)})
	}
	for i := 0; i < nodes; i += 3 {
		e.Deliver(int32(i), int32((i+1)%nodes), twin+time.Duration(i%4)*time.Millisecond, 6, 0, false)
	}
	drive(e)
	return t
}

func (t *toyNet) fingerprint() string {
	var sb strings.Builder
	for _, n := range t.nodes {
		for _, l := range n.log {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	for _, g := range t.globals {
		sb.WriteString(g)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestShardedInvariance(t *testing.T) {
	runAll := func(e *Engine) { e.RunAll() }
	ref := runToy(1, runAll)
	if len(ref.fingerprint()) == 0 {
		t.Fatal("toy workload produced no events")
	}
	for _, s := range []int{2, 3, 8, 24, 31} {
		got := runToy(s, runAll)
		if got.fingerprint() != ref.fingerprint() {
			t.Fatalf("S=%d diverged from S=1:\n--- S=1 ---\n%s--- S=%d ---\n%s",
				s, ref.fingerprint(), s, got.fingerprint())
		}
		if got.e.Events() != ref.e.Events() {
			t.Fatalf("S=%d executed %d events, S=1 executed %d", s, got.e.Events(), ref.e.Events())
		}
	}
}

// RunChunk with a small event budget must land on the same outcome and
// final clock as one uninterrupted run — the cancellation seam the runtime
// backend depends on.
func TestShardedRunChunkEquivalence(t *testing.T) {
	const until = 200 * time.Millisecond
	ref := runToy(3, func(e *Engine) { e.Run(until) })
	got := runToy(3, func(e *Engine) {
		for e.RunChunk(until, 16) > 0 {
		}
	})
	if got.fingerprint() != ref.fingerprint() {
		t.Fatalf("chunked run diverged:\n--- Run ---\n%s--- RunChunk ---\n%s",
			ref.fingerprint(), got.fingerprint())
	}
	if got.e.Now() != ref.e.Now() {
		t.Fatalf("chunked run clock = %v, uninterrupted = %v", got.e.Now(), ref.e.Now())
	}
	if n := got.e.RunChunk(until, 16); n != 0 {
		t.Fatalf("RunChunk after completion executed %d events, want 0", n)
	}
}

// Run(until) executes events at ≤ until (inclusive boundary), leaves later
// events queued, and parks every clock exactly at until.
func TestShardedRunUntilBoundary(t *testing.T) {
	e := NewSharded(2, twin)
	ran := map[int]bool{}
	for _, ms := range []int{10, 20, 30} {
		ms := ms
		e.After(time.Duration(ms)*time.Millisecond, func() { ran[ms] = true })
	}
	e.Run(20 * time.Millisecond)
	if !ran[10] || !ran[20] || ran[30] {
		t.Fatalf("boundary events wrong: ran=%v", ran)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(time.Second)
	if !ran[30] {
		t.Fatal("resumed run did not execute the remaining event")
	}
}

// Global (harness) events run before any node event of the same instant,
// regardless of which shard the node lives on — a shard-count-independent
// rule the cluster's period ticks rely on.
func TestShardedGlobalBeforeNodeAtSameInstant(t *testing.T) {
	for _, s := range []int{1, 2} {
		e := NewSharded(s, twin)
		var order []string
		d := e.Domain(1)
		d.After(10*time.Millisecond, func() { order = append(order, "node") })
		e.After(10*time.Millisecond, func() { order = append(order, "global") })
		e.RunAll()
		if len(order) != 2 || order[0] != "global" || order[1] != "node" {
			t.Fatalf("S=%d order = %v, want [global node]", s, order)
		}
	}
}

// DeferGlobal from a node callback runs in the global phase one lookahead
// later; from the global phase it runs at the current instant. Same-instant
// ordering puts deferred globals (keyed by their node's domain) before
// harness After callbacks: a follow-up the first deferred action of a burst
// schedules with After(0) must see the whole burst applied.
func TestDeferGlobal(t *testing.T) {
	e := NewSharded(2, twin)
	var order []string
	d := e.Domain(0)
	d.After(10*time.Millisecond, func() {
		e.DeferGlobal(0, func() {
			order = append(order, fmt.Sprintf("deferred at=%v", e.Now()))
		})
	})
	e.RunAll()
	if len(order) != 1 || order[0] != "deferred at=12ms" {
		t.Fatalf("in-window DeferGlobal = %v, want [deferred at=12ms]", order)
	}

	order = nil
	e.After(0, func() { order = append(order, "harness") })
	e.DeferGlobal(0, func() { order = append(order, "deferred") })
	e.RunAll()
	if len(order) != 2 || order[0] != "deferred" || order[1] != "harness" {
		t.Fatalf("global-phase DeferGlobal = %v, want [deferred harness]", order)
	}
}

// After from inside a node callback panics: harness scheduling with a
// global sequence would make event order depend on the shard layout.
func TestShardedAfterPanicsInWindow(t *testing.T) {
	e := NewSharded(1, twin)
	var panicked bool
	d := e.Domain(0)
	d.After(time.Millisecond, func() {
		defer func() { panicked = recover() != nil }()
		e.After(time.Millisecond, func() {})
	})
	e.RunAll()
	if !panicked {
		t.Fatal("After inside a node callback did not panic")
	}
}

// A cross-shard delivery below the lookahead window panics: the destination
// shard may already have advanced past the delivery time.
func TestShardedCrossShardMinDelayPanics(t *testing.T) {
	e := NewSharded(2, twin)
	e.Bind(&countSink{})
	var panicked bool
	d := e.Domain(0)
	d.After(time.Millisecond, func() {
		defer func() { panicked = recover() != nil }()
		e.Deliver(0, 1, twin/2, nil, 0, false) // node 1 lives on the other shard
	})
	e.RunAll()
	if !panicked {
		t.Fatal("sub-window cross-shard delivery did not panic")
	}
}

// Same-shard deliveries carry no lookahead constraint.
func TestShardedSameShardShortDelay(t *testing.T) {
	e := NewSharded(2, twin)
	sink := &countSink{}
	e.Bind(sink)
	d := e.Domain(0)
	d.After(time.Millisecond, func() {
		e.Deliver(0, 2, 0, nil, 0, false) // node 2 shares shard 0
	})
	e.RunAll()
	if sink.n != 1 {
		t.Fatalf("same-shard zero-delay delivery count = %d, want 1", sink.n)
	}
}

type countSink struct{ n int }

func (c *countSink) Deliver(from, to int32, payload any, _ uint32, more bool) { c.n++ }

func (c *countSink) Returned(int) {}

// mixRig reproduces the traffic a 4000-node sim_scale run was measured to
// put on the engine (DESIGN.md, "The discrete-event engine"): 80 % of events
// are deliveries scheduled exactly one lookahead window ahead, 20 % are timers
// 50, 100 or 200 windows out, with ≈ 40 k events pending. Every event
// schedules one successor of its own kind, so the population is constant, and
// every callback is built at setup, so a round allocates nothing of its own.
type mixRig struct{ e *Engine }

const (
	mixWindow     = 5 * time.Millisecond
	mixNodes      = 4096
	mixDeliveries = 1316  // in flight; each is re-sent on arrival
	mixTimers     = 38400 // pending; each re-arms when it fires
)

func newMixRig(shards int) *mixRig {
	e := NewSharded(shards, mixWindow)
	r := &mixRig{e: e}
	e.Bind(r)
	ctx := make([]Context, mixNodes)
	for i := range ctx {
		ctx[i] = e.Domain(i)
	}
	for i := 0; i < mixDeliveries; i++ {
		// Arrivals spread over the window instead of one instant.
		offset := mixWindow * time.Duration(i) / mixDeliveries
		e.Deliver(int32(i), int32(i+1), mixWindow+offset, nil, 0, false)
	}
	for j := 0; j < mixTimers; j++ {
		node, fires := ctx[j%mixNodes], j
		var fire func()
		fire = func() {
			fires++
			node.After(mixWindow*time.Duration(50<<(fires%3)), fire)
		}
		node.After(200*mixWindow*time.Duration(j)/mixTimers, fire)
	}
	// Two turns of the longest timer: pages, buffers and outboxes reach the
	// sizes the steady state needs.
	e.Run(400 * mixWindow)
	return r
}

// Deliver forwards every delivery one node ahead — to another shard whenever
// there is more than one — at exactly the lookahead window.
func (*mixRig) Returned(int) {}

func (r *mixRig) Deliver(from, to int32, payload any, _ uint32, more bool) {
	r.e.Deliver(to, (to+1)%mixNodes, mixWindow, payload, 0, false)
}

// The steady-state scheduling path allocates nothing, through Deliver and
// through Domain.After alike: events are values, and the pages, buffers and
// outboxes they wait in are reused.
func TestSteadyStateSchedulingAllocatesNothing(t *testing.T) {
	e := newMixRig(1).e
	before := e.Events()
	allocs := testing.AllocsPerRun(20, func() { e.RunChunk(time.Duration(1<<62), 20_000) })
	if ran := e.Events() - before; allocs != 0 || ran < 20*20_000 {
		t.Fatalf("steady-state rounds ran %d events and allocate %v objects each, want ≥ 400k and 0", ran, allocs)
	}
}

// A window of a sharded engine allocates nothing either: one shard runs on
// the coordinator, the others start from func values built with the engine
// and join on the engine's WaitGroup — no closure or WaitGroup per window.
// The count is exact: every allocation of the 20 rounds, on the shard
// goroutines too, at the module's own sites.
func TestShardedWindowsAllocateNothing(t *testing.T) {
	e := newMixRig(2).e
	round := func() { e.RunChunk(time.Duration(1<<62), 20_000) }
	round() // a round past the rig's setup, as testing.AllocsPerRun warms up
	before := [2]uint64{e.shards[0].events, e.shards[1].events}
	sites := siteAllocs(t, 20, round)
	for k, sh := range e.shards {
		if ran := sh.events - before[k]; ran < 20*20_000/4 {
			t.Fatalf("shard %d ran %d events, want ≥ 100k: the load is not spread over both shards", k, ran)
		}
	}
	if len(sites) != 0 {
		t.Fatalf("20 rounds of two-shard steady-state windows allocate, want nothing; by site: %v", sites)
	}
}

// Windows end on the calendar's slot grid even when a fast-forward parks the
// barrier off it, so a delivery sent across shards at exactly the lookahead
// lands past the slot its destination has open: it is appended to a bucket,
// never pushed into the late heap. Two nodes on two shards bounce one
// message from an instant off the grid, and the other has work in the slot
// the first window would straddle.
func TestAlignedWindowsKeepLateHeapEmpty(t *testing.T) {
	const w = 5 * time.Millisecond
	e := NewSharded(2, w)
	b := &bouncer{e: e}
	e.Bind(b)
	e.Domain(0).After(7*time.Millisecond, func() { e.Deliver(0, 1, w, 20, 0, false) })
	e.Domain(1).After(11*time.Millisecond, func() { e.Deliver(1, 0, w, 20, 0, false) })
	windows := 0
	for e.RunChunk(time.Second, 1) > 0 {
		windows++
		for k, sh := range e.shards {
			if n := len(sh.q.late); n != 0 {
				t.Fatalf("after window %d (clock %v) shard %d holds %d events in its late heap, want 0", windows, e.Now(), k, n)
			}
		}
	}
	if b.n[0]+b.n[1] != 42 {
		t.Fatalf("the two bounces delivered %d messages, want 42", b.n[0]+b.n[1])
	}
}

// bouncer sends every delivery back to its sender at exactly the lookahead
// until its hop count runs out.
type bouncer struct {
	e *Engine
	n [2]int
}

func (*bouncer) Returned(int) {}

func (b *bouncer) Deliver(from, to int32, payload any, _ uint32, more bool) {
	b.n[to]++
	if hops := payload.(int); hops > 0 {
		b.e.Deliver(to, from, b.e.window, hops-1, 0, false)
	}
}

// siteAllocs runs f runs times with every allocation profiled
// (runtime.MemProfileRate = 1) and returns how many objects the runs
// allocated in all, by site: the innermost frame of this module on the
// allocating stack, shard goroutines' stacks included. Stacks that never
// pass through the module — a GC worker's, the profiler's — are not counted,
// so the runtime's own allocations cannot decide a test, and the count is
// exact where testing.AllocsPerRun floors a mean.
func siteAllocs(t *testing.T, runs int, f func()) map[string]int64 {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocsByStack()
	for i := 0; i < runs; i++ {
		f()
	}
	after := allocsByStack()
	sites := make(map[string]int64)
	for stk, n := range after {
		if n -= before[stk]; n > 0 {
			if site := moduleSite(stk); site != "" {
				sites[site] += n
			}
		}
	}
	return sites
}

// allocsByStack returns the objects allocated so far per allocating stack,
// as of a collection it forces: the profile publishes an allocation once
// the cycle it was made in has been swept.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	by := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		by[r.Stack0] += r.AllocObjects
	}
	return by
}

// moduleSite names the innermost frame of this module on stk, or "" if
// there is none, if it is the profiling itself, or if the allocation refills
// one of the runtime's own caches from inside it — a count no code of the
// module decides:
//
//   - runtime.typeAssert and runtime.interfaceSwitch rebuild a call site's
//     type-assertion cache at random, about one miss in 1 024, until it
//     holds every type the site sees: SimNet.Deliver's payload.(msg.Message)
//     made one in 1 280 rounds of the gossip round rig in some runs, none in
//     others;
//   - runtime.acquireSudog allocates the wait record of a blocking
//     WaitGroup.Wait when the Ps' pools run dry, which the collection the
//     profile forces makes happen: the sharded windows' join made up to 64
//     (one pool's spill) in some runs of 20 rounds, none in others.
func moduleSite(stk [32]uintptr) string {
	frames := runtime.CallersFrames(stk[:])
	for {
		fr, more := frames.Next()
		switch fr.Function {
		case "runtime.typeAssert", "runtime.interfaceSwitch", "runtime.acquireSudog":
			return ""
		}
		if strings.HasPrefix(fr.Function, "lifting/") {
			if strings.HasSuffix(fr.Function, ".allocsByStack") || strings.HasSuffix(fr.Function, ".siteAllocs") {
				return ""
			}
			return fmt.Sprintf("%s %s:%d", fr.Function, fr.File, fr.Line)
		}
		if !more {
			return ""
		}
	}
}

// BenchmarkShardedWindows measures one lookahead window of a two-shard
// engine under the measured traffic mix, whose deliveries all cross to the
// other shard: the dispatch to the shard goroutines, both shards' events,
// the join and the outbox merge. ns/op is ns/window.
func BenchmarkShardedWindows(b *testing.B) {
	e := newMixRig(2).e
	before := e.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunChunk(time.Duration(1<<62), 1) // a budget of 1 stops after one window
	}
	b.ReportMetric(float64(e.Events()-before)/float64(b.N), "events/op")
}

// BenchmarkEngineTraffic measures the engine end to end — calendar pushes,
// slice sorts and pops, window barriers, outbox merges — under the measured
// traffic mix.
// ns/op is ns/event (the run is capped at b.N events, ±one window).
func BenchmarkEngineTraffic(b *testing.B) {
	for _, s := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			e := newMixRig(s).e
			b.ReportAllocs()
			b.ResetTimer()
			var total uint64
			for total < uint64(b.N) {
				total += e.RunChunk(time.Duration(1<<62), uint64(b.N)-total)
			}
		})
	}
}

// Every event of a node — its timers, the deliveries to it and those it
// sends itself — runs on the shard ShardOf names, id mod the shard count:
// that shard alone counts them.
func TestNodeEventsRunOnShardOf(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		for _, id := range []int{0, 1, 5, 17} {
			e := NewSharded(shards, twin)
			e.Bind(&countSink{})
			if got := e.ShardOf(id); got != id%shards {
				t.Fatalf("S=%d: ShardOf(%d) = %d, want %d", shards, id, got, id%shards)
			}
			d, sender := e.Domain(id), id+1
			e.Domain(sender)
			d.After(time.Millisecond, func() {})
			d.After(3*twin, func() { e.Deliver(int32(id), int32(id), twin, nil, 0, false) })
			e.Deliver(int32(sender), int32(id), twin, nil, 0, false)
			e.RunAll()
			for k, sh := range e.shards {
				want := uint64(0)
				if k == id%shards {
					want = 4
				}
				if sh.events != want {
					t.Fatalf("S=%d node %d: shard %d ran %d events, want %d", shards, id, k, sh.events, want)
				}
			}
		}
	}
}
