package sim

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"lifting/internal/rng"
)

// model is the reference the calendar is checked against: every pending
// event in one slice, sorted by the canonical key when the minimum is asked
// for.
type model struct {
	pending []event
	sorted  bool
}

func (m *model) push(ev event) {
	m.pending = append(m.pending, ev)
	m.sorted = false
}

func (m *model) nextAt() time.Duration {
	if len(m.pending) == 0 {
		return never
	}
	if !m.sorted {
		slices.SortFunc(m.pending, func(a, b event) int {
			if less(&a, &b) {
				return -1
			}
			return 1 // keys are unique
		})
		m.sorted = true
	}
	return m.pending[0].at
}

func (m *model) popBefore(bound time.Duration) (event, bool) {
	if m.nextAt() >= bound {
		return event{}, false
	}
	ev := m.pending[0]
	m.pending = m.pending[1:]
	return ev, true
}

// orderRig drives a queue and the model with one schedule, the way a shard
// drives its queue: the clock is the time of the last event popped, pushes
// lie at or after the clock, and an empty queue follows the clock.
type orderRig struct {
	t      testing.TB
	q      queue
	ref    model
	window time.Duration
	now    time.Duration
	seq    [orderDomains]uint64
	pushed int32
}

const orderDomains = 8

func newOrderRig(t testing.TB, window time.Duration) *orderRig {
	r := &orderRig{t: t, window: window}
	r.q.init(window)
	return r
}

func (r *orderRig) push(delay time.Duration, dom int) {
	r.pushed++
	ev := event{at: r.now + delay, dom: int32(dom), seq: r.seq[dom], to: callback, payload: r.pushed}
	r.seq[dom]++
	r.q.push(ev)
	r.ref.push(ev)
}

// popBefore pops one event due before bound from both sides and demands the
// same answer.
func (r *orderRig) popBefore(bound time.Duration) bool {
	r.t.Helper()
	want, wantOK := r.ref.popBefore(bound)
	got, ok := r.q.popBefore(bound)
	if ok != wantOK || got != want {
		r.t.Fatalf("popBefore(%v) at clock %v = %+v, %v; the sorted reference says %+v, %v", bound, r.now, got, ok, want, wantOK)
	}
	if ok {
		r.now = got.at
	}
	r.check()
	return ok
}

func (r *orderRig) check() {
	r.t.Helper()
	if r.q.len() != len(r.ref.pending) {
		r.t.Fatalf("queue holds %d events, the reference %d", r.q.len(), len(r.ref.pending))
	}
}

// peek checks nextAt against the reference, and earliest — asked first,
// as the engine asks it, before any slice is opened — as a lower bound on
// it that is never only when the queue is empty.
func (r *orderRig) peek() {
	r.t.Helper()
	lower := r.q.earliest()
	want := r.ref.nextAt()
	if got := r.q.nextAt(); got != want {
		r.t.Fatalf("nextAt at clock %v = %v, the sorted reference says %v", r.now, got, want)
	}
	if lower > want || (lower == never) != (want == never) {
		r.t.Fatalf("earliest at clock %v = %v, above the earliest event at %v or never while one waits", r.now, lower, want)
	}
}

// advance moves the clock as Engine.advanceTo does.
func (r *orderRig) advance(t time.Duration) {
	r.now = max(r.now, t)
	r.q.follow(r.now)
}

func (r *orderRig) drain() {
	for r.popBefore(never) {
	}
}

// run interprets a schedule: two bytes per step, the first an operation and
// its magnitude (3 + 5 bits), the second the scheduling domain. The
// operations are the situations the calendar has a distinct path for.
func (r *orderRig) run(schedule []byte) {
	r.t.Helper()
	w, span := r.window, ringLen*r.window
	for i := 0; i+1 < len(schedule); i += 2 {
		lo, dom := time.Duration(schedule[i]&31), int(schedule[i+1]%orderDomains)
		switch schedule[i] >> 5 {
		case 0: // inside the open slice
			r.push(lo*w/32, dom)
		case 1: // exactly one window ahead, on consecutive sequences of one domain
			for k := time.Duration(0); k <= lo%4; k++ {
				r.push(w, dom)
			}
		case 2: // anywhere in the ring
			r.push(lo*8*w+time.Duration(schedule[i+1])*w/32, dom)
		case 3: // at the edge of the ring's span and beyond it
			r.push(span-w+lo*w*16+time.Duration(schedule[i+1])*w/64, dom)
		case 4: // one instant, several domains
			for d := 0; d <= dom; d++ {
				r.push(w+lo*w/32, d)
			}
		case 5: // pop a few, wherever they lie
			for k := time.Duration(0); k <= lo; k++ {
				r.popBefore(never)
			}
		case 6: // one engine window: run to the bound, then the barrier
			bound := r.now + w
			for r.popBefore(bound) {
			}
			r.advance(bound)
		case 7:
			if lo < 16 {
				// The global phase peeks (which may move the horizon past
				// the clock) and then schedules close to the clock.
				r.peek()
				r.push(lo*w/8, dom)
			} else {
				// An idle gap: everything runs, the clock hops on.
				r.drain()
				r.advance(r.now + (lo-15)*span/4)
			}
		}
		r.check()
	}
	r.peek()
	r.drain()
	if r.q.inRing != 0 || len(r.q.cur) != 0 || len(r.q.late) != 0 || len(r.q.far) != 0 {
		r.t.Fatalf("drained queue still counts inRing=%d cur=%d late=%d far=%d", r.q.inRing, len(r.q.cur), len(r.q.late), len(r.q.far))
	}
}

// orderWindows are the lookaheads the engine is built with: the two latency
// models' base latencies and the no-latency configuration's gossip period,
// where almost every push falls inside the open slice.
var orderWindows = []time.Duration{2 * time.Millisecond, 5 * time.Millisecond, 500 * time.Millisecond}

// The calendar pops exactly the sequence a sort of the pending events by
// (time, domain, sequence) gives, whatever mix of near, far, tied and
// post-gap pushes the schedule makes.
func TestQueueMatchesSortedReference(t *testing.T) {
	for _, w := range orderWindows {
		for seed := uint64(1); seed <= 40; seed++ {
			r := rng.New(seed)
			schedule := make([]byte, 2*(200+r.IntN(1800)))
			// Each schedule leans on its own few operations, so queues both
			// grow large and run empty.
			var weights [8]float64
			for i := range weights {
				weights[i] = r.Float64() * r.Float64()
			}
			for i := 0; i < len(schedule); i += 2 {
				schedule[i] = byte(r.WeightedChoice(weights[:])<<5 | r.IntN(32))
				schedule[i+1] = byte(r.IntN(256))
			}
			newOrderRig(t, w).run(schedule)
		}
	}
}

// FuzzQueueOrder lets the fuzzer write the schedule. The committed corpus
// under testdata/fuzz replays on every plain `go test`.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0x20, 0, 0x60, 1, 0xc0, 0}) // near, beyond the span, one window
	f.Add([]byte{0x43, 2, 0xff, 0, 0x20, 3, 0xc0, 0, 0xe1, 4})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 4096 {
			t.Skip("long schedules only repeat short ones")
		}
		for _, w := range orderWindows {
			newOrderRig(t, w).run(schedule)
		}
	})
}

// sorted merges whatever runs a bucket is made of — one, an odd number, runs
// of one event each (a descending bucket) — into canonical order, and leaves
// no copy of an event in the scratch half of its buffer.
func TestSortedMergesRuns(t *testing.T) {
	stream := rng.New(3)
	byKey := func(a, b event) int {
		if less(&a, &b) {
			return -1
		}
		return 1
	}
	for n := 0; n <= 400; n++ {
		var q queue
		q.init(time.Millisecond)
		bucket := make([]event, n)
		for i := range bucket {
			bucket[i] = event{at: time.Duration(stream.IntN(20)), dom: int32(stream.IntN(4)), seq: uint64(i), to: callback}
		}
		// Cut it into 1..9 ascending runs; every third case, into n.
		want := slices.Clone(bucket)
		slices.SortFunc(want, byKey)
		switch cuts := 1 + n%9; {
		case n%3 == 0:
			slices.Reverse(bucket)
		default:
			for k := 0; k < cuts; k++ {
				lo, hi := k*n/cuts, (k+1)*n/cuts
				slices.SortFunc(bucket[lo:hi], byKey)
			}
		}
		got := q.sorted(append(q.buf[:0], bucket...))
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: sorted gave %v, want %v", n, got, want)
		}
		start := 0 // of the half of buf the result landed in
		if n > 0 && &got[0] != &q.buf[0] {
			start = n
		}
		for i, ev := range q.buf {
			if (i < start || i >= start+n) && ev != (event{}) {
				t.Fatalf("n=%d: slot %d, outside the result, still holds %+v", n, i, ev)
			}
		}
	}
}

// An event waiting in the far heap enters the ring when the horizon
// advances, and the slot that has just come into the span shares its ring
// position with the bucket being loaded. Migrating before that bucket is
// detached would load the far event with it — a whole ring span early.
func TestFarEventDoesNotAliasLoadingBucket(t *testing.T) {
	r := newOrderRig(t, 5*time.Millisecond)
	w := r.window
	r.push(w/2, 0)         // slot 0: the bucket the first pop loads
	r.push(ringLen*w, 1)   // slot ringLen: far, and the same ring position
	r.push(3*w, 2)         // slot 3: due long before it
	r.push(ringLen*w+1, 3) // one more behind the far one
	if len(r.q.far) != 2 {
		t.Fatalf("far heap holds %d events, want the 2 beyond the span", len(r.q.far))
	}
	r.drain() // each pop is checked against the sorted reference

	// The same through the engine: the far timer fires last, at its own time.
	e := NewSharded(1, w)
	d := e.Domain(0)
	var fired []time.Duration
	for _, delay := range []time.Duration{w / 2, ringLen * w, 3 * w} {
		d.After(delay, func() { fired = append(fired, d.Now()) })
	}
	e.RunAll()
	if want := []time.Duration{w / 2, 3 * w, ringLen * w}; !slices.Equal(fired, want) {
		t.Fatalf("timers fired at %v, want %v", fired, want)
	}
}

// After an idle gap longer than the ring's span — RunAll's hop
// past a drained schedule, or advanceTo(earliest) — the calendar must sit
// under the clock again, or every later push takes the far heap's detour.
func TestCalendarFollowsClockAcrossIdleGap(t *testing.T) {
	const w = 5 * time.Millisecond
	e := NewSharded(1, w)
	sink := &countSink{}
	e.Bind(sink)
	e.Domain(0)
	e.Domain(1)
	q := &e.shards[0].q
	for round := 1; round <= 3; round++ {
		for i := 0; i < 100; i++ {
			e.Deliver(0, 1, w, nil, 0, false)
		}
		if len(q.far) != 0 || q.inRing != 100 {
			t.Fatalf("round %d at %v: %d events in the far heap and %d in the ring, want 0 and 100", round, e.Now(), len(q.far), q.inRing)
		}
		e.RunAll() // drains, then hops 1000 windows on
	}
	if sink.n != 300 {
		t.Fatalf("delivered %d, want 300", sink.n)
	}
	// A lone far timer: the engine hops straight to it, and what its callback
	// sends one window ahead must again be an append.
	d := e.Domain(0)
	d.After(10*time.Second, func() {
		e.Deliver(0, 1, w, nil, 0, false)
		if len(q.far) != 0 || q.inRing != 1 {
			t.Errorf("after the hop: %d events in the far heap and %d in the ring, want 0 and 1", len(q.far), q.inRing)
		}
	})
	e.RunAll()
	if sink.n != 301 {
		t.Fatalf("delivered %d, want 301", sink.n)
	}
}

// With no latency the window is a whole gossip period and almost every push
// falls inside the open slice. The queue must then be a plain heap — every
// such push O(log n) into late — not an insertion into the sorted slice.
func TestInWindowPushesDegradeToHeap(t *testing.T) {
	r := newOrderRig(t, 500*time.Millisecond)
	r.push(0, 0)
	r.peek() // loads slot 0: the horizon is now one window out
	const n = 50_000
	stream := rng.New(9)
	for i := 0; i < n; i++ {
		r.push(time.Duration(stream.IntN(int(r.window))), i%orderDomains)
	}
	if len(r.q.late) != n || r.q.inRing != 0 || len(r.q.far) != 0 {
		t.Fatalf("in-window pushes: late=%d ring=%d far=%d, want all %d in late", len(r.q.late), r.q.inRing, len(r.q.far), n)
	}
	r.drain()
}

// An event is at most 40 bytes and a page exactly one 4 KB size class; both
// are what the memory bound in DESIGN.md is computed from.
func TestEventAndPageSizes(t *testing.T) {
	if s := unsafe.Sizeof(event{}); s > 40 {
		t.Fatalf("event is %d bytes, want at most 40", s)
	}
	if s := unsafe.Sizeof(page{}); s > 4096 {
		t.Fatalf("page is %d bytes, want at most 4096", s)
	}
}

// pages counts the pages a queue owns: hung on the ring and on the free list.
func (q *queue) pages() int {
	n := 0
	for p := q.free; p != nil; p = p.next {
		n++
	}
	for i := range q.ring {
		for p := q.ring[i].head; p != nil; p = p.next {
			n++
		}
	}
	return n
}

// Pages recycle: a 200k-event burst into one slice leaves its pages on the
// free list, and a steady load afterwards lives off them — it allocates no
// page and nothing else.
func TestBurstPagesAreReused(t *testing.T) {
	const w = 5 * time.Millisecond
	const burst = 200_000
	e := NewSharded(1, w)
	sink := &countSink{}
	e.Bind(sink)
	e.Domain(0)
	e.Domain(1)
	for i := 0; i < burst; i++ {
		e.Deliver(0, 1, w, nil, 0, false)
	}
	q := &e.shards[0].q
	want := (burst + pageLen - 1) / pageLen
	if got := q.pages(); got != want {
		t.Fatalf("the burst hangs on %d pages, want %d", got, want)
	}
	e.RunAll()
	if sink.n != burst || q.pages() != want {
		t.Fatalf("after the drain: %d delivered, %d pages; want %d and %d", sink.n, q.pages(), burst, want)
	}
	steady := func() {
		for i := 0; i < 1000; i++ {
			e.Deliver(0, 1, w+time.Duration(i)*w/100, nil, 0, false) // ten slices
		}
		e.RunAll()
	}
	if allocs := testing.AllocsPerRun(20, steady); allocs != 0 {
		t.Fatalf("steady load after the burst allocates %v objects per round, want 0", allocs)
	}
	if got := q.pages(); got != want {
		t.Fatalf("steady load after the burst grew the calendar to %d pages, want the burst's %d", got, want)
	}
}

// A drained engine keeps nothing the events carried alive: pages are cleared
// when they go back to the free list, heap slots when they are popped,
// outboxes when they are merged.
func TestDrainedQueueDropsPayloads(t *testing.T) {
	const w = 5 * time.Millisecond
	const each = 300 // several pages per path
	e := NewSharded(2, w)
	e.Bind(&countSink{})
	d0 := e.Domain(0)
	e.Domain(1)
	e.Domain(2)
	const want = 5 * each
	var freed atomic.Int32
	done := make(chan struct{})
	tracked := func() *[64]byte {
		p := new([64]byte)
		runtime.SetFinalizer(p, func(*[64]byte) {
			if freed.Add(1) == want {
				close(done)
			}
		})
		return p
	}
	for i := 0; i < each; i++ {
		e.Deliver(0, 2, w, tracked(), 0, false)                            // ring, same shard
		e.Deliver(0, 2, (ringLen+time.Duration(i))*w, tracked(), 0, false) // far heap
		p, q, r := tracked(), tracked(), tracked()
		d0.After(w/2, func() { // cur, then from inside the window:
			e.Deliver(0, 1, w, p, 0, false)    // the outbox to shard 1
			e.Deliver(0, 2, 0, q, 0, false)    // a push below the horizon
			e.DeferGlobal(0, func() { _ = r }) // the global outbox
		})
	}
	e.RunAll()
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after RunAll", e.Pending())
	}
	for cycle := 0; ; cycle++ {
		runtime.GC() // finalizers run on their own goroutine, after the cycle
		select {
		case <-done:
			runtime.KeepAlive(e)
			return
		case <-time.After(100 * time.Millisecond):
		}
		if cycle == 50 {
			t.Fatalf("%d of %d payloads were collected; the drained engine still references the rest", freed.Load(), want)
		}
	}
}
