package sim

import (
	"sync"
	"time"
)

// RunChunk advances the engine toward until, executing at least
// min(max, everything due) events, in lockstep lookahead windows:
//
//  1. Global phase: with every shard parked at the barrier time T, drain
//     the global queue of events at T (harness callbacks, deferred
//     globals). Global events run on the coordinator goroutine and may
//     freely mutate shared state and schedule into any shard.
//  2. Pick the window bound B = min(T+window, next global event, just past
//     until). Every shard then executes its events with time < B — in
//     parallel, one goroutine per shard. Cross-shard deliveries produced
//     inside the window land at ≥ T+window ≥ B (the lookahead guarantee),
//     so no shard can affect another within the window; they are buffered
//     in per-shard outboxes.
//  3. Barrier: merge the outboxes into the destination queues and the
//     deferred globals into the global queue, advance every clock to the
//     new T, repeat.
//
// Each event carries the canonical key (time, domain, per-domain seq);
// every queue pops its slice of that one total order, which is what makes
// the outcome identical for every shard count — see DESIGN.md.
//
// The return value is the number of events executed; 0 means the advance
// to until is complete. The event budget max is checked at window
// granularity, so a call may overshoot it by one window's events — callers
// interleave bounded bursts with cancellation checks and still end on the
// same clock as one uninterrupted Run.
func (e *Engine) RunChunk(until time.Duration, max uint64) uint64 {
	var executed uint64
	for {
		// Global phase at T = e.now.
		for {
			ev, ok := e.gq.popBefore(e.now + 1)
			if !ok {
				break
			}
			e.gevents++
			executed++
			ev.payload.(func())()
		}
		nextG := e.gq.nextAt()
		if e.idleUpTo(until) && nextG > until {
			e.advanceTo(until)
			return executed
		}
		if executed >= max {
			return executed
		}
		// Fast-forward across empty stretches: nothing anywhere is due
		// before earliest, so hop the barrier straight there instead of
		// walking empty windows one lookahead at a time.
		earliest := nextG
		for _, sh := range e.shards {
			earliest = min(earliest, sh.q.nextAt())
		}
		if earliest > e.now {
			e.advanceTo(earliest)
			continue
		}
		bound := e.now + e.window
		if nextG < bound {
			bound = nextG
		}
		final := false
		if until+1 <= bound {
			// The last window is [T, until]: events exactly at until still
			// run (Run's contract), and nothing they produce can land at
			// ≤ until — cross-shard and deferred events carry at least the
			// lookahead, self-timers run within the window itself.
			bound = until + 1
			final = true
		}
		executed += e.runWindow(bound)
		e.mergeOutboxes()
		if final {
			e.advanceTo(until)
			return executed
		}
		e.advanceTo(bound)
	}
}

// idleUpTo reports whether no shard has an event due at or before until.
func (e *Engine) idleUpTo(until time.Duration) bool {
	for _, sh := range e.shards {
		if sh.q.nextAt() <= until {
			return false
		}
	}
	return true
}

// advanceTo moves the global clock and every shard clock to t (never
// backwards: a shard that executed events inside the final window sits at
// its last event time, at most t). A queue with nothing in it follows the
// clock, so the pushes after an idle stretch find the calendar under them.
func (e *Engine) advanceTo(t time.Duration) {
	if e.now < t {
		e.now = t
	}
	e.gq.follow(e.now)
	for _, sh := range e.shards {
		if sh.now < t {
			sh.now = t
		}
		sh.q.follow(sh.now)
	}
}

// runWindow executes every shard's events with time < bound and returns
// how many ran. With more than one shard the shards run on their own
// goroutines; the WaitGroup gives the coordinator a happens-before edge
// over all shard state.
func (e *Engine) runWindow(bound time.Duration) uint64 {
	var before uint64
	for _, sh := range e.shards {
		before += sh.events
	}
	e.inWindow = true
	if len(e.shards) == 1 {
		e.shards[0].runTo(bound, e.sink)
	} else {
		var wg sync.WaitGroup
		for _, sh := range e.shards {
			if sh.q.nextAt() >= bound {
				continue
			}
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				sh.runTo(bound, e.sink)
			}(sh)
		}
		wg.Wait()
	}
	e.inWindow = false
	var after uint64
	for _, sh := range e.shards {
		after += sh.events
	}
	return after - before
}

// runTo executes the shard's events with time strictly below bound:
// callbacks directly, deliveries through sink.
func (sh *shard) runTo(bound time.Duration, sink Sink) {
	for {
		ev, ok := sh.q.popBefore(bound)
		if !ok {
			return
		}
		sh.now = ev.at
		sh.events++
		if ev.to == callback {
			ev.payload.(func())()
		} else {
			sink.Deliver(ev.dom, ev.to, ev.payload, ev.size)
		}
	}
}

// mergeOutboxes folds every shard's cross-shard and deferred-global events
// into their destination queues. Push order is irrelevant: keys are unique
// and the queues order by them. The emptied outboxes keep no payload alive.
func (e *Engine) mergeOutboxes() {
	for _, sh := range e.shards {
		for d, lst := range sh.out {
			dst := &e.shards[d].q
			for i := range lst {
				dst.push(lst[i])
			}
			clear(lst)
			sh.out[d] = lst[:0]
		}
		for i := range sh.outG {
			e.gq.push(sh.outG[i])
		}
		clear(sh.outG)
		sh.outG = sh.outG[:0]
	}
}
