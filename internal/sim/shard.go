package sim

import (
	gort "runtime"
	"time"
)

// RunChunk advances the engine toward until, executing at least
// min(max, everything due) events, in lockstep lookahead windows:
//
//  1. Global phase: with every shard parked at the barrier time T, drain
//     the global queue of events at T (harness callbacks, deferred
//     globals). Global events run on the coordinator goroutine and may
//     freely mutate shared state and schedule into any shard.
//  2. Pick the window bound B = min(the end of T's slot, next global event,
//     just past until): windows end on the calendar's slot grid (slots are
//     one window wide), so a window never straddles two slots. Every shard
//     with an event before B then executes its events with time < B, in
//     parallel: one of them on the coordinator goroutine, each other one on
//     a goroutine of its own. Cross-shard deliveries produced inside the
//     window land at ≥ T+window ≥ B (the lookahead guarantee), so no shard
//     can affect another within the window; they are buffered in per-shard
//     outboxes, and they land past the slot the window opened, so a merge
//     appends them to a bucket instead of taking the late heap.
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
		// walking empty windows one lookahead at a time. A shard's part is
		// a lower bound that opens no slice (queue.earliest): the slices
		// are loaded and sorted on the goroutines that run them.
		earliest := nextG
		for _, sh := range e.shards {
			earliest = min(earliest, sh.q.earliest())
		}
		if earliest > e.now {
			e.advanceTo(earliest)
			continue
		}
		bound := min(e.now-e.now%e.window+e.window, nextG)
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
		if final {
			e.advanceTo(until)
			return executed
		}
		e.advanceTo(bound)
	}
}

// idleUpTo reports whether no shard has an event due at or before until. It
// may answer false for a shard whose first slot starts by until but whose
// events lie past it: the final window then runs none of them.
func (e *Engine) idleUpTo(until time.Duration) bool {
	for _, sh := range e.shards {
		if sh.q.earliest() <= until {
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

// runWindow executes every shard's events with time < bound, merges what
// they sent across shards and returns how many ran. Of the shards with an
// event before bound, the first runs on the coordinator and every other one
// on a goroutine started from the func value it was built with (shard.run);
// the engine's WaitGroup gives the coordinator a happens-before edge over all
// shard state. Nothing is allocated: the func values, the bound they read and
// the WaitGroup all belong to the engine.
func (e *Engine) runWindow(bound time.Duration) uint64 {
	before := e.Events()
	e.bound = bound
	e.inWindow = true
	local, started := -1, false
	for i, sh := range e.shards {
		switch {
		case sh.q.earliest() >= bound:
		case local < 0:
			local = i
		default:
			e.wg.Add(1)
			go sh.run()
			started = true
		}
	}
	if local >= 0 {
		if started {
			// Yield once: a goroutine just started sits in this P's
			// next-to-run slot, which an idle P steals only after a
			// sleep, while one that yields is taken from the global queue
			// at once (DESIGN.md, "The discrete-event engine").
			gort.Gosched()
		}
		e.shards[local].runTo(bound, e.sink)
	}
	e.wg.Wait()
	e.inWindow = false
	e.mergeOutboxes()
	return e.Events() - before
}

// runTo executes the shard's events with time strictly below bound:
// callbacks directly, deliveries through sink, which hears when each node
// event returns. A delivery scheduled with more and the one after it are one
// node event: the two share one (time, sender) and adjacent sequence
// numbers, so no other event sorts between them, and no window bound parts
// them.
func (sh *shard) runTo(bound time.Duration, sink Sink) {
	joined := false // ev continues the node event of the one before it
	for {
		ev, ok := sh.q.popBefore(bound)
		if !ok {
			return
		}
		sh.now = ev.at
		if !joined {
			sh.events++
		}
		joined = ev.to >= follows // callback is negative
		if ev.to == callback {
			ev.payload.(func())()
		} else {
			sink.Deliver(ev.dom, ev.to&^follows, ev.payload, joined)
		}
		if !joined && sink != nil {
			sink.Returned(sh.id)
		}
	}
}

// mergeOutboxes folds every shard's cross-shard and deferred-global events
// into their destination queues. Push order is irrelevant: keys are unique
// and the queues order by them. The emptied outboxes keep no payload alive.
func (e *Engine) mergeOutboxes() {
	for _, sh := range e.shards {
		for d := range sh.out {
			e.shards[d].q.drain(&sh.out[d])
		}
		for i := range sh.outG {
			e.gq.push(sh.outG[i])
		}
		clear(sh.outG)
		sh.outG = sh.outG[:0]
	}
}
