package sim

import (
	"testing"
	"time"
)

// stamped is a test record: which push it was, when (true time), and a list
// the ring must let go of when it lapses.
type stamped struct {
	id     int
	pushed time.Duration
	held   []int
}

// TestDeadlinesLapseAtPushPlusScaledDelay is the trap of a cheaper design as
// a test: under a context that scales After and not Now (Skewed, cluster's
// clock skew) a queue that computes due = Now()+delay and re-arms one timer
// for the remainder fires early at a factor below 1, re-arms for a remainder
// that truncates to After(0), and spins at one instant forever. Here every
// record must lapse at exactly its push instant plus the scaled delay, in
// push order — bursts at one instant, pushes from inside a lapse and a ring
// that grows and wraps included — and a spin runs into the event budget.
func TestDeadlinesLapseAtPushPlusScaledDelay(t *testing.T) {
	const delay = 40 * time.Millisecond
	for _, factor := range []float64{0.5, 1, 1.5} {
		e := NewEngine()
		true0 := e.Domain(0)
		scaled := time.Duration(float64(delay) * factor)

		var d *Deadlines[stamped]
		var lapsed []stamped
		pushes, peak := 0, 0
		push := func() {
			d.Push(stamped{id: pushes, pushed: true0.Now(), held: []int{pushes}})
			pushes++
			peak = max(peak, d.Pending())
		}
		d = NewDeadlines(Skewed(true0, factor), delay, func(s stamped) {
			if at := true0.Now(); at != s.pushed+scaled {
				t.Fatalf("factor %v: record %d pushed at %v lapsed at %v, want %v", factor, s.id, s.pushed, at, s.pushed+scaled)
			}
			if s.id != len(lapsed) {
				t.Fatalf("factor %v: record %d lapsed as number %d", factor, s.id, len(lapsed))
			}
			lapsed = append(lapsed, s)
			if s.id%7 == 0 && s.id < 200 {
				push() // a lapse opens a deadline of its own, as a retry does
			}
		})

		// 3 ms apart, every fifth instant a burst of four: 12 to 36 records
		// open at once depending on the factor, through a ring made for 4.
		for i := 0; i < 60; i++ {
			burst := 1
			if i%5 == 0 {
				burst = 4
			}
			true0.After(time.Duration(i)*3*time.Millisecond, func() {
				for k := 0; k < burst; k++ {
					push()
				}
			})
		}
		// Between two instants anything is pushed or lapses at.
		const probe = 100*time.Millisecond + 500*time.Microsecond
		open := 0
		true0.After(probe, func() { open = d.Pending() })
		if n := e.RunChunk(2*time.Second, 10_000); n >= 10_000 {
			t.Fatalf("factor %v: 10000 events and still running at %v: a timer is spinning", factor, e.Now())
		}
		if len(lapsed) != pushes || d.Pending() != 0 {
			t.Fatalf("factor %v: %d pushed, %d lapsed, %d pending", factor, pushes, len(lapsed), d.Pending())
		}
		// Open at the probe is everything pushed in the scaled delay before it.
		want := 0
		for _, s := range lapsed {
			if s.pushed < probe && s.pushed+scaled > probe {
				want++
			}
		}
		if open != want || want < 10 {
			t.Fatalf("factor %v: %d records open at %v, want %d (and at least 10)", factor, open, probe, want)
		}
		for i := range d.buf {
			if d.buf[i].held != nil {
				t.Fatalf("factor %v: place %d of the ring still holds the list of lapsed record %d", factor, i, d.buf[i].id)
			}
		}
		if len(d.buf) > peak+peak/4+deadlinesRoom {
			t.Fatalf("factor %v: ring of %d places for at most %d open records", factor, len(d.buf), peak)
		}
	}
}

// A released queue holds nothing, and the fires still armed for what it held
// are no-ops.
func TestDeadlinesRelease(t *testing.T) {
	e, ctx := newNode()
	lapses := 0
	d := NewDeadlines(ctx, 10*time.Millisecond, func(stamped) { lapses++ })
	for i := 0; i < 9; i++ {
		d.Push(stamped{id: i})
	}
	e.Run(5 * time.Millisecond)
	d.Release()
	if d.Pending() != 0 || d.buf != nil {
		t.Fatalf("released queue: %d pending, ring of %d", d.Pending(), len(d.buf))
	}
	if n := e.RunAll(); n != 9 || lapses != 0 {
		t.Fatalf("after Release %d events ran and %d records lapsed, want the 9 armed fires and no lapse", n, lapses)
	}
}

func TestDeadlinesSteadyStateAllocatesNothing(t *testing.T) {
	e, ctx := newNode()
	d := NewDeadlines(ctx, 10*time.Millisecond, func(stamped) {})
	round := func() {
		for i := 0; i < 6; i++ {
			d.Push(stamped{id: i})
		}
		e.Run(e.Now() + 4*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("a steady-state round of 6 deadlines allocates %v objects, want 0", got)
	}
}
