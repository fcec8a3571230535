package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// newNode returns a one-shard engine and the scheduling context of node 0.
func newNode() (*Engine, Context) {
	e := NewEngine()
	return e, e.Domain(0)
}

func TestOrderingByTime(t *testing.T) {
	e, d := newNode()
	var order []int
	d.After(30*time.Millisecond, func() { order = append(order, 3) })
	d.After(10*time.Millisecond, func() { order = append(order, 1) })
	d.After(20*time.Millisecond, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

// Same-instant events of one scheduler — a node, or the harness — run in
// scheduling order.
func TestFIFOAtSameInstant(t *testing.T) {
	e, d := newNode()
	var node, harness []int
	for i := 0; i < 10; i++ {
		i := i
		d.After(5*time.Millisecond, func() { node = append(node, i) })
		e.After(5*time.Millisecond, func() { harness = append(harness, i) })
	}
	e.RunAll()
	for i := 0; i < 10; i++ {
		if len(node) != 10 || len(harness) != 10 || node[i] != i || harness[i] != i {
			t.Fatalf("same-instant events not FIFO: node %v harness %v", node, harness)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e, d := newNode()
	var nodeAt, harnessAt time.Duration
	d.After(42*time.Millisecond, func() { nodeAt = d.Now() })
	e.After(43*time.Millisecond, func() { harnessAt = e.Now() })
	e.RunAll()
	if nodeAt != 42*time.Millisecond {
		t.Fatalf("node Now inside event = %v, want 42ms", nodeAt)
	}
	if harnessAt != 43*time.Millisecond {
		t.Fatalf("engine Now inside harness event = %v, want 43ms", harnessAt)
	}
}

func TestNegativeDelayRunsNow(t *testing.T) {
	e, d := newNode()
	ran := false
	d.After(10*time.Millisecond, func() {
		d.After(-5*time.Millisecond, func() {
			ran = true
			if d.Now() != 10*time.Millisecond {
				t.Errorf("negative-delay event ran at %v", d.Now())
			}
		})
	})
	e.RunAll()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

func TestNestedScheduling(t *testing.T) {
	e, d := newNode()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			d.After(time.Millisecond, rec)
		}
	}
	d.After(0, rec)
	n := e.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if n != 100 {
		t.Fatalf("events executed = %d, want 100", n)
	}
}

func TestRunUntilBoundary(t *testing.T) {
	e, d := newNode()
	ran := map[int]bool{}
	d.After(10*time.Millisecond, func() { ran[10] = true })
	d.After(20*time.Millisecond, func() { ran[20] = true })
	d.After(30*time.Millisecond, func() { ran[30] = true })
	e.Run(20 * time.Millisecond)
	if !ran[10] || !ran[20] {
		t.Fatal("events at or before the boundary did not run")
	}
	if ran[30] {
		t.Fatal("event after the boundary ran")
	}
	if e.Now() != 20*time.Millisecond || d.Now() != 20*time.Millisecond {
		t.Fatalf("clocks = %v / %v, want 20ms", e.Now(), d.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	// Resuming picks the remaining event up.
	e.Run(time.Second)
	if !ran[30] {
		t.Fatal("resumed run did not execute the remaining event")
	}
}

func TestRunAdvancesClockToUntil(t *testing.T) {
	e, d := newNode()
	e.Run(time.Second)
	if e.Now() != time.Second || d.Now() != time.Second {
		t.Fatalf("empty Run should advance every clock to until; got %v / %v", e.Now(), d.Now())
	}
}

func TestStepAndCounters(t *testing.T) {
	e, d := newNode()
	d.After(time.Millisecond, func() {})
	e.After(2*time.Millisecond, func() {})
	if e.Pending() != 2 || e.Events() != 0 {
		t.Fatalf("before run: pending %d events %d, want 2 and 0", e.Pending(), e.Events())
	}
	if n := e.Run(time.Millisecond); n != 1 || e.Events() != 1 || e.Pending() != 1 {
		t.Fatalf("after the first event: ran %d events %d pending %d, want 1, 1, 1", n, e.Events(), e.Pending())
	}
	if n := e.RunAll(); n != 1 || e.Events() != 2 || e.Pending() != 0 {
		t.Fatalf("after the drain: ran %d events %d pending %d, want 1, 2, 0", n, e.Events(), e.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			d := time.Duration(i%7) * time.Millisecond
			e.Domain(i%3).After(d, func() { order = append(order, i) })
		}
		e.RunAll()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two identical runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Scheduling on behalf of a node that never got a Domain is a harness bug;
// it is reported with the node's id, not as a bare index error.
func TestUnregisteredNodePanicsByName(t *testing.T) {
	for name, schedule := range map[string]func(e *Engine){
		"Deliver":     func(e *Engine) { e.Bind(&countSink{}); e.Deliver(7, 0, time.Millisecond, nil, false) },
		"DeferGlobal": func(e *Engine) { e.DeferGlobal(7, func() {}) },
	} {
		t.Run(name, func(t *testing.T) {
			e, _ := newNode()
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "node 7") || !strings.Contains(msg, "attach the node first") {
					t.Fatalf("panic = %q, want one naming node 7 and saying to attach it first", msg)
				}
			}()
			schedule(e)
		})
	}
}

// An engine delivers to exactly one Sink: Deliver before Bind, a second Bind
// and a delivery to a negative node id (the callback marker's range) are
// harness bugs and panic where they are made, not when the event fires.
func TestSinkBinding(t *testing.T) {
	for name, misuse := range map[string]func(e *Engine){
		"Deliver before Bind": func(e *Engine) { e.Deliver(0, 0, time.Millisecond, nil, false) },
		"Bind twice":          func(e *Engine) { e.Bind(&countSink{}); e.Bind(&countSink{}) },
		"negative node id":    func(e *Engine) { e.Bind(&countSink{}); e.Deliver(0, -1, time.Millisecond, nil, false) },
	} {
		t.Run(name, func(t *testing.T) {
			e, _ := newNode()
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "sim: ") {
					t.Fatalf("panic = %q, want one from sim", msg)
				}
			}()
			misuse(e)
		})
	}
}

// returnSink logs, per shard, every delivery it gets and every return the
// engine reports.
type returnSink struct {
	e    *Engine
	logs [][]string
}

// Deliver logs a delivery whose payload is its place in its run: {i, k},
// the i-th of k.
func (s *returnSink) Deliver(from, to int32, payload any, more bool) {
	sh, at := s.e.ShardOf(int(to)), payload.([2]int)
	line := fmt.Sprintf("deliver %d→%d %d of %d", from, to, at[0]+1, at[1])
	if more != (at[0] < at[1]-1) {
		line = fmt.Sprintf("more=%v on %s", more, line)
	}
	s.logs[sh] = append(s.logs[sh], line)
}

func (s *returnSink) Returned(shard int) { s.logs[shard] = append(s.logs[shard], "return") }

// The engine tells its Sink when each node event returns — a callback, or a
// run of deliveries joined by more — on the shard that ran it, before that
// shard's next event; the global phase's events are no node's and report
// nothing. A run arrives whole and in order, though every node sends runs
// to the same destinations at the same instants.
func TestSinkHearsEveryNodeEventReturn(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e := NewSharded(shards, twin)
		sink := &returnSink{e: e, logs: make([][]string, shards)}
		e.Bind(sink)
		for id := 0; id < 4; id++ {
			d := e.Domain(id)
			for k := 1; k <= 3; k++ {
				d.After(time.Duration(k)*time.Millisecond, func() {
					sh := e.ShardOf(id)
					sink.logs[sh] = append(sink.logs[sh], fmt.Sprintf("callback %d", id))
					for _, to := range []int{(id + 1) % 4, (id + 2) % 4} {
						for i := range k {
							e.Deliver(int32(id), int32(to), twin, [2]int{i, k}, i < k-1)
						}
					}
				})
			}
		}
		e.After(2*time.Millisecond, func() {}) // a global event
		e.RunAll()
		for sh, log := range sink.logs {
			returns, want := 0, ""
			for i, line := range log {
				if want != "" && !strings.HasPrefix(line, want) {
					t.Fatalf("S=%d: shard %d logged %q after %q, want %q", shards, sh, line, log[i-1], want)
				}
				var from, to, n, k int
				switch {
				case line == "return":
					returns++
					want = ""
				case strings.HasPrefix(line, "callback"):
					want = "return"
				case strings.HasPrefix(line, "more"):
					t.Fatalf("S=%d: shard %d logged %q", shards, sh, line)
				default:
					fmt.Sscanf(line, "deliver %d→%d %d of %d", &from, &to, &n, &k)
					if want == "" && n != 1 {
						t.Fatalf("S=%d: shard %d logged %q, which begins no run", shards, sh, line)
					}
					want = "return"
					if n < k {
						want = fmt.Sprintf("deliver %d→%d %d of %d", from, to, n+1, k)
					}
				}
			}
			if want != "" || uint64(returns) != e.shards[sh].events {
				t.Fatalf("S=%d: shard %d heard %d returns for %d events, its log ending on %q", shards, sh, returns, e.shards[sh].events, log[len(log)-1])
			}
		}
	}
}
