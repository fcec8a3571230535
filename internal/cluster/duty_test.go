package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	lrt "lifting/internal/runtime"
)

// The period duty (periodDuty): every LiFTinG node flushes its own blame
// batch on its own execution context, at the period clock's boundaries,
// after that instant's harness tick.

// TestDutyFlushesClosingPeriodsAndResumesAfterRestart runs a lossy honest
// cluster whose batches close every third period, with one node crashed
// and restarted in mid-period, on both runtimes:
//
//   - Blames leave only in periods that close a batch: the Blames sent
//     between the snapshot of period p and that of p+1 are those the duties
//     flushed at p's boundary, and they are none unless flushDue(p).
//   - The crashed node's duty ends with it; the restarted node's duty starts
//     at the next boundary and keeps step with the period clock, as every
//     other node's does: at the end, each duty is due at the boundary after
//     the cluster's period.
//
// On the sim the restarted duty is also caught between the restart and the
// next boundary, and its first batch is seen to leave there.
func TestDutyFlushesClosingPeriodsAndResumesAfterRestart(t *testing.T) {
	const n, victim, every = 12, msg.NodeID(5), 3
	for _, backend := range []lrt.Kind{lrt.KindSim, lrt.KindUDP} {
		t.Run(backend.String(), func(t *testing.T) {
			opts := fastOptions(backend, n)
			const tg = 100 * time.Millisecond // this test's own period
			opts.Gossip.Period, opts.Core.Period = tg, tg
			opts.NetDefaults = net.Uniform(0.05, 2*time.Millisecond)
			opts.Rep.FlushEvery = every
			crashAt, restartAt := 5*tg/2, 11*tg/2
			opts.Chaos = &chaos.Plan{Events: []chaos.Event{
				{At: crashAt, Kind: chaos.Crash, Nodes: []msg.NodeID{victim}},
				{At: restartAt, Kind: chaos.Restart, Nodes: []msg.NodeID{victim}},
			}}
			var c *Cluster
			sent := map[msg.Period]uint64{}
			opts.OnPeriodSnapshot = func(p msg.Period, _ metrics.Snapshot) {
				sent[p] = c.Collector.SentMsgs(msg.KindBlame)
			}
			c = New(opts)
			old := c.duties[victim]
			c.Start()
			c.StartStream(12 * tg)
			if backend == lrt.KindSim {
				c.After(restartAt+tg/5, func() {
					d := c.duties[victim]
					if d == old || d.p != c.Period()+1 {
						t.Errorf("just after the restart the victim's duty is the old one (%v) or due at period %d; the clock is at %d",
							d == old, d.p, c.Period())
					}
					d.client.Blame(3, 1, msg.ReasonPartialServe)
				})
				c.After(restartAt+4*tg/5, func() {
					if b := c.duties[victim].client.Pending(3); b != 0 {
						t.Errorf("the restarted node still holds %v blame past its first boundary", b)
					}
				})
			}
			c.Run(25*tg/2 + 2*tg)
			c.Close()

			last := c.Period()
			flushed := 0
			for p := msg.Period(1); p < last; p++ {
				d := sent[p+1] - sent[p]
				if d != 0 && !flushDue(opts.Rep, p) {
					t.Errorf("%d Blames left at the boundary of period %d, which closes no batch of %d", d, p, every)
				}
				if d != 0 {
					flushed++
				}
			}
			if flushed == 0 {
				t.Fatalf("no batch left in %d periods: the run blames nothing", last)
			}
			if want := msg.Period(3); old.p != want {
				t.Errorf("the crashed node's old duty is due at period %d, want %d: it ran past the crash", old.p, want)
			}
			for id := range msg.NodeID(n) {
				if d := c.duties[id]; d.p != last+1 {
					t.Errorf("node %d's duty is due at period %d with the clock at %d", id, d.p, last)
				}
			}
		})
	}
}

// TestDutySkipsNodeExpelledAtBoundary expels a node by the harness tick at a
// boundary where every batch closes: the tick runs first, so the node is
// stopped before its duty fires and sends nothing there, while a live
// node's batch leaves. The victim is pushed under η by a Blame its managers
// take within its grace periods, so the tick that ends them is the one that
// expels it.
func TestDutySkipsNodeExpelledAtBoundary(t *testing.T) {
	const victim, control, target = msg.NodeID(9), msg.NodeID(10), msg.NodeID(3)
	const grace = 6
	boundary := grace * tg
	for _, shards := range []int{1, 2} {
		opts := baseOptions(30, 0)
		opts.Shards = shards
		opts.ExpelOnDetection = true
		opts.Rep.GracePeriods = grace
		c := New(opts)
		c.Start()
		c.After(boundary-tg/2, func() {
			for _, m := range c.Dir.Managers(victim, opts.Rep.M) {
				c.Manager(m).HandleMessage(1, &msg.Blame{Sender: 1, Target: victim, Value: 1000})
			}
			for _, id := range []msg.NodeID{victim, control} {
				c.duties[id].client.Blame(target, 1, msg.ReasonPartialServe)
			}
		})
		c.Run(boundary + tg/2)
		if c.ShardCount() != shards {
			t.Fatalf("the run has %d shards, want %d", c.ShardCount(), shards)
		}
		if at, ok := c.Expelled[victim]; !ok || at != boundary {
			t.Fatalf("shards %d: node %d expelled at %v (%v), want by the tick at %v", shards, victim, at, ok, boundary)
		}
		if b := c.duties[control].client.Pending(target); b != 0 {
			t.Fatalf("shards %d: live node %d still holds %v blame: the boundary closed no batch", shards, control, b)
		}
		if b := c.duties[victim].client.Pending(target); b != 1 {
			t.Fatalf("shards %d: the expelled node holds %v blame, want its unsent 1: it flushed at the boundary that expelled it", shards, b)
		}
	}
}

// TestDutyPeriodAllocatesNothing runs the period clock of a LiFTinG cluster
// whose nodes do nothing else: the harness tick (period counter, every
// manager's tick in id order, over a reused scratch) and every node's duty
// (stop check, batch check, an empty flush, the re-arm with the func value
// made at build). Once warm, a period allocates nothing, on the shard
// goroutines too.
func TestDutyPeriodAllocatesNothing(t *testing.T) {
	opts := baseOptions(64, 0)
	opts.Shards = 2
	c := New(opts)
	c.scheduleTick()
	for id := range msg.NodeID(opts.N) {
		d := c.duties[id]
		d.p = 1
		d.ctx.After(c.nextTick-c.RT.Now(), d.fire)
	}
	period := func() { c.Run(c.RT.Now() + tg) }
	for range 4 {
		period()
	}
	before := c.duties[7].p
	sites := siteAllocs(t, 20, period)
	if got := c.duties[7].p - before; got != 20 {
		t.Fatalf("node 7's duty fired %d times in 20 periods", got)
	}
	if len(sites) != 0 {
		t.Fatalf("20 periods of duties and ticks allocate, want nothing; by site: %v", sites)
	}
}

// siteAllocs runs f runs times with every allocation profiled
// (runtime.MemProfileRate = 1) and returns how many objects the runs
// allocated in all, by site: the innermost frame of this module on the
// allocating stack, shard goroutines' stacks included. Stacks that never
// pass through the module — a GC worker's, the profiler's — are not counted,
// so the runtime's own allocations cannot decide a test. (The sim package's
// tests hold the same helper, with the runtime caches it leaves out.)
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
// one of the runtime's own caches from inside it (a type-assertion cache, or
// the wait record of the sharded windows' join; see the sim package's copy).
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
