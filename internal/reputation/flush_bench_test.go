package reputation

import (
	"testing"

	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
)

// discardNet swallows sends: the flush benchmarks measure the client's own
// work (batch walk, manager lookup, message construction), not a backend.
type discardNet struct{ sends int }

func (d *discardNet) Send(from, to msg.NodeID, m msg.Message, mode net.Mode) { d.sends++ }

// flushTargets is the per-period blamed-target batch the benchmark drives:
// large enough to amortize the fixed per-flush cost, small compared to M·N.
const flushTargets = 64

// BenchmarkClientFlush measures one blame-accumulate-and-flush cycle against
// a 10k-node membership with M=25 managers per target — the blame hot path
// of every verifier every FlushEvery periods. Guards allocations/op:
// the Blame value is hoisted out of the per-manager loop (one allocation per
// blamed target, not per manager) and the pending map is cleared in place,
// so allocs/op stays proportional to blamed targets, not to M·targets.
func BenchmarkClientFlush(b *testing.B) {
	dir := membership.Sequential(10000)
	nw := &discardNet{}
	client := NewClient(0, Config{M: 25}, nw, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < flushTargets; t++ {
			client.Blame(msg.NodeID(t+1), 1.5, msg.ReasonNoAck)
		}
		client.Flush()
	}
	b.StopTimer()
	b.ReportMetric(float64(nw.sends)/float64(b.N), "sends/op")
	b.ReportMetric(float64(flushTargets), "targets/op")
}

// TestFlushAllocsBounded is the regression guard behind BenchmarkClientFlush:
// a full accumulate+flush cycle over flushTargets targets must allocate one
// block of Blames every msg.SendBlock targets (NewClient's set of its own is
// a one-node set, whose blocks are msg.SendBlock long) — the pending batches
// live in the map by value, and one carved Blame serves all M sends of a
// target — not
// one per manager send, not one per target, and not a fresh pending map per
// flush.
func TestFlushAllocsBounded(t *testing.T) {
	dir := membership.Sequential(10000)
	client := NewClient(0, Config{M: 25}, &discardNet{}, dir)
	// Warm: the order slice and the pending map reach steady-state capacity,
	// and the directory's manager cache fills for the blamed targets.
	for i := 0; i < 3; i++ {
		for n := 0; n < flushTargets; n++ {
			client.Blame(msg.NodeID(n+1), 1, msg.ReasonNoAck)
		}
		client.Flush()
	}
	avg := testing.AllocsPerRun(50, func() {
		for n := 0; n < flushTargets; n++ {
			client.Blame(msg.NodeID(n+1), 1, msg.ReasonNoAck)
		}
		client.Flush()
	})
	// flushTargets is a multiple of msg.SendBlock, so every run refills the
	// block the same number of times. The code before carving allocated two
	// objects per target, and before that M=25 Blame values per target
	// (~1664 total).
	if want := float64(flushTargets / msg.SendBlock); avg != want {
		t.Fatalf("accumulate+flush of %d targets allocates %.0f/run, want %.0f", flushTargets, avg, want)
	}
}
