package history

import (
	"fmt"
	"testing"

	"lifting/internal/msg"
	"lifting/internal/rng"
)

func TestNewLogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLog(0) did not panic")
		}
	}()
	NewLog(0)
}

func TestFanoutMultiset(t *testing.T) {
	l := NewLog(10)
	l.RecordProposalSent(1, 7, []msg.ChunkID{1, 2})
	l.RecordProposalSent(1, 8, []msg.ChunkID{1, 2})
	l.RecordProposalSent(2, 7, []msg.ChunkID{3})
	ms := l.FanoutMultiset(0)
	if ms.Len() != 3 {
		t.Fatalf("Fh size = %d, want 3", ms.Len())
	}
	if ms.Count(7) != 2 || ms.Count(8) != 1 {
		t.Fatalf("Fh counts wrong: 7→%d, 8→%d", ms.Count(7), ms.Count(8))
	}
	// Filtering by since excludes older periods.
	if got := l.FanoutMultiset(1).Len(); got != 1 {
		t.Fatalf("Fh since period 1 = %d entries, want 1", got)
	}
}

func TestFaninMultiset(t *testing.T) {
	l := NewLog(10)
	l.RecordServeReceived(3, 4, []msg.ChunkID{9})
	l.RecordServeReceived(3, 4, []msg.ChunkID{10})
	l.RecordServeReceived(4, 5, []msg.ChunkID{11})
	ms := l.FaninMultiset(0)
	if ms.Count(4) != 2 || ms.Count(5) != 1 {
		t.Fatalf("F'h counts wrong: %d, %d", ms.Count(4), ms.Count(5))
	}
}

func TestHasProposalFrom(t *testing.T) {
	l := NewLog(10)
	l.RecordProposalReceived(5, 2, []msg.ChunkID{1, 2, 3})
	l.RecordProposalReceived(6, 2, []msg.ChunkID{4})
	cases := []struct {
		from, to msg.Period
		chunks   []msg.ChunkID
		want     bool
	}{
		{5, 5, []msg.ChunkID{1, 3}, true},
		{5, 6, []msg.ChunkID{1, 4}, true}, // spans two periods
		{5, 5, []msg.ChunkID{4}, false},   // wrong period
		{5, 6, []msg.ChunkID{9}, false},   // never proposed
		{5, 6, nil, true},                 // empty set vacuously covered
	}
	for i, c := range cases {
		if got := l.hasProposalFrom(2, c.from, c.to, c.chunks); got != c.want {
			t.Errorf("case %d: hasProposalFrom = %v, want %v", i, got, c.want)
		}
	}
	if l.hasProposalFrom(3, 5, 6, []msg.ChunkID{1}) {
		t.Fatal("proposal attributed to the wrong sender")
	}
}

func TestPruneKeepsRetentionWindow(t *testing.T) {
	l := NewLog(3)
	for p := msg.Period(1); p <= 10; p++ {
		l.RecordProposalSent(p, msg.NodeID(p), []msg.ChunkID{msg.ChunkID(p)})
	}
	if l.PeriodsRetained() > 3 {
		t.Fatalf("retained %d periods, want <= 3", l.PeriodsRetained())
	}
	ms := l.FanoutMultiset(0)
	if ms.Count(1) != 0 {
		t.Fatal("pruned period still visible in Fh")
	}
	if ms.Count(10) != 1 || ms.Count(9) != 1 || ms.Count(8) != 1 {
		t.Fatal("recent periods missing from Fh")
	}
	if l.Newest() != 10 {
		t.Fatalf("Newest = %d, want 10", l.Newest())
	}
}

func TestProposalPeriods(t *testing.T) {
	l := NewLog(20)
	l.RecordProposalSent(1, 2, []msg.ChunkID{1})
	l.RecordProposalSent(1, 3, []msg.ChunkID{1})
	l.RecordProposalSent(4, 2, []msg.ChunkID{2})
	// Period 3 exists but has no proposals sent (only a serve received):
	l.RecordServeReceived(3, 9, []msg.ChunkID{5})
	if got := l.ProposalPeriods(0); got != 2 {
		t.Fatalf("ProposalPeriods = %d, want 2", got)
	}
}

func TestAskersFor(t *testing.T) {
	l := NewLog(10)
	l.RecordConfirmAsker(2, 7, 100)
	l.RecordConfirmAsker(2, 7, 101)
	l.RecordConfirmAsker(3, 7, 102)
	l.RecordConfirmAsker(2, 8, 103)
	askers := l.AskersFor(7, 0)
	if len(askers) != 3 {
		t.Fatalf("askers for suspect 7 = %v, want 3 entries", askers)
	}
	if got := l.AskersFor(8, 0); len(got) != 1 || got[0] != 103 {
		t.Fatalf("askers for suspect 8 = %v", got)
	}
}

func TestSnapshot(t *testing.T) {
	l := NewLog(50)
	for p := msg.Period(1); p <= 10; p++ {
		l.RecordProposalSent(p, 5, []msg.ChunkID{msg.ChunkID(p)})
		l.RecordServeReceived(p, 6, []msg.ChunkID{msg.ChunkID(p)})
	}
	resp := l.Snapshot(42, 5)
	if resp.Sender != 42 {
		t.Fatalf("snapshot sender = %d", resp.Sender)
	}
	if len(resp.Proposals) != 5 || len(resp.Serves) != 5 {
		t.Fatalf("snapshot sizes = %d/%d, want 5/5", len(resp.Proposals), len(resp.Serves))
	}
	for _, r := range resp.Proposals {
		if r.Period <= 5 {
			t.Fatalf("snapshot includes period %d beyond horizon", r.Period)
		}
	}
	// Horizon larger than recorded history returns everything.
	all := l.Snapshot(42, 100)
	if len(all.Proposals) != 10 {
		t.Fatalf("full snapshot has %d proposals, want 10", len(all.Proposals))
	}
}

func TestRecordCopiesChunks(t *testing.T) {
	l := NewLog(5)
	chunks := []msg.ChunkID{1, 2}
	l.RecordProposalSent(1, 2, chunks)
	chunks[0] = 99
	got := l.Proposals(0)
	if got[0].Chunks[0] != 1 {
		t.Fatal("log aliases caller's chunk slice")
	}
}

func TestWitnessRecordsAccumulate(t *testing.T) {
	l := NewLog(5)
	l.RecordProposalReceived(2, 9, []msg.ChunkID{1})
	l.RecordProposalReceived(2, 9, []msg.ChunkID{2})
	if !l.hasProposalFrom(9, 2, 2, []msg.ChunkID{1, 2}) {
		t.Fatal("accumulated proposals from the same sender/period not merged")
	}
}

// A sparse log must not answer from a period outside (newest−nh, newest],
// and a late record for such a period is dropped, not resurrected.
func TestSparseLogForgetsOldPeriods(t *testing.T) {
	l := NewLog(50)
	l.RecordProposalSent(1, 2, []msg.ChunkID{1})
	l.RecordServeReceived(1, 3, []msg.ChunkID{1})
	l.RecordProposalReceived(1, 4, []msg.ChunkID{1})
	l.RecordConfirmAsker(1, 4, 5)
	l.RecordProposalSent(100, 6, []msg.ChunkID{2})
	if l.HasRecentProposalFrom(4, []msg.ChunkID{1}) {
		t.Fatal("witness answer from a period 99 behind newest, nh = 50")
	}
	if got := l.Proposals(0); len(got) != 1 || got[0].Period != 100 {
		t.Fatalf("Proposals = %v, want only period 100", got)
	}
	if len(l.Serves(0)) != 0 || len(l.AskersFor(4, 0)) != 0 || l.PeriodsRetained() != 1 {
		t.Fatalf("period 1 still visible: %v %v, %d periods", l.Serves(0), l.AskersFor(4, 0), l.PeriodsRetained())
	}
	l.RecordProposalReceived(50, 4, []msg.ChunkID{1}) // newest−nh: outside
	l.RecordProposalReceived(51, 7, []msg.ChunkID{1}) // oldest retained
	if l.HasRecentProposalFrom(4, []msg.ChunkID{1}) || !l.HasRecentProposalFrom(7, []msg.ChunkID{1}) {
		t.Fatal("window edge wrong: period 50 must be dropped and 51 kept at newest 100, nh 50")
	}
	if l.Newest() != 100 || len(l.index) != 1 {
		t.Fatalf("Newest = %d, index holds %d senders; want 100, 1", l.Newest(), len(l.index))
	}
}

// TestDifferentialAgainstReference drives Log and the map-based reference
// model with the same seeded random operations — dense and skipped periods,
// jumps past the whole window, late records, records behind the window —
// and compares every query after every step, record order included.
func TestDifferentialAgainstReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(seed)
		nh := 1 + r.IntN(12)
		l, ref := NewLog(nh), newRefLog(nh)
		p := msg.Period(r.IntN(3))
		chunks := func() []msg.ChunkID {
			out := make([]msg.ChunkID, r.IntN(4))
			for i := range out {
				out[i] = msg.ChunkID(r.IntN(8))
			}
			return out
		}
		node := func() msg.NodeID { return msg.NodeID(r.IntN(5)) }
		for step := 0; step < 1500; step++ {
			switch x := r.IntN(24); {
			case x < 6:
				p++
			case x == 6:
				p += msg.Period(2 + r.IntN(2*nh))
			}
			at := p
			if back := msg.Period(r.IntN(nh + 2)); r.IntN(3) == 0 && back <= at {
				at -= back
			}
			a, b, c := node(), node(), chunks()
			switch r.IntN(4) {
			case 0:
				l.RecordProposalSent(at, a, c)
				ref.RecordProposalSent(at, a, c)
			case 1:
				l.RecordServeReceived(at, a, c)
				ref.RecordServeReceived(at, a, c)
			case 2:
				l.RecordProposalReceived(at, a, c)
				ref.RecordProposalReceived(at, a, c)
			case 3:
				l.RecordConfirmAsker(at, a, b)
				ref.RecordConfirmAsker(at, a, b)
			}

			since := msg.Period(0)
			if r.IntN(2) == 0 {
				since = p - min(p, msg.Period(r.IntN(nh+3)))
			}
			who, from, want := node(), since, chunks()
			same := func(what string, got, ref any) {
				t.Helper()
				if g, w := fmt.Sprint(got), fmt.Sprint(ref); g != w {
					t.Fatalf("seed %d step %d nh %d newest %d since %d: %s = %s, reference %s", seed, step, nh, p, since, what, g, w)
				}
			}
			same("Newest", l.Newest(), ref.newest)
			same("PeriodsRetained", l.PeriodsRetained(), len(ref.periods))
			same("HasRecentProposalFrom", l.HasRecentProposalFrom(who, want), ref.HasRecentProposalFrom(who, want))
			same("hasProposalFrom", l.hasProposalFrom(who, from, p-min(p, 1), want), ref.hasProposalFrom(who, from, p-min(p, 1), want))
			same("Proposals", l.Proposals(since), ref.Proposals(since))
			same("Serves", l.Serves(since), ref.Serves(since))
			same("AskersFor", l.AskersFor(who, since), ref.AskersFor(who, since))
			same("ProposalPeriods", l.ProposalPeriods(since), ref.ProposalPeriods(since))
			horizon := r.IntN(nh + 3)
			same("Snapshot", *l.Snapshot(9, horizon), *ref.Snapshot(9, horizon))
			fanout, fanin := l.FanoutMultiset(since), l.FaninMultiset(since)
			for id := msg.NodeID(0); id < 5; id++ {
				nout, nin := 0, 0
				for _, rec := range ref.Proposals(since) {
					if rec.Partner == id {
						nout++
					}
				}
				for _, rec := range ref.Serves(since) {
					if rec.Server == id {
						nin++
					}
				}
				same("FanoutMultiset", fanout.Count(id), nout)
				same("FaninMultiset", fanin.Count(id), nin)
			}
		}
	}
}

// streamPeriod records one gossip period at the benchmark workloads' shape:
// f = 7 partners offered one 8-chunk set, 7 servers, 7 proposers that are
// each new to the window, 7 confirm askers.
func streamPeriod(l *Log, p msg.Period) {
	ids := make([]msg.ChunkID, 8)
	for i := range ids {
		ids[i] = msg.ChunkID(8*int(p) + i)
	}
	streamPeriodWith(l, p, ids)
}

func streamPeriodWith(l *Log, p msg.Period, ids []msg.ChunkID) {
	for i := 0; i < 7; i++ {
		peer := msg.NodeID(7*int(p) + i)
		l.RecordServeReceived(p-1, peer, ids[i:i+1])
		l.RecordProposalSent(p, peer, ids)
		l.RecordProposalReceived(p, peer, ids)
		l.RecordConfirmAsker(p, peer, peer+1)
	}
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	const nh = 50
	l := NewLog(nh)
	p := msg.Period(1)
	for ; p <= 2*nh; p++ {
		streamPeriod(l, p)
	}
	ids := make([]msg.ChunkID, 8)
	if got := testing.AllocsPerRun(4*nh, func() {
		streamPeriodWith(l, p, ids)
		p++
	}); got != 0 {
		t.Errorf("a steady-state period of Record* calls allocates %v times, want 0", got)
	}
	sender, asked := msg.NodeID(7*int(p-1)), []msg.ChunkID{0, 0, 0}
	if !l.HasRecentProposalFrom(sender, asked) {
		t.Fatal("newest period's proposal not witnessed")
	}
	if got := testing.AllocsPerRun(100, func() { l.HasRecentProposalFrom(sender, asked) }); got != 0 {
		t.Errorf("HasRecentProposalFrom allocates %v times, want 0", got)
	}
}

// What senders can cost the owner is bounded by the window: after 10·nh
// periods of proposers that never repeat, the index holds exactly the ones
// seen in the last nh periods, and no emptied entry is left unused.
func TestIndexForgetsDepartedSenders(t *testing.T) {
	const nh = 20
	l := NewLog(nh)
	for p := msg.Period(1); p <= 10*nh; p++ {
		streamPeriod(l, p)
	}
	if len(l.index) != 7*nh || len(l.spare) != 0 {
		t.Fatalf("index holds %d senders and %d spare entries, want %d and 0", len(l.index), len(l.spare), 7*nh)
	}
	for sender, entries := range l.index {
		if len(entries) != 1 || len(entries[0].chunks) != 8 {
			t.Fatalf("sender %d has index entries %v, want one proposal of 8 chunk ids", sender, entries)
		}
		if p := entries[0].period; p <= 9*nh || int(sender)/7 != int(p) {
			t.Fatalf("sender %d indexed under period %d, outside the window (%d, %d]", sender, p, 9*nh, 10*nh)
		}
	}
}

// A snapshot may be in flight in an AuditResp while the log moves on: slot
// and arena reuse must not reach into records already handed out.
func TestSnapshotSurvivesSlotReuse(t *testing.T) {
	const nh = 10
	l := NewLog(nh)
	p := msg.Period(1)
	for ; p <= 2*nh; p++ {
		streamPeriod(l, p)
	}
	snap, askers := l.Snapshot(1, nh), l.AskersFor(7*nh+7, 0)
	want := fmt.Sprint(*snap, askers)
	if len(snap.Proposals) != 7*nh || len(snap.Serves) != 7*(nh-1) || len(askers) != 1 {
		t.Fatalf("snapshot has %d proposals, %d serves, %d askers", len(snap.Proposals), len(snap.Serves), len(askers))
	}
	for ; p <= 4*nh; p++ {
		streamPeriod(l, p)
	}
	if fmt.Sprint(*snap, askers) != want {
		t.Fatal("snapshot changed under 2·nh further periods")
	}
}

// BenchmarkWitnessConfirm is the witness duty at workload shape: nh = 50,
// 7 proposers a period, 8 chunk ids a proposal, every poll about a sender
// inside the window and answered yes.
func BenchmarkWitnessConfirm(b *testing.B) {
	const nh = 50
	l := NewLog(nh)
	for p := msg.Period(1); p <= 2*nh; p++ {
		streamPeriod(l, p)
	}
	asked := make([][]msg.ChunkID, 7*nh)
	for i := range asked {
		p := nh + 1 + i/7
		asked[i] = make([]msg.ChunkID, 8)
		for j := range asked[i] {
			asked[i][j] = msg.ChunkID(8*p + j)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(asked)
		if !l.HasRecentProposalFrom(msg.NodeID(7*nh+7+k), asked[k]) {
			b.Fatal("retained proposal not confirmed")
		}
	}
}
