package history

import (
	"fmt"
	"reflect"
	"slices"
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

// Fh, the fanout multiset an audit checks, is the partners of Proposals(since):
// one record per partner of each propose phase in (since, newest].
func TestFanoutMultiset(t *testing.T) {
	l := NewLog(10)
	l.RecordProposalsSent(1, []msg.NodeID{7, 8}, []msg.ChunkID{1, 2})
	l.RecordProposalsSent(2, []msg.NodeID{7}, []msg.ChunkID{3})
	fh := make(map[msg.NodeID]int)
	for _, r := range l.Proposals(0) {
		fh[r.Partner]++
	}
	if !reflect.DeepEqual(fh, map[msg.NodeID]int{7: 2, 8: 1}) {
		t.Fatalf("Fh = %v, want 7→2, 8→1", fh)
	}
	// Filtering by since excludes older periods.
	if got := len(l.Proposals(1)); got != 1 {
		t.Fatalf("Fh since period 1 = %d entries, want 1", got)
	}
}

// F'h, the fanin multiset, is the servers of Serves(since).
func TestFaninMultiset(t *testing.T) {
	l := NewLog(10)
	l.RecordServeReceived(3, 4, []msg.ChunkID{9})
	l.RecordServeReceived(3, 4, []msg.ChunkID{10})
	l.RecordServeReceived(4, 5, []msg.ChunkID{11})
	fh := make(map[msg.NodeID]int)
	for _, r := range l.Serves(0) {
		fh[r.Server]++
	}
	if !reflect.DeepEqual(fh, map[msg.NodeID]int{4: 2, 5: 1}) {
		t.Fatalf("F'h = %v, want 4→2, 5→1", fh)
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
		l.RecordProposalsSent(p, []msg.NodeID{msg.NodeID(p)}, []msg.ChunkID{msg.ChunkID(p)})
	}
	if got := l.Proposals(0); len(got) != 3 || got[0].Period != 8 {
		t.Fatalf("retained %v, want the proposals of periods 8, 9 and 10", got)
	}
	fh := make(map[msg.NodeID]int)
	for _, r := range l.Proposals(0) {
		fh[r.Partner]++
	}
	if !reflect.DeepEqual(fh, map[msg.NodeID]int{8: 1, 9: 1, 10: 1}) {
		t.Fatalf("Fh = %v, want only the partners of periods 8, 9 and 10", fh)
	}
	if l.Newest() != 10 {
		t.Fatalf("Newest = %d, want 10", l.Newest())
	}
}

// The gossip-period check counts the distinct periods of the proposals a
// snapshot carries: a period with only a serve received adds none.
func TestProposalPeriods(t *testing.T) {
	l := NewLog(20)
	l.RecordProposalsSent(1, []msg.NodeID{2, 3}, []msg.ChunkID{1})
	l.RecordProposalsSent(4, []msg.NodeID{2}, []msg.ChunkID{2})
	l.RecordServeReceived(3, 9, []msg.ChunkID{5})
	periods := make(map[msg.Period]bool)
	for _, r := range l.Snapshot(1, 20).Proposals {
		periods[r.Period] = true
	}
	if !reflect.DeepEqual(periods, map[msg.Period]bool{1: true, 4: true}) {
		t.Fatalf("proposal periods = %v, want 1 and 4", periods)
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
		l.RecordProposalsSent(p, []msg.NodeID{5}, []msg.ChunkID{msg.ChunkID(p)})
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

// The log keeps the lists it is handed and hands the same lists out: nothing
// is copied on the way in or on the way out (what makes that safe is the
// callers' side of the contract, see the package comment).
func TestRecordKeepsLists(t *testing.T) {
	l := NewLog(5)
	partners, chunks := []msg.NodeID{2, 3}, []msg.ChunkID{1, 2}
	l.RecordProposalsSent(1, partners, chunks)
	l.RecordServeReceived(1, 4, chunks[1:])
	snap := l.Snapshot(9, 5)
	if len(snap.Proposals) != 2 || len(snap.Serves) != 1 {
		t.Fatalf("snapshot = %v", *snap)
	}
	for _, r := range snap.Proposals {
		if &r.Chunks[0] != &chunks[0] {
			t.Fatal("a proposal record holds a copy of the advertised list")
		}
	}
	if &snap.Serves[0].Chunks[0] != &chunks[1] {
		t.Fatal("a serve record holds a copy of its chunk list")
	}
	// A snapshot is the reader's own: rewriting a record of it, as a forger
	// does, does not reach the log.
	snap.Proposals[0].Partner = 77
	if got := l.Proposals(0)[0].Partner; got != 2 {
		t.Fatalf("partner read back as %d after a snapshot was rewritten, want 2", got)
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
	l.RecordProposalsSent(1, []msg.NodeID{2}, []msg.ChunkID{1})
	l.RecordServeReceived(1, 3, []msg.ChunkID{1})
	l.RecordProposalReceived(1, 4, []msg.ChunkID{1})
	l.RecordConfirmAsker(1, 4, 5)
	l.RecordProposalsSent(100, []msg.NodeID{6}, []msg.ChunkID{2})
	if l.HasRecentProposalFrom(4, []msg.ChunkID{1}) {
		t.Fatal("witness answer from a period 99 behind newest, nh = 50")
	}
	if got := l.Proposals(0); len(got) != 1 || got[0].Period != 100 {
		t.Fatalf("Proposals = %v, want only period 100", got)
	}
	if len(l.Serves(0)) != 0 || len(l.AskersFor(4, 0)) != 0 || l.received.n != 0 {
		t.Fatalf("period 1 still visible: %v %v, %d received proposals", l.Serves(0), l.AskersFor(4, 0), l.received.n)
	}
	l.RecordProposalReceived(50, 4, []msg.ChunkID{1}) // newest−nh: outside
	l.RecordProposalReceived(51, 7, []msg.ChunkID{1}) // oldest retained
	if l.HasRecentProposalFrom(4, []msg.ChunkID{1}) || !l.HasRecentProposalFrom(7, []msg.ChunkID{1}) {
		t.Fatal("window edge wrong: period 50 must be dropped and 51 kept at newest 100, nh 50")
	}
	if l.Newest() != 100 || l.received.n != 1 || l.senders.n != 1 {
		t.Fatalf("Newest = %d, %d received proposals from %d senders; want 100, 1, 1", l.Newest(), l.received.n, l.senders.n)
	}
}

// TestDifferentialAgainstReference drives Log and the map-based reference
// model with the same seeded random operations — dense and skipped periods,
// jumps past the whole window, late records, records behind the window,
// propose phases of one and two partners, witness questions of up to three
// chunks and of more than 64 — and compares every query after every step,
// record order included.
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
				partners := []msg.NodeID{a, b}[:1+b%2]
				l.RecordProposalsSent(at, partners, c)
				for _, partner := range partners {
					ref.RecordProposalSent(at, partner, c)
				}
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
			checkQueues(t, l)

			since := msg.Period(0)
			if r.IntN(2) == 0 {
				since = p - min(p, msg.Period(r.IntN(nh+3)))
			}
			who, from, want := node(), since, chunks()
			if len(want) > 0 && r.IntN(8) == 0 {
				for len(want) <= 64 {
					want = append(want, want...)
				}
			}
			same := func(what string, got, ref any) {
				t.Helper()
				if g, w := fmt.Sprint(got), fmt.Sprint(ref); g != w {
					t.Fatalf("seed %d step %d nh %d newest %d since %d: %s = %s, reference %s", seed, step, nh, p, since, what, g, w)
				}
			}
			same("Newest", l.Newest(), ref.newest)
			same("HasRecentProposalFrom", l.HasRecentProposalFrom(who, want), ref.HasRecentProposalFrom(who, want))
			same("hasProposalFrom", l.hasProposalFrom(who, from, p-min(p, 1), want), ref.hasProposalFrom(who, from, p-min(p, 1), want))
			same("Proposals", l.Proposals(since), ref.Proposals(since))
			same("Serves", l.Serves(since), ref.Serves(since))
			same("AskersFor", l.AskersFor(who, since), ref.AskersFor(who, since))
			horizon := r.IntN(nh + 3)
			same("Snapshot", *l.Snapshot(9, horizon), *ref.Snapshot(9, horizon))
		}
	}
}

// checkQueues fails unless every queue of l is in period order inside the
// window with nothing but zero values in the places it does not hold, and
// the sender ring follows the received proposals place for place.
func checkQueues(t *testing.T, l *Log) {
	t.Helper()
	checkQueue(t, l, "sent", &l.sent)
	checkQueue(t, l, "received", &l.received)
	checkQueue(t, l, "serves", &l.serves)
	checkQueue(t, l, "askers", &l.askers)
	if s, r := &l.senders, &l.received; s.n != r.n || s.head != r.head || len(s.buf) != len(r.buf) {
		t.Fatalf("senders ring (head %d, n %d of %d) out of step with received (head %d, n %d of %d)", s.head, s.n, len(s.buf), r.head, r.n, len(r.buf))
	}
	checkVacated(t, "senders", &l.senders)
}

func checkQueue[T record](t *testing.T, l *Log, name string, q *queue[T]) {
	t.Helper()
	last := l.oldest()
	for i := 0; i < q.n; i++ {
		p := (*q.at(i)).when()
		if p < last || p > l.newest {
			t.Fatalf("%s: place %d holds period %d after %d, window (%d, %d]", name, i, p, last, l.newest-l.retention, l.newest)
		}
		last = p
	}
	checkVacated(t, name, q)
}

func checkVacated[T any](t *testing.T, name string, q *queue[T]) {
	t.Helper()
	for i := q.n; i < len(q.buf); i++ {
		if !reflect.ValueOf(q.at(i)).Elem().IsZero() {
			t.Fatalf("%s: place %d of %d, outside the %d held, is %v: a vacated place must be zeroed", name, i, len(q.buf), q.n, *q.at(i))
		}
	}
}

// A record that arrives after records of later periods — gossip never
// produces one, its records are monotone in period queue by queue — takes its
// period's place behind the records already there, or is dropped if its
// period has left the window.
func TestLateRecordsKeepPeriodOrder(t *testing.T) {
	const nh = 5
	for _, tc := range []struct {
		name string
		jump msg.Period   // newest is moved here first (0: stays at 10)
		late msg.Period   // the period of the late records
		want []msg.Period // Proposals(0) by period afterwards
	}{
		{"inside the window", 0, 8, []msg.Period{6, 7, 8, 8, 9, 10}},
		{"at its oldest edge", 0, 6, []msg.Period{6, 6, 7, 8, 9, 10}},
		{"behind it", 0, 5, []msg.Period{6, 7, 8, 9, 10}},
		{"inside it after a jump past the whole window", 30, 27, []msg.Period{27, 30}},
		{"behind it after a jump past the whole window", 30, 10, []msg.Period{30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, ref := NewLog(nh), newRefLog(nh)
			record := func(p msg.Period, peer msg.NodeID) {
				ids := []msg.ChunkID{msg.ChunkID(peer)}
				l.RecordProposalsSent(p, []msg.NodeID{peer}, ids)
				ref.RecordProposalSent(p, peer, ids)
				l.RecordServeReceived(p, peer, ids)
				ref.RecordServeReceived(p, peer, ids)
				l.RecordProposalReceived(p, peer, ids)
				ref.RecordProposalReceived(p, peer, ids)
				l.RecordConfirmAsker(p, 1, peer)
				ref.RecordConfirmAsker(p, 1, peer)
				checkQueues(t, l)
			}
			for p := msg.Period(1); p <= 10; p++ {
				record(p, msg.NodeID(p))
			}
			if tc.jump != 0 {
				record(tc.jump, msg.NodeID(tc.jump))
			}
			record(tc.late, 99)
			var got []msg.Period
			for _, r := range l.Proposals(0) {
				got = append(got, r.Period)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("proposals are of periods %v, want %v", got, tc.want)
			}
			if got, want := l.HasRecentProposalFrom(99, []msg.ChunkID{99}), slices.Contains(tc.want, tc.late); got != want {
				t.Errorf("late proposal witnessed = %v, want %v", got, want)
			}
			if got, want := fmt.Sprint(l.Proposals(0), l.Serves(0), l.AskersFor(1, 0)), fmt.Sprint(ref.Proposals(0), ref.Serves(0), ref.AskersFor(1, 0)); got != want {
				t.Errorf("Proposals, Serves, AskersFor =\n%s, reference\n%s", got, want)
			}
		})
	}
}

// streamPeriod records one gossip period at the benchmark workloads' shape,
// in the order gossip does: 7 servers of the period before, one propose
// phase of f = 7 partners offered one 8-chunk set, 7 proposers that are each
// new to the window, 7 confirm askers.
func streamPeriod(l *Log, p msg.Period) {
	ids := make([]msg.ChunkID, 8)
	for i := range ids {
		ids[i] = msg.ChunkID(8*int(p) + i)
	}
	partners := make([]msg.NodeID, 7)
	for i := range partners {
		partners[i] = msg.NodeID(7*int(p) + i)
	}
	streamPeriodWith(l, p, partners, ids)
}

func streamPeriodWith(l *Log, p msg.Period, partners []msg.NodeID, ids []msg.ChunkID) {
	for i := 0; i < 7; i++ {
		l.RecordServeReceived(p-1, msg.NodeID(7*int(p)+i), ids[i:i+1])
	}
	l.RecordProposalsSent(p, partners, ids)
	for i := 0; i < 7; i++ {
		peer := msg.NodeID(7*int(p) + i)
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
	partners, ids := make([]msg.NodeID, 7), make([]msg.ChunkID, 8)
	if got := testing.AllocsPerRun(4*nh, func() {
		streamPeriodWith(l, p, partners, ids)
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

// What neighbours can cost the owner is bounded by the window: after 10·nh
// periods of proposers, servers and askers that never repeat, each queue
// holds exactly the records of the last nh periods, in a ring no larger than
// twice that, and every place a departed record held is zeroed — nothing
// pins a list whose period has left.
func TestQueuesHoldExactlyTheWindow(t *testing.T) {
	const nh = 20
	l := NewLog(nh)
	for p := msg.Period(1); p <= 10*nh; p++ {
		streamPeriod(l, p)
	}
	checkQueues(t, l)
	for _, q := range []struct {
		name             string
		held, size, want int
	}{
		{"sent", l.sent.n, len(l.sent.buf), nh},
		{"received", l.received.n, len(l.received.buf), 7 * nh},
		{"senders", l.senders.n, len(l.senders.buf), 7 * nh},
		{"serves", l.serves.n, len(l.serves.buf), 7 * (nh - 1)}, // the newest period's are recorded by the next
		{"askers", l.askers.n, len(l.askers.buf), 7 * nh},
	} {
		if q.held != q.want || q.size > 2*q.want+8 {
			t.Errorf("%s holds %d records in a ring of %d, want %d in at most %d", q.name, q.held, q.size, q.want, 2*q.want+8)
		}
	}
	if got := l.Proposals(0); len(got) != 7*nh || got[0].Period != 9*nh+1 {
		t.Errorf("%d proposals from period %d on, want %d from %d on", len(got), got[0].Period, 7*nh, 9*nh+1)
	}
	if got := l.Serves(0); len(got) != 7*(nh-1) || got[0].Period != 9*nh+1 {
		t.Errorf("%d serves from period %d on, want %d from %d on", len(got), got[0].Period, 7*(nh-1), 9*nh+1)
	}
	for p := msg.Period(9 * nh); p <= 10*nh; p++ {
		sender, ids := msg.NodeID(7*p), []msg.ChunkID{msg.ChunkID(8 * p), msg.ChunkID(8*p + 7)}
		if got, want := l.HasRecentProposalFrom(sender, ids), p > 9*nh; got != want {
			t.Errorf("proposal of period %d witnessed = %v, want %v (window (%d, %d])", p, got, want, 9*nh, 10*nh)
		}
		if got, want := len(l.AskersFor(sender, 0)), 1; (got == want) != (p > 9*nh) {
			t.Errorf("%d askers about the proposer of period %d, window (%d, %d]", got, p, 9*nh, 10*nh)
		}
	}
}

// A snapshot may be in flight in an AuditResp while the log moves on: what
// the window drops and what the rings reuse must not reach into records
// already handed out.
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
// 7 proposers a period, 8 chunk ids a proposal. hit polls about senders
// inside the window and is answered yes; miss polls about senders with
// nothing in the window, the whole scan for nothing; long is the hostile
// question, 65 535 ids that a retained proposal does cover.
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
	long := make([]msg.ChunkID, 65535)
	for j := range long {
		long[j] = asked[0][j%8]
	}
	for _, bc := range []struct {
		name   string
		sender func(k int) msg.NodeID
		asked  func(k int) []msg.ChunkID
		want   bool
	}{
		{"hit", func(k int) msg.NodeID { return msg.NodeID(7*nh + 7 + k) }, func(k int) []msg.ChunkID { return asked[k] }, true},
		{"miss", func(k int) msg.NodeID { return msg.NodeID(k) }, func(k int) []msg.ChunkID { return asked[k] }, false},
		{"long", func(int) msg.NodeID { return 7*nh + 7 }, func(int) []msg.ChunkID { return long }, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % len(asked)
				if l.HasRecentProposalFrom(bc.sender(k), bc.asked(k)) != bc.want {
					b.Fatalf("HasRecentProposalFrom = %v, want %v", !bc.want, bc.want)
				}
			}
		})
	}
}
