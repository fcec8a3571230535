package reputation

import (
	"math"
	"slices"
	"testing"
	"time"

	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

func TestBoardScoreFormula(t *testing.T) {
	// s = b̃ − Σb/r (Equation 6 rewritten). With b̃=10, 3 periods, total
	// blame 45: s = 10 − 15 = −5.
	b := NewBoard(10)
	b.Join(1)
	b.SetPeriod(3)
	b.AddBlame(1, 45)
	if got := b.Score(1); math.Abs(got-(-5)) > 1e-12 {
		t.Fatalf("score = %v, want -5", got)
	}
}

func TestBoardHonestAveragesZero(t *testing.T) {
	// A node blamed exactly b̃ per period scores exactly 0.
	b := NewBoard(72.95)
	b.Join(1)
	for p := msg.Period(1); p <= 50; p++ {
		b.SetPeriod(p)
		b.AddBlame(1, 72.95)
	}
	if got := b.Score(1); math.Abs(got) > 1e-9 {
		t.Fatalf("score = %v, want 0", got)
	}
}

func TestBoardUntracked(t *testing.T) {
	b := NewBoard(5)
	if b.Score(9) != 0 || b.Tracked(9) || b.Periods(9) != 0 {
		t.Fatal("untracked node should report zeros")
	}
}

func TestBoardMinPeriodsOne(t *testing.T) {
	b := NewBoard(0)
	b.Join(1)
	b.AddBlame(1, 7)
	// Same period as join: r clamps to 1.
	if got := b.Score(1); math.Abs(got-(-7)) > 1e-12 {
		t.Fatalf("score = %v, want -7", got)
	}
}

func TestBoardScoreRecovers(t *testing.T) {
	// A node blamed heavily once recovers as r grows (σ(s) ~ 1/√r in the
	// analysis; here the mean effect).
	b := NewBoard(0)
	b.Join(1)
	b.SetPeriod(1)
	b.AddBlame(1, 100)
	s1 := b.Score(1)
	b.SetPeriod(100)
	s100 := b.Score(1)
	if s100 <= s1 {
		t.Fatalf("score did not recover: %v then %v", s1, s100)
	}
}

func TestBoardExpelIdempotent(t *testing.T) {
	b := NewBoard(0)
	if !b.MarkExpelled(3, msg.ReasonAuditEntropy) {
		t.Fatal("first MarkExpelled returned false")
	}
	if b.MarkExpelled(3, msg.ReasonAuditEntropy) {
		t.Fatal("second MarkExpelled returned true")
	}
	if !b.Expelled(3) {
		t.Fatal("node not expelled")
	}
	e, ok := b.Entry(3)
	if !ok || e.Reason != msg.ReasonAuditEntropy {
		t.Fatal("entry reason wrong")
	}
}

func TestMinVoteScore(t *testing.T) {
	s, e := MinVoteScore([]float64{3, -2, 7}, []bool{false, false, false})
	if s != -2 || e {
		t.Fatalf("min-vote = %v/%v, want -2/false", s, e)
	}
	// Colluding managers inflating their copies cannot raise the minimum.
	s, _ = MinVoteScore([]float64{-11, 1000, 1000}, nil)
	if s != -11 {
		t.Fatalf("inflated copies changed the min: %v", s)
	}
	_, e = MinVoteScore([]float64{0}, []bool{true})
	if !e {
		t.Fatal("expelled flag not propagated")
	}
	s, e = MinVoteScore(nil, nil)
	if s != 0 || e {
		t.Fatal("empty vote should be zero")
	}
}

// managed builds a small message-driven reputation world: n nodes, each
// hosting a Manager, plus a Client at node 0.
func managed(t *testing.T, n int, cfg Config, loss float64) (*sim.Engine, *net.SimNet, *membership.Directory, map[msg.NodeID]*Manager, *Client) {
	t.Helper()
	eng := sim.NewEngine()
	netw := net.NewSimNet(eng, rng.New(77), metrics.NewCollector(), net.Uniform(loss, time.Millisecond))
	dir := membership.Sequential(n)
	managers := make(map[msg.NodeID]*Manager, n)
	for i := 0; i < n; i++ {
		id := msg.NodeID(i)
		m := NewManager(id, cfg, netw, dir, new(msg.Sends))
		managers[id] = m
		netw.Attach(id, handlerFunc(func(from msg.NodeID, mm msg.Message) {
			managers[id].HandleMessage(from, mm)
		}))
	}
	client := NewClient(0, cfg, netw, dir)
	return eng, netw, dir, managers, client
}

type handlerFunc func(from msg.NodeID, m msg.Message)

func (f handlerFunc) HandleMessage(from msg.NodeID, m msg.Message) { f(from, m) }

func TestClientBlameReachesAllManagers(t *testing.T) {
	cfg := Config{M: 5, Compensation: 0, Eta: -1e9}
	eng, _, dir, managers, client := managed(t, 30, cfg, 0)
	client.Blame(7, 3, msg.ReasonPartialServe)
	client.Flush()
	eng.RunAll()
	for _, mgr := range dir.Managers(7, 5) {
		if e, _ := managers[mgr].Snapshot(7); e.TotalBlame != 3 {
			t.Fatalf("manager %d has blame %v, want 3", mgr, e.TotalBlame)
		}
	}
	// A non-manager holds nothing.
	isMgr := map[msg.NodeID]bool{}
	for _, id := range dir.Managers(7, 5) {
		isMgr[id] = true
	}
	for id, m := range managers {
		if !isMgr[id] && m.board.Tracked(7) {
			t.Fatalf("non-manager %d tracked the target", id)
		}
	}
}

// Pending is the batch a client holds against a target: every positive
// blame since the last Flush, summed, and nothing once it is flushed.
func TestClientPendingIsTheUnflushedBatch(t *testing.T) {
	cfg := Config{M: 5, Compensation: 0, Eta: -1e9}
	eng, _, dir, managers, client := managed(t, 10, cfg, 0)
	client.Blame(7, 3, msg.ReasonPartialServe)
	client.Blame(7, 0.5, msg.ReasonNoAck)
	client.Blame(7, -4, msg.ReasonNoAck)
	client.Blame(8, 2, msg.ReasonNoAck)
	if got := client.Pending(7); got != 3.5 {
		t.Fatalf("Pending(7) = %v, want 3.5", got)
	}
	if got := client.Pending(9); got != 0 {
		t.Fatalf("Pending(9) = %v for a target never blamed, want 0", got)
	}
	client.Flush()
	eng.RunAll()
	if got := client.Pending(7); got != 0 {
		t.Fatalf("Pending(7) = %v after the flush, want 0", got)
	}
	if e, _ := managers[dir.Managers(7, 5)[0]].Snapshot(7); e.TotalBlame != 3.5 {
		t.Fatalf("the flushed batch landed as %v, want 3.5", e.TotalBlame)
	}
}

func TestClientIgnoresNonPositiveBlame(t *testing.T) {
	cfg := Config{M: 5, Compensation: 0, Eta: -1e9}
	eng, _, dir, managers, client := managed(t, 10, cfg, 0)
	client.Blame(7, 0, msg.ReasonPartialServe)
	client.Blame(7, -4, msg.ReasonPartialServe)
	client.Flush()
	eng.RunAll()
	for _, mgr := range dir.Managers(7, 5) {
		if managers[mgr].board.Tracked(7) {
			t.Fatal("non-positive blame reached a manager")
		}
	}
}

func TestExpulsionPropagatesAcrossManagers(t *testing.T) {
	expelled := map[msg.NodeID]int{}
	cfg := Config{M: 5, Compensation: 0, Eta: -9.75}
	cfg.OnExpel = func(target msg.NodeID, _ msg.BlameReason) { expelled[target]++ }
	eng, _, dir, managers, client := managed(t, 30, cfg, 0)
	// Track the target everywhere at period 1, then blame hard.
	for _, mgr := range dir.Managers(7, 5) {
		managers[mgr].Track(7, 1)
	}
	client.Blame(7, 1000, msg.ReasonPartialServe)
	client.Flush()
	eng.RunAll()
	for _, mgr := range dir.Managers(7, 5) {
		if !managers[mgr].board.Expelled(7) {
			t.Fatalf("manager %d did not adopt the expulsion", mgr)
		}
	}
	if expelled[7] == 0 {
		t.Fatal("OnExpel was not invoked")
	}
}

func TestTickTriggersExpulsion(t *testing.T) {
	// A large one-off blame at period 1 may not cross η at once if
	// compensation is large, but with the clock advancing scores settle;
	// conversely here we check Tick evaluates score afresh.
	var got []msg.NodeID
	cfg := Config{M: 3, Compensation: 0, Eta: -5}
	cfg.OnExpel = func(target msg.NodeID, _ msg.BlameReason) { got = append(got, target) }
	eng, netw, dir, managers, _ := managed(t, 10, cfg, 0)
	_ = netw
	mgr := managers[dir.Managers(4, 3)[0]]
	mgr.Track(4, 0)
	mgr.board.AddBlame(4, 12) // below η at r=1: score -12
	mgr.Tick(1)
	eng.RunAll()
	if len(got) == 0 || got[0] != 4 {
		t.Fatalf("Tick did not expel: %v", got)
	}
}

// Tick expels the targets below η past their grace periods, in id order,
// and nothing already expelled; once its scratch has held the verdicts, a
// tick allocates the one Expel each verdict sends and nothing else — no
// closure, no sort.Slice swapper.
func TestTickExpelsInIDOrderWithoutAllocating(t *testing.T) {
	var got []msg.NodeID
	cfg := Config{M: 3, Compensation: 0, Eta: -5, GracePeriods: 2,
		OnExpel: func(id msg.NodeID, _ msg.BlameReason) { got = append(got, id) }}
	m := NewManager(0, cfg, nil, membership.Sequential(1), nil)
	var want []msg.NodeID
	for id := msg.NodeID(300); id > 0; id-- {
		m.Track(id, 0)
		if id%7 == 0 {
			m.board.AddBlame(id, 100) // −50 at r = 2
			want = append([]msg.NodeID{id}, want...)
		}
	}
	if m.Tick(1); len(got) != 0 {
		t.Fatalf("Tick within the grace periods expelled %v, want none", got)
	}
	before := make(map[msg.NodeID]Entry, len(want))
	for _, id := range want {
		before[id], _ = m.board.Entry(id)
	}
	if m.Tick(2); !slices.Equal(got, want) {
		t.Fatalf("Tick(2) expelled %v, want %v", got, want)
	}
	got = got[:0]
	if m.Tick(3); len(got) != 0 {
		t.Fatalf("Tick(3) expelled %v again", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range want {
			m.board.Adopt(id, before[id]) // not expelled again
		}
		got = got[:0]
		m.Tick(2)
	})
	if len(got) != len(want) || allocs != float64(len(want)) {
		t.Fatalf("a tick of 300 targets expelling %d allocates %v objects, want one Expel each", len(got), allocs)
	}
}

func TestScoreReqResp(t *testing.T) {
	cfg := Config{M: 3, Compensation: 2, Eta: -1e9}
	eng, netw, dir, managers, client := managed(t, 20, cfg, 0)
	_ = client
	mgrID := dir.Managers(9, 3)[0]
	managers[mgrID].Track(9, 0)
	managers[mgrID].board.AddBlame(9, 6)
	managers[mgrID].Tick(3)

	var resp *msg.ScoreResp
	reader := msg.NodeID(1)
	netw.Attach(reader, handlerFunc(func(from msg.NodeID, mm msg.Message) {
		if r, ok := mm.(*msg.ScoreResp); ok {
			resp = r
		}
	}))
	netw.Send(reader, mgrID, &msg.ScoreReq{Sender: reader, Target: 9}, net.Unreliable)
	eng.RunAll()
	if resp == nil {
		t.Fatal("no score response")
	}
	if want := 2.0 - 6.0/3.0; math.Abs(resp.Score-want) > 1e-12 {
		t.Fatalf("score = %v, want %v", resp.Score, want)
	}
}

func TestManagerHandleMessageIgnoresOtherKinds(t *testing.T) {
	cfg := Config{M: 3}
	_, netw, dir, managers, _ := managed(t, 5, cfg, 0)
	_ = netw
	_ = dir
	if managers[0].HandleMessage(1, &msg.Propose{Sender: 1}) {
		t.Fatal("manager claimed a gossip message")
	}
}

// TestManagerRefusesBlamesThatRaiseScores: a blame only lowers its target's
// copy. A value not > 0 (NaN among them) would raise the score, +Inf would
// swamp it, and a blame from its own target is self-absolution: the manager
// refuses all of them, and still applies an honest blame.
func TestManagerRefusesBlamesThatRaiseScores(t *testing.T) {
	cfg := Config{M: 5, Compensation: 0, Eta: -9.75}
	_, _, dir, managers, _ := managed(t, 30, cfg, 0)
	mgr := managers[dir.Managers(7, 5)[0]]
	mgr.Track(7, 0)
	for _, b := range []struct {
		from  msg.NodeID
		value float64
	}{{3, 0}, {3, -1e12}, {3, math.NaN()}, {3, math.Inf(1)}, {3, math.Inf(-1)}, {7, 5}} {
		mgr.HandleMessage(b.from, &msg.Blame{Sender: b.from, Target: 7, Value: b.value})
		if e, _ := mgr.Snapshot(7); e.TotalBlame != 0 || e.Expelled {
			t.Fatalf("a blame of %v from %d was applied: total %v, expelled %v", b.value, b.from, e.TotalBlame, e.Expelled)
		}
	}
	mgr.HandleMessage(3, &msg.Blame{Sender: 3, Target: 7, Value: 2})
	if e, _ := mgr.Snapshot(7); e.TotalBlame != 2 {
		t.Fatalf("an honest blame of 2 left a total of %v", e.TotalBlame)
	}
}
