package reputation

import (
	"math"
	"slices"
	"testing"
	"time"

	"lifting/internal/msg"
)

func TestReaderMinVote(t *testing.T) {
	cfg := Config{M: 5, Compensation: 2, Eta: -1e9}
	eng, netw, dir, managers, _ := managed(t, 30, cfg, 0)

	// Seed different copies at the target's managers.
	mgrs := dir.Managers(7, 5)
	for i, m := range mgrs {
		managers[m].Track(7, 0)
		managers[m].board.AddBlame(7, float64(i)) // scores 2, 1, 0, -1, -2
		managers[m].Tick(1)
	}

	reader := NewReader(1, cfg, eng, netw, dir, 100*time.Millisecond)
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		reader.HandleAux(from, m)
	}))
	var gotScore float64
	var gotReplies int
	reader.Read(7, func(score float64, expelled bool, replies int) {
		gotScore, gotReplies = score, replies
	})
	eng.RunAll()
	if gotReplies != 5 {
		t.Fatalf("replies = %d, want 5", gotReplies)
	}
	// Min over {2, 1, 0, -1, -2} = -2.
	if math.Abs(gotScore-(-2)) > 1e-12 {
		t.Fatalf("min-vote score = %v, want -2", gotScore)
	}
}

func TestReaderToleratesLossAndInflation(t *testing.T) {
	// Half the managers are colluders returning +1000; message loss kills
	// some replies. The minimum still tracks the most-blamed honest copy.
	cfg := Config{M: 6, Compensation: 0, Eta: -1e9}
	eng, netw, dir, managers, _ := managed(t, 40, cfg, 0.1)
	mgrs := dir.Managers(9, 6)
	for i, m := range mgrs {
		managers[m].Track(9, 0)
		if i%2 == 0 {
			managers[m].board.AddBlame(9, -1000) // inflating colluder
		} else {
			managers[m].board.AddBlame(9, 50)
		}
		managers[m].Tick(1)
	}
	reader := NewReader(1, cfg, eng, netw, dir, 200*time.Millisecond)
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		reader.HandleAux(from, m)
	}))
	var gotScore float64
	var gotReplies int
	reader.Read(9, func(score float64, _ bool, replies int) { gotScore, gotReplies = score, replies })
	eng.RunAll()
	if gotReplies == 0 {
		t.Skip("all replies lost at 10% loss (unlucky seed)")
	}
	// If any honest reply survived, the min is at most -50.
	if gotScore > -50+1e-9 && gotReplies >= 4 {
		t.Fatalf("min-vote %v did not resist inflation (replies %d)", gotScore, gotReplies)
	}
}

func TestReaderExpelledFlag(t *testing.T) {
	cfg := Config{M: 3, Compensation: 0, Eta: -1e9}
	eng, netw, dir, managers, _ := managed(t, 20, cfg, 0)
	m0 := dir.Managers(5, 3)[0]
	managers[m0].Track(5, 0)
	managers[m0].board.MarkExpelled(5, msg.ReasonAuditEntropy)
	reader := NewReader(1, cfg, eng, netw, dir, 100*time.Millisecond)
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		reader.HandleAux(from, m)
	}))
	var gotExpelled bool
	reader.Read(5, func(_ float64, expelled bool, _ int) { gotExpelled = expelled })
	eng.RunAll()
	if !gotExpelled {
		t.Fatal("expelled flag not surfaced by the read")
	}
}

func TestReaderConcurrentReadRejected(t *testing.T) {
	cfg := Config{M: 3, Compensation: 0, Eta: -1e9}
	eng, netw, dir, _, _ := managed(t, 10, cfg, 0)
	reader := NewReader(1, cfg, eng, netw, dir, 100*time.Millisecond)
	calls := 0
	reader.Read(5, func(_ float64, _ bool, _ int) { calls++ })
	rejected := false
	reader.Read(5, func(_ float64, _ bool, replies int) {
		if replies == 0 {
			rejected = true
		}
	})
	eng.RunAll()
	if !rejected {
		t.Fatal("concurrent read was not rejected")
	}
	if calls != 1 {
		t.Fatalf("first read callback ran %d times", calls)
	}
}

// TestReaderDiscardsUntrackedReplies is the regression test for min-vote
// score poisoning: after a churn handoff a manager in the target's current
// set may not (yet) track it. Its reply must not inject a fabricated 0 into
// the vote — before the Tracked flag, a mildly-blamed node with genuine
// copies at 1.5 read as 0.
func TestReaderDiscardsUntrackedReplies(t *testing.T) {
	cfg := Config{M: 5, Compensation: 2, Eta: -1e9}
	eng, netw, dir, managers, _ := managed(t, 30, cfg, 0)

	// Four managers hold genuine copies of a blamed node (score 2 − 1/2 =
	// 1.5); the fifth lost the target in a handoff and tracks nothing.
	mgrs := dir.Managers(7, 5)
	for _, m := range mgrs[:4] {
		managers[m].Track(7, 0)
		managers[m].board.AddBlame(7, 1)
		managers[m].Tick(2)
	}
	reader := NewReader(1, cfg, eng, netw, dir, 100*time.Millisecond)
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		reader.HandleAux(from, m)
	}))
	var gotScore float64
	gotReplies := -1
	reader.Read(7, func(score float64, _ bool, replies int) {
		gotScore, gotReplies = score, replies
	})
	eng.RunAll()
	if gotReplies != 4 {
		t.Fatalf("replies = %d, want 4 (untracked reply must not count as a copy)", gotReplies)
	}
	if math.Abs(gotScore-1.5) > 1e-12 {
		t.Fatalf("min-vote score = %v, want 1.5 (a fabricated 0 poisoned the vote)", gotScore)
	}
}

// TestReaderAllUntrackedReportsNoReplies covers the worst handoff case: none
// of the target's current managers holds a copy. The read must report zero
// replies — indistinguishable before this fix from a confident score of 0.
func TestReaderAllUntrackedReportsNoReplies(t *testing.T) {
	cfg := Config{M: 4, Compensation: 2, Eta: -1e9}
	eng, netw, dir, _, _ := managed(t, 20, cfg, 0)
	reader := NewReader(1, cfg, eng, netw, dir, 100*time.Millisecond)
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		reader.HandleAux(from, m)
	}))
	gotReplies := -1
	reader.Read(8, func(_ float64, _ bool, replies int) { gotReplies = replies })
	eng.RunAll()
	if gotReplies != 0 {
		t.Fatalf("replies = %d, want 0 for a target nobody tracks", gotReplies)
	}
}

// TestReaderCompletesBeforeTimeout is the regression test for the read
// latency bug: with every manager reply in hand the read must resolve
// immediately instead of sleeping out the full timeout. The verdict must be
// the one the timeout path would have produced.
func TestReaderCompletesBeforeTimeout(t *testing.T) {
	cfg := Config{M: 5, Compensation: 2, Eta: -1e9}
	eng, netw, dir, managers, _ := managed(t, 30, cfg, 0)
	mgrs := dir.Managers(7, 5)
	for i, m := range mgrs {
		managers[m].Track(7, 0)
		managers[m].board.AddBlame(7, float64(i))
		managers[m].Tick(1)
	}
	const timeout = 10 * time.Second
	reader := NewReader(1, cfg, eng, netw, dir, timeout)
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		reader.HandleAux(from, m)
	}))
	var gotScore float64
	gotReplies := -1
	doneAt := time.Duration(-1)
	reader.Read(7, func(score float64, _ bool, replies int) {
		gotScore, gotReplies, doneAt = score, replies, eng.Now()
	})
	eng.RunAll()
	if gotReplies != 5 {
		t.Fatalf("replies = %d, want 5", gotReplies)
	}
	if doneAt < 0 || doneAt >= timeout {
		t.Fatalf("read resolved at %v, want before the %v timeout", doneAt, timeout)
	}
	// Bit-identical verdict: min over {2, 1, 0, -1, -2} as with the old
	// timeout-driven completion.
	if math.Abs(gotScore-(-2)) > 1e-12 {
		t.Fatalf("early-completed score = %v, want -2", gotScore)
	}
}

// TestReaderIgnoresForgedSenders: ScoreResps from nodes the read never
// queried must neither terminate the read early nor inject copies into the
// vote — otherwise a colluder flooding Tracked=false forgeries from M fake
// ids could suppress a blamed node's genuine low copies.
func TestReaderIgnoresForgedSenders(t *testing.T) {
	cfg := Config{M: 3, Compensation: 0, Eta: -1e9}
	eng, netw, dir, managers, _ := managed(t, 20, cfg, 0)
	mgrs := dir.Managers(7, 3)
	for _, m := range mgrs {
		managers[m].Track(7, 0)
		managers[m].board.AddBlame(7, 50) // genuine copies at -50
		managers[m].Tick(1)
	}
	isMgr := map[msg.NodeID]bool{7: true}
	for _, m := range mgrs {
		isMgr[m] = true
	}
	// The reader's handler replaces the node's own, so a reader that is one
	// of 7's managers would never answer its own query: pick it, and then the
	// forger, from outside 7 and its manager set.
	self := msg.NodeID(0)
	for ; isMgr[self]; self++ {
	}
	reader := NewReader(self, cfg, eng, netw, dir, 100*time.Millisecond)
	netw.Attach(self, handlerFunc(func(from msg.NodeID, m msg.Message) {
		reader.HandleAux(from, m)
	}))
	var gotScore float64
	gotReplies := -1
	reader.Read(7, func(score float64, _ bool, replies int) { gotScore, gotReplies = score, replies })
	// Forgeries from ids outside the manager set arrive before the genuine
	// replies: M untracked ones (early-termination attempt) and one tracked
	// with an inflated score (injection attempt).
	forger := self + 1
	for ; isMgr[forger]; forger++ {
	}
	for i := 0; i < 3; i++ {
		reader.HandleAux(forger, &msg.ScoreResp{Sender: forger + msg.NodeID(i)*100, Target: 7, Tracked: false})
	}
	reader.HandleAux(forger, &msg.ScoreResp{Sender: forger, Target: 7, Tracked: true, Score: 1000})
	eng.RunAll()
	if gotReplies != 3 {
		t.Fatalf("replies = %d, want 3 genuine copies", gotReplies)
	}
	if math.Abs(gotScore-(-50)) > 1e-12 {
		t.Fatalf("min-vote score = %v, want -50 (forged replies perturbed the vote)", gotScore)
	}
}

func TestReaderIgnoresForeignMessages(t *testing.T) {
	cfg := Config{M: 3}
	eng, netw, dir, _, _ := managed(t, 10, cfg, 0)
	_ = eng
	reader := NewReader(1, cfg, eng, netw, dir, time.Millisecond)
	if reader.HandleAux(2, &msg.Propose{Sender: 2}) {
		t.Fatal("reader claimed a gossip message")
	}
	// A stray score response with no outstanding read is consumed quietly.
	if !reader.HandleAux(2, &msg.ScoreResp{Sender: 2, Target: 9}) {
		t.Fatal("reader rejected a score response")
	}
}

// TestReaderCreditsRepliesToTheirSource: a reply counts for the manager it
// arrives from, not for the one its Sender field names. A node outside the
// manager set that answers in every manager's name neither ends the read
// nor moves the vote.
func TestReaderCreditsRepliesToTheirSource(t *testing.T) {
	cfg := Config{M: 5, Compensation: 2, Eta: -1e9}
	eng, netw, dir, managers, _ := managed(t, 30, cfg, 0)
	mgrs := dir.Managers(7, 5)
	for i, m := range mgrs {
		managers[m].Track(7, 0)
		managers[m].board.AddBlame(7, float64(i)) // scores 2, 1, 0, -1, -2
		managers[m].Tick(1)
	}
	reader := NewReader(1, cfg, eng, netw, dir, 100*time.Millisecond)
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		reader.HandleAux(from, m)
	}))
	forger := msg.NodeID(2)
	for slices.Contains(mgrs, forger) {
		forger++
	}
	var gotScore float64
	var gotReplies int
	reader.Read(7, func(score float64, _ bool, replies int) { gotScore, gotReplies = score, replies })
	for _, m := range mgrs {
		reader.HandleAux(forger, &msg.ScoreResp{Sender: m, Target: 7, Tracked: true, Score: 1000})
	}
	eng.RunAll()
	if gotReplies != 5 || math.Abs(gotScore-(-2)) > 1e-12 {
		t.Fatalf("read %v from %d replies, want the managers' own minimum -2 from 5", gotScore, gotReplies)
	}
}
