package core

import (
	"testing"
	"time"
	"unsafe"

	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

const tg = 100 * time.Millisecond

func testCfg() Config {
	return Config{
		F:              3,
		Period:         tg,
		Pdcc:           1,
		HistoryPeriods: 50,
		Gamma:          8.95,
		Eta:            -9.75,
	}
}

type blameRec struct {
	target msg.NodeID
	value  float64
	reason msg.BlameReason
}

type sinkRec struct{ blames []blameRec }

func (s *sinkRec) Blame(target msg.NodeID, value float64, reason msg.BlameReason) {
	s.blames = append(s.blames, blameRec{target, value, reason})
}

func (s *sinkRec) total(reason msg.BlameReason) float64 {
	var v float64
	for _, b := range s.blames {
		if b.reason == reason {
			v += b.value
		}
	}
	return v
}

// rig is a one-verifier test rig: verifier at node 1, messages captured.
type rig struct {
	eng  *sim.Engine
	netw *net.SimNet
	v    *Verifier
	sink *sinkRec
	hist *history.Log
	sent map[msg.NodeID][]msg.Message // messages delivered to other nodes
}

func newRig(t *testing.T, cfg Config, behavior gossip.Behavior) *rig {
	t.Helper()
	r := &rig{
		eng:  sim.NewEngine(),
		sink: &sinkRec{},
		hist: history.NewLog(cfg.HistoryPeriods),
		sent: make(map[msg.NodeID][]msg.Message),
	}
	r.netw = net.NewSimNet(r.eng, rng.New(7), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	r.v = NewVerifier(1, cfg, r.eng.Domain(1), r.netw, rng.New(9), r.hist, behavior, r.sink, new(msg.Sends))
	// Node 1 is attached too: the network registers senders at Attach.
	for id := msg.NodeID(0); id < 10; id++ {
		id := id
		r.netw.Attach(id, capture{func(from msg.NodeID, m msg.Message) {
			r.sent[id] = append(r.sent[id], m)
		}})
	}
	return r
}

type capture struct {
	fn func(from msg.NodeID, m msg.Message)
}

func (c capture) HandleMessage(from msg.NodeID, m msg.Message) { c.fn(from, m) }

func TestNewVerifierPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewVerifier(1, Config{}, sim.NewEngine().Domain(1), nil, rng.New(1), nil, gossip.Honest{}, &sinkRec{}, nil)
}

func TestDirectVerificationBlamesMissingServes(t *testing.T) {
	// Request 4 chunks from node 2, receive only 1: blame f·3/4.
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnRequestSent(2, 1, []msg.ChunkID{10, 11, 12, 13})
	r.v.OnServeReceived(2, 10)
	r.eng.Run(time.Second)
	want := PartialServeBlame(3, 4, 1)
	if got := r.sink.total(msg.ReasonPartialServe); got != want {
		t.Fatalf("partial-serve blame = %v, want %v", got, want)
	}
}

func TestDirectVerificationNoBlameWhenServed(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnRequestSent(2, 1, []msg.ChunkID{10, 11})
	r.v.OnServeReceived(2, 10)
	r.v.OnServeReceived(2, 11)
	r.eng.Run(time.Second)
	if got := r.sink.total(msg.ReasonPartialServe); got != 0 {
		t.Fatalf("blame despite full serve: %v", got)
	}
}

func TestDirectVerificationSeparatesServers(t *testing.T) {
	// Chunks served by node 3 must not satisfy a check against node 2.
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnRequestSent(2, 1, []msg.ChunkID{10})
	r.v.OnServeReceived(3, 10)
	r.eng.Run(time.Second)
	if got := r.sink.total(msg.ReasonPartialServe); got != 3 {
		t.Fatalf("blame = %v, want f=3 (server 2 never delivered)", got)
	}
}

func TestNoAckBlameAfterTimeout(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnServed(2, 1, []msg.ChunkID{20, 21})
	r.eng.Run(time.Second)
	if got := r.sink.total(msg.ReasonNoAck); got != 3 {
		t.Fatalf("no-ack blame = %v, want f=3", got)
	}
}

func TestAckSatisfiesExpectation(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnServed(2, 1, []msg.ChunkID{20, 21})
	r.v.HandleAux(2, &msg.Ack{Sender: 2, Period: 5, Chunks: []msg.ChunkID{20, 21}, Partners: []msg.NodeID{3, 4, 5}})
	r.eng.Run(time.Second)
	if got := r.sink.total(msg.ReasonNoAck); got != 0 {
		t.Fatalf("no-ack blame despite ack: %v", got)
	}
}

func TestIncompleteAckStillBlamed(t *testing.T) {
	// Ack covering only part of the served chunks leaves the expectation
	// pending: blame f at the timeout ((a) of Equation 3).
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnServed(2, 1, []msg.ChunkID{20, 21})
	r.v.HandleAux(2, &msg.Ack{Sender: 2, Period: 5, Chunks: []msg.ChunkID{20}, Partners: []msg.NodeID{3, 4, 5}})
	r.eng.Run(time.Second)
	if got := r.sink.total(msg.ReasonNoAck); got != 3 {
		t.Fatalf("incomplete ack blame = %v, want 3", got)
	}
}

func TestFanoutDecreaseBlamedOnAck(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnServed(2, 1, []msg.ChunkID{20})
	r.v.HandleAux(2, &msg.Ack{Sender: 2, Period: 5, Chunks: []msg.ChunkID{20}, Partners: []msg.NodeID{3}})
	r.eng.Run(time.Second)
	if got := r.sink.total(msg.ReasonFanoutDecrease); got != 2 {
		t.Fatalf("fanout blame = %v, want f−f̂ = 2", got)
	}
}

func TestCrossCheckConfirmsWithWitnesses(t *testing.T) {
	// With pdcc = 1, a satisfied ack triggers Confirm messages to every
	// claimed partner; silent witnesses count as contradictions.
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnServed(2, 1, []msg.ChunkID{20})
	r.v.HandleAux(2, &msg.Ack{Sender: 2, Period: 5, Chunks: []msg.ChunkID{20}, Partners: []msg.NodeID{3, 4, 5}})
	r.eng.Run(time.Second)
	for _, w := range []msg.NodeID{3, 4, 5} {
		found := false
		for _, m := range r.sent[w] {
			if c, ok := m.(*msg.Confirm); ok && c.Suspect == 2 {
				found = true
			}
		}
		if !found {
			t.Fatalf("witness %d received no confirm", w)
		}
	}
	if got := r.sink.total(msg.ReasonPartialPropose); got != 3 {
		t.Fatalf("contradiction blame = %v, want 3 (all witnesses silent)", got)
	}
}

func TestPositiveConfirmationsClearSuspect(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnServed(2, 1, []msg.ChunkID{20})
	r.v.HandleAux(2, &msg.Ack{Sender: 2, Period: 5, Chunks: []msg.ChunkID{20}, Partners: []msg.NodeID{3, 4}})
	// Witnesses confirm before the timeout.
	r.eng.After(10*time.Millisecond, func() {
		r.v.HandleAux(3, &msg.ConfirmResp{Sender: 3, Suspect: 2, Period: 5, Confirmed: true})
		r.v.HandleAux(4, &msg.ConfirmResp{Sender: 4, Suspect: 2, Period: 5, Confirmed: true})
	})
	r.eng.Run(time.Second)
	if got := r.sink.total(msg.ReasonPartialPropose); got != 0 {
		t.Fatalf("blame despite positive confirmations: %v", got)
	}
	// ... but the fanout was 2 < 3, so that blame still applies.
	if got := r.sink.total(msg.ReasonFanoutDecrease); got != 1 {
		t.Fatalf("fanout blame = %v, want 1", got)
	}
}

func TestContradictingWitnessBlames(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnServed(2, 1, []msg.ChunkID{20})
	r.v.HandleAux(2, &msg.Ack{Sender: 2, Period: 5, Chunks: []msg.ChunkID{20}, Partners: []msg.NodeID{3, 4, 5}})
	r.eng.After(10*time.Millisecond, func() {
		r.v.HandleAux(3, &msg.ConfirmResp{Sender: 3, Suspect: 2, Period: 5, Confirmed: true})
		r.v.HandleAux(4, &msg.ConfirmResp{Sender: 4, Suspect: 2, Period: 5, Confirmed: false})
		// witness 5 stays silent
	})
	r.eng.Run(time.Second)
	if got := r.sink.total(msg.ReasonPartialPropose); got != 2 {
		t.Fatalf("contradiction blame = %v, want 2 (one no + one silent)", got)
	}
}

func TestPdccZeroNeverConfirms(t *testing.T) {
	cfg := testCfg()
	cfg.Pdcc = 0
	r := newRig(t, cfg, gossip.Honest{})
	r.v.OnServed(2, 1, []msg.ChunkID{20})
	r.v.HandleAux(2, &msg.Ack{Sender: 2, Period: 5, Chunks: []msg.ChunkID{20}, Partners: []msg.NodeID{3, 4, 5}})
	r.eng.Run(time.Second)
	for _, w := range []msg.NodeID{3, 4, 5} {
		for _, m := range r.sent[w] {
			if _, ok := m.(*msg.Confirm); ok {
				t.Fatal("confirm sent despite pdcc=0")
			}
		}
	}
}

func TestWitnessDutyAnswersFromHistory(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	// Node 1 (the verifier's host) received a proposal from node 6 with
	// chunks 30,31.
	r.hist.RecordProposalReceived(1, 6, []msg.ChunkID{30, 31})
	r.v.HandleAux(7, &msg.Confirm{Sender: 7, Suspect: 6, Period: 2, Chunks: []msg.ChunkID{30}})
	r.v.HandleAux(7, &msg.Confirm{Sender: 7, Suspect: 6, Period: 2, Chunks: []msg.ChunkID{99}})
	r.eng.Run(time.Second)
	var answers []bool
	for _, m := range r.sent[7] {
		if cr, ok := m.(*msg.ConfirmResp); ok {
			answers = append(answers, cr.Confirmed)
		}
	}
	if len(answers) != 2 || answers[0] != true || answers[1] != false {
		t.Fatalf("witness answers = %v, want [true false]", answers)
	}
	// The asker was recorded for the fanin audit.
	if got := r.hist.AskersFor(6); len(got) != 2 || got[0] != 7 {
		t.Fatalf("askers = %v, want two entries for node 7", got)
	}
}

func TestAckDutySendsAcks(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	servers := []msg.ServeRecord{
		{Period: 3, Server: 2, Chunks: []msg.ChunkID{10, 11}},
		{Period: 3, Server: 3, Chunks: []msg.ChunkID{12}},
	}
	r.v.OnProposePhase(4, []msg.NodeID{5, 6, 7}, []msg.ChunkID{10, 11, 12}, servers)
	r.eng.Run(time.Second)
	for _, s := range servers {
		server, chunks := s.Server, s.Chunks
		var ack *msg.Ack
		for _, m := range r.sent[server] {
			if a, ok := m.(*msg.Ack); ok {
				ack = a
			}
		}
		if ack == nil {
			t.Fatalf("server %d received no ack", server)
		}
		if len(ack.Chunks) != len(chunks) {
			t.Fatalf("ack to %d has %d chunks, want %d", server, len(ack.Chunks), len(chunks))
		}
		if len(ack.Partners) != 3 {
			t.Fatalf("ack partners = %v, want the 3 real partners", ack.Partners)
		}
	}
}

func TestAuditReqServesForgedSnapshot(t *testing.T) {
	forger := forgingBehavior{}
	r := newRig(t, testCfg(), forger)
	r.hist.RecordProposalsSent(1, []msg.NodeID{2}, []msg.ChunkID{1})
	r.v.HandleAux(8, &msg.AuditReq{Sender: 8, Horizon: time.Hour})
	r.eng.Run(time.Second)
	var resp *msg.AuditResp
	for _, m := range r.sent[8] {
		if a, ok := m.(*msg.AuditResp); ok {
			resp = a
		}
	}
	if resp == nil {
		t.Fatal("no audit response")
	}
	if len(resp.Proposals) != 1 || resp.Proposals[0].Partner != 42 {
		t.Fatalf("snapshot not forged: %+v", resp.Proposals)
	}
}

type forgingBehavior struct{ gossip.Honest }

func (forgingBehavior) ForgeAudit(resp *msg.AuditResp) *msg.AuditResp {
	out := *resp
	out.Proposals = make([]msg.ProposalRecord, len(resp.Proposals))
	copy(out.Proposals, resp.Proposals)
	for i := range out.Proposals {
		out.Proposals[i].Partner = 42
	}
	return &out
}

func TestAuditPollAnswers(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	r.hist.RecordProposalReceived(3, 6, []msg.ChunkID{50})
	r.hist.RecordConfirmAsker(3, 6, 9)
	r.v.HandleAux(8, &msg.AuditPoll{Sender: 8, Suspect: 6, Period: 3, Chunks: []msg.ChunkID{50}})
	r.eng.Run(time.Second)
	var resp *msg.AuditPollResp
	for _, m := range r.sent[8] {
		if a, ok := m.(*msg.AuditPollResp); ok {
			resp = a
		}
	}
	if resp == nil {
		t.Fatal("no poll response")
	}
	if !resp.Confirmed {
		t.Fatal("poll should confirm a recorded proposal")
	}
	if len(resp.Askers) != 1 || resp.Askers[0] != 9 {
		t.Fatalf("askers = %v, want [9]", resp.Askers)
	}
}

func TestHandleAuxIgnoresGossipKinds(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	if r.v.HandleAux(2, &msg.Propose{Sender: 2}) {
		t.Fatal("verifier claimed a propose message")
	}
	if r.v.HandleAux(2, &msg.Blame{Sender: 2}) {
		t.Fatal("verifier claimed a blame message (manager duty)")
	}
}

// spamBehavior accuses fixed targets at every propose phase.
type spamBehavior struct {
	gossip.Honest
	targets []msg.NodeID
}

func (s spamBehavior) SpamBlames(*rng.Stream) []msg.NodeID { return s.targets }

func TestSpamBlamesRoutedAtProposePhase(t *testing.T) {
	r := newRig(t, testCfg(), spamBehavior{targets: []msg.NodeID{4, 5}})
	// Spam flows even on a phase with nothing proposed and no servers.
	r.v.OnProposePhase(1, nil, nil, nil)
	r.v.OnProposePhase(2, nil, nil, nil)
	if got, want := r.sink.total(msg.ReasonNoAck), 4.0*gossip.SpamBlame; got != want {
		t.Fatalf("spam blame total = %v, want %v (2 accusations x 2 periods)", got, want)
	}
	// Honest behaviors never spam.
	h := newRig(t, testCfg(), gossip.Honest{})
	h.v.OnProposePhase(1, nil, nil, nil)
	if len(h.sink.blames) != 0 {
		t.Fatalf("honest propose phase emitted blames: %+v", h.sink.blames)
	}
}

func TestMarksSpillBeyondOneWord(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200} {
		m := fullMarks(n)
		if m.count() != n {
			t.Fatalf("fullMarks(%d) marks %d positions", n, m.count())
		}
		for i := 0; i < n; i++ {
			if !m.has(i) {
				t.Fatalf("fullMarks(%d) lacks position %d", n, i)
			}
			m.clear(i)
			if m.has(i) || m.count() != n-i-1 {
				t.Fatalf("fullMarks(%d): clearing %d left %d marked", n, i, m.count())
			}
		}
	}
}

func TestDirectVerificationOfALongRequest(t *testing.T) {
	// 100 chunks requested, all but three served: the check spans two words.
	r := newRig(t, testCfg(), gossip.Honest{})
	requested := make([]msg.ChunkID, 100)
	for i := range requested {
		requested[i] = msg.ChunkID(1000 + i)
	}
	r.v.OnRequestSent(2, 1, requested)
	for i, c := range requested {
		if i != 5 && i != 64 && i != 99 {
			r.v.OnServeReceived(2, c)
			r.v.OnServeReceived(2, c) // a second copy clears nothing more
		}
	}
	r.eng.Run(time.Second)
	want := PartialServeBlame(3, 100, 97)
	if got := r.sink.total(msg.ReasonPartialServe); got != want {
		t.Fatalf("partial-serve blame = %v, want %v", got, want)
	}
}

func TestWitnessNamedTwiceAnswersForBothPlaces(t *testing.T) {
	// A man-in-the-middle ack may name one colluder several times: its one
	// confirmation covers every place it holds in the list.
	r := newRig(t, testCfg(), gossip.Honest{})
	r.v.OnServed(2, 1, []msg.ChunkID{20})
	r.v.HandleAux(2, &msg.Ack{Sender: 2, Period: 5, Chunks: []msg.ChunkID{20}, Partners: []msg.NodeID{3, 4, 3}})
	r.eng.After(10*time.Millisecond, func() {
		r.v.HandleAux(3, &msg.ConfirmResp{Sender: 3, Suspect: 2, Period: 5, Confirmed: true})
	})
	r.eng.Run(time.Second)
	if got := r.sink.total(msg.ReasonPartialPropose); got != 1 {
		t.Fatalf("contradiction blame = %v, want 1 (only witness 4 silent)", got)
	}
	// All three confirms are the same message.
	var first *msg.Confirm
	for _, w := range []msg.NodeID{3, 4} {
		for _, m := range r.sent[w] {
			if c, ok := m.(*msg.Confirm); ok {
				if first == nil {
					first = c
				} else if c != first {
					t.Fatal("witnesses were sent different Confirm messages")
				}
			}
		}
	}
	if first == nil {
		t.Fatal("no confirm sent")
	}
}

// TestOpenChecksAreBoundedByTheirTimeouts floods a verifier for one period —
// 300 requests sent, 300 serve batches, each acknowledged at once and
// cross-checked — and checks the bound of each queue of open checks: it holds
// exactly what was opened within its timeout (serve checks Tg, ack
// expectations 2·Tg, confirm sessions Tg), one by-value record each, all
// three are empty one ack timeout after the flood, and all three are let go
// of at once by OnStop, after which nothing is blamed. (That a lapsed record's
// place pins none of its lists, and that a ring — which never shrinks — ends
// within a quarter of the most records ever open, are sim.Deadlines' own
// tests: this flood leaves some 340 places of each kind behind, 56 KB in all.)
func TestOpenChecksAreBoundedByTheirTimeouts(t *testing.T) {
	r := newRig(t, testCfg(), gossip.Honest{})
	const floods = 300
	var opened []time.Duration
	next := msg.ChunkID(0)
	stopped := false  // a stopped node calls its verifier no more
	flood := func() { // one period of it, from now
		for i := 0; i < floods; i++ {
			in := time.Duration(i) * tg / floods
			asked := []msg.ChunkID{next, next + 1, next + 2}
			served := []msg.ChunkID{next + 3, next + 4}
			next += 5
			ack := &msg.Ack{Sender: 3, Period: msg.Period(i + 1), Chunks: served, Partners: []msg.NodeID{4, 5, 6}}
			opened = append(opened, r.eng.Now()+in)
			r.eng.After(in, func() {
				if stopped {
					return
				}
				r.v.OnRequestSent(2, 1, asked)
				r.v.OnServed(3, 1, served)
				r.v.HandleAux(3, ack)
			})
		}
	}
	flood()
	within := func(timeout, probe time.Duration) int {
		n := 0
		for _, at := range opened {
			if at <= probe && at+timeout > probe {
				n++
			}
		}
		return n
	}
	for _, probe := range []time.Duration{tg / 2, tg, tg * 3 / 2, tg * 5 / 2} {
		r.eng.Run(probe)
		checks, expectations, sessions := r.v.serveChecks.Pending(), r.v.expectations.Pending(), r.v.sessions.Pending()
		if checks != within(tg, probe) || expectations != within(2*tg, probe) || sessions != within(tg, probe) {
			t.Fatalf("at %v: %d serve checks, %d ack expectations, %d confirm sessions open; want %d, %d, %d",
				probe, checks, expectations, sessions, within(tg, probe), within(2*tg, probe), within(tg, probe))
		}
	}
	r.eng.Run(3 * tg)
	if n := r.v.serveChecks.Pending() + r.v.expectations.Pending() + r.v.sessions.Pending(); n != 0 {
		t.Fatalf("%d checks open one ack timeout after the flood", n)
	}
	if got := len(r.sink.blames); got != 2*floods {
		t.Fatalf("%d blames, want one partial serve and one contradiction per flooded round", got)
	}
	if a, b, c := unsafe.Sizeof(serveCheck{}), unsafe.Sizeof(ackExpectation{}), unsafe.Sizeof(confirmSession{}); a != 64 || b != 40 || c != 64 {
		t.Fatalf("a serve check, an ack expectation and a confirm session take %d, %d and %d bytes; DESIGN.md says 64, 40 and 64", a, b, c)
	}

	// Stopped in mid-flood, the node's verifier drops every open check at
	// once, and the timers armed for them find nothing to blame.
	flood()
	r.eng.Run(r.eng.Now() + tg/2)
	if r.v.serveChecks.Pending() == 0 || r.v.expectations.Pending() == 0 || r.v.sessions.Pending() == 0 {
		t.Fatalf("in mid-flood: %d serve checks, %d ack expectations, %d confirm sessions open; want some of each",
			r.v.serveChecks.Pending(), r.v.expectations.Pending(), r.v.sessions.Pending())
	}
	stopped = true
	r.v.OnStop()
	if checks, expectations, sessions := r.v.serveChecks.Pending(), r.v.expectations.Pending(), r.v.sessions.Pending(); checks+expectations+sessions != 0 {
		t.Fatalf("after OnStop: %d serve checks, %d ack expectations, %d confirm sessions open", checks, expectations, sessions)
	}
	before := len(r.sink.blames)
	r.eng.Run(r.eng.Now() + 3*tg)
	if got := len(r.sink.blames) - before; got != 0 {
		t.Fatalf("a stopped verifier blamed %d times: %+v", got, r.sink.blames[before:])
	}
}
