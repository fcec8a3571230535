package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// refVerifier is the closure-per-check bookkeeping Verifier's deadline
// queues replaced, kept as the reference model the differential test drives
// Verifier against: every open check is a heap record with a timer closure of
// its own, satisfied expectations and resolved checks are swept out of
// pointer slices, confirm sessions live in a map. It is the old code verbatim,
// cut down to the checks that have a timeout (the witness and audit duties
// keep no state).
type refVerifier struct {
	self msg.NodeID
	cfg  Config
	ctx  sim.Context
	netw net.Network
	rand *rng.Stream
	sink BlameSink

	serveChecks  []*refServeCheck
	expectations []*refAckExpectation
	sessions     map[refSessionKey]*refConfirmSession
}

type refServeCheck struct {
	server    msg.NodeID
	requested []msg.ChunkID
	missing   marks
	resolved  bool
}

func (sc *refServeCheck) deliver(chunk msg.ChunkID) bool {
	for i, c := range sc.requested {
		if c == chunk && sc.missing.has(i) {
			sc.missing.clear(i)
			return true
		}
	}
	return false
}

type refAckExpectation struct {
	receiver  msg.NodeID
	chunks    []msg.ChunkID
	satisfied bool
}

type refSessionKey struct {
	suspect msg.NodeID
	period  msg.Period
}

type refConfirmSession struct {
	witnesses []msg.NodeID
	silent    marks
	closed    bool
}

func newRefVerifier(self msg.NodeID, cfg Config, ctx sim.Context, netw net.Network, rand *rng.Stream, sink BlameSink) *refVerifier {
	return &refVerifier{
		self: self, cfg: cfg.withDefaults(), ctx: ctx, netw: netw, rand: rand, sink: sink,
		sessions: make(map[refSessionKey]*refConfirmSession),
	}
}

func (v *refVerifier) blame(target msg.NodeID, value float64, reason msg.BlameReason) {
	if v.sink != nil && value > 0 {
		v.sink.Blame(target, value, reason)
	}
}

func (v *refVerifier) OnRequestSent(proposer msg.NodeID, _ msg.Period, requested []msg.ChunkID) {
	if len(requested) == 0 {
		return
	}
	sc := &refServeCheck{server: proposer, requested: requested, missing: fullMarks(len(requested))}
	v.serveChecks = append(v.serveChecks, sc)
	v.ctx.After(v.cfg.serveTimeout(), func() {
		sc.resolved = true
		if n := sc.missing.count(); n > 0 {
			total := len(sc.requested)
			v.blame(sc.server, PartialServeBlame(v.cfg.F, total, total-n), msg.ReasonPartialServe)
		}
		v.serveChecks = slices.DeleteFunc(v.serveChecks, func(sc *refServeCheck) bool { return sc.resolved })
	})
}

func (v *refVerifier) OnServeReceived(server msg.NodeID, chunk msg.ChunkID) {
	for _, sc := range v.serveChecks {
		if !sc.resolved && sc.server == server && sc.deliver(chunk) {
			return
		}
	}
}

func (v *refVerifier) OnServeInvalid(server msg.NodeID, chunk msg.ChunkID) {
	v.OnServeReceived(server, chunk)
	v.blame(server, InvalidPayloadBlame(v.cfg.F), msg.ReasonInvalidPayload)
}

func (v *refVerifier) OnServed(receiver msg.NodeID, _ msg.Period, served []msg.ChunkID) {
	exp := &refAckExpectation{receiver: receiver, chunks: served}
	v.expectations = append(v.expectations, exp)
	v.ctx.After(v.cfg.ackTimeout(), func() {
		if !exp.satisfied {
			exp.satisfied = true
			v.blame(receiver, NoAckBlame(v.cfg.F), msg.ReasonNoAck)
		}
		v.gcExpectations()
	})
}

func (v *refVerifier) gcExpectations() {
	v.expectations = slices.DeleteFunc(v.expectations, func(e *refAckExpectation) bool { return e.satisfied })
}

func (v *refVerifier) HandleAux(from msg.NodeID, m msg.Message) bool {
	switch mm := m.(type) {
	case *msg.Ack:
		v.onAck(from, mm)
	case *msg.ConfirmResp:
		v.onConfirmResp(from, mm)
	default:
		return false
	}
	return true
}

func (v *refVerifier) onAck(from msg.NodeID, ack *msg.Ack) {
	if len(ack.Partners) < v.cfg.F {
		v.blame(from, FanoutBlame(v.cfg.F, len(ack.Partners)), msg.ReasonFanoutDecrease)
	}
	for _, exp := range v.expectations {
		if exp.satisfied || exp.receiver != from {
			continue
		}
		covered := true
		for _, c := range exp.chunks {
			if !slices.Contains(ack.Chunks, c) {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		exp.satisfied = true
		if len(ack.Partners) > 0 && v.rand.Bernoulli(v.cfg.Pdcc) {
			v.startConfirmSession(from, ack, exp.chunks)
		}
	}
	v.gcExpectations()
}

func (v *refVerifier) startConfirmSession(suspect msg.NodeID, ack *msg.Ack, chunks []msg.ChunkID) {
	key := refSessionKey{suspect: suspect, period: ack.Period}
	if _, dup := v.sessions[key]; dup {
		return
	}
	s := &refConfirmSession{witnesses: ack.Partners, silent: fullMarks(len(ack.Partners))}
	v.sessions[key] = s
	confirm := &msg.Confirm{Sender: v.self, Suspect: suspect, Period: ack.Period, Chunks: chunks}
	for _, w := range ack.Partners {
		v.netw.Send(v.self, w, confirm, net.Unreliable)
	}
	v.ctx.After(v.cfg.confirmTimeout(), func() {
		s.closed = true
		v.blame(suspect, ContradictionBlame(s.silent.count()), msg.ReasonPartialPropose)
		delete(v.sessions, key)
	})
}

func (v *refVerifier) onConfirmResp(from msg.NodeID, r *msg.ConfirmResp) {
	s, ok := v.sessions[refSessionKey{suspect: r.Suspect, period: r.Period}]
	if !ok || s.closed {
		return
	}
	if r.Confirmed {
		for i, w := range s.witnesses {
			if w == from {
				s.silent.clear(i)
			}
		}
	}
}

// checker is what the differential test drives: the Monitor calls that open
// and answer checks, and the Ack / ConfirmResp traffic.
type checker interface {
	OnRequestSent(proposer msg.NodeID, p msg.Period, requested []msg.ChunkID)
	OnServeReceived(server msg.NodeID, chunk msg.ChunkID)
	OnServeInvalid(server msg.NodeID, chunk msg.ChunkID)
	OnServed(receiver msg.NodeID, p msg.Period, served []msg.ChunkID)
	HandleAux(from msg.NodeID, m msg.Message) bool
}

// step is one call of a seeded script, made at a fixed true-time instant.
type step struct {
	at   time.Duration
	call func(checker)
}

const (
	diffPeers   = 8 // the checks are about nodes 2..9
	diffPeriods = 30
)

// newScript draws diffPeriods gossip periods of what a node's verifier sees,
// and of what only a hostile or lossy run shows it: requests of 1–6 chunks (a
// few of 70, past the inline marks; some asked of the same server twice)
// served in full, in part, late, twice, invalidly or by the wrong server;
// serve batches acknowledged in full, in part, late, never, twice, by one ack
// for two batches or with too few partners; witnesses that confirm, deny,
// stay silent, answer late, answer twice, or answer polls that were never
// opened.
func newScript(seed uint64) []step {
	r := rng.New(seed).Derive("script")
	var steps []step
	add := func(at time.Duration, call func(checker)) { steps = append(steps, step{at, call}) }
	peer := func() msg.NodeID { return msg.NodeID(2 + r.IntN(diffPeers)) }
	within := func(d time.Duration) time.Duration { return time.Duration(r.Float64() * float64(d)) }
	next := msg.ChunkID(0)
	fresh := func(k int) []msg.ChunkID {
		out := make([]msg.ChunkID, k)
		for i := range out {
			out[i] = next
			next++
		}
		return out
	}
	for p := msg.Period(1); p <= diffPeriods; p++ {
		start := time.Duration(p) * tg
		for i, k := 0, r.IntN(4); i < k; i++ {
			at, server := start+within(tg), peer()
			size := 1 + r.IntN(6)
			if r.IntN(25) == 0 {
				size = 70
			}
			chunks := fresh(size)
			add(at, func(c checker) { c.OnRequestSent(server, p, chunks) })
			if r.IntN(5) == 0 {
				// Some of it asked of the same server again, as after a lost
				// serve: two open checks wait for the same chunk.
				again := chunks[r.IntN(len(chunks)):]
				add(at+tg/2+within(tg/4), func(c checker) { c.OnRequestSent(server, p+1, again) })
			}
			for _, ch := range chunks {
				ch, from := ch, server
				switch r.IntN(10) {
				case 0: // never served
					continue
				case 1: // served by somebody else
					from = peer()
				}
				// Mostly inside the serve timeout of one period, some past it.
				serveAt := at + within(tg*5/4)
				if r.IntN(12) == 0 {
					add(serveAt, func(c checker) { c.OnServeInvalid(from, ch) })
				} else {
					add(serveAt, func(c checker) { c.OnServeReceived(from, ch) })
				}
				if r.IntN(10) == 0 {
					add(serveAt+within(tg/4), func(c checker) { c.OnServeReceived(from, ch) })
				}
			}
		}
		for i, k := 0, r.IntN(4); i < k; i++ {
			at, receiver := start+within(tg), peer()
			served := fresh(1 + r.IntN(5))
			add(at, func(c checker) { c.OnServed(receiver, p, served) })
			acked := served
			if r.IntN(4) == 0 {
				// A second batch to the same receiver, under the same ack.
				more := fresh(1 + r.IntN(3))
				add(at+within(tg/10), func(c checker) { c.OnServed(receiver, p, more) })
				acked = append(slices.Clone(served), more...)
			}
			switch r.IntN(8) {
			case 0: // never acknowledged
				continue
			case 1: // acknowledged in part
				acked = acked[:len(acked)-1]
			}
			witnesses := make([]msg.NodeID, []int{3, 3, 3, 2, 0}[r.IntN(5)])
			for j := range witnesses {
				witnesses[j] = peer() // now and then the same one twice
			}
			ack := &msg.Ack{Sender: receiver, Period: p + 1, Chunks: acked, Partners: witnesses}
			// Mostly inside the ack timeout of two periods, some past it.
			ackAt := at + tg/2 + within(tg*7/4)
			add(ackAt, func(c checker) { c.HandleAux(receiver, ack) })
			if r.IntN(6) == 0 {
				add(ackAt+within(tg/2), func(c checker) { c.HandleAux(receiver, ack) })
			}
			for _, w := range witnesses {
				if r.IntN(6) == 0 {
					continue // silent
				}
				w := w
				resp := &msg.ConfirmResp{Sender: w, Suspect: receiver, Period: ack.Period, Confirmed: r.IntN(5) > 0}
				// Mostly inside the confirm timeout of one period, some past it.
				respAt := ackAt + within(tg*5/4)
				add(respAt, func(c checker) { c.HandleAux(w, resp) })
				if r.IntN(8) == 0 {
					add(respAt+within(tg/4), func(c checker) { c.HandleAux(w, resp) })
				}
			}
		}
		if r.IntN(3) == 0 {
			// An answer to a poll nobody opened.
			w, resp := peer(), &msg.ConfirmResp{Sender: peer(), Suspect: peer(), Period: p, Confirmed: true}
			add(start+within(tg), func(c checker) { c.HandleAux(w, resp) })
		}
	}
	return steps
}

// runScript plays a script to a checker made by build on node 1 of a fresh
// engine, whose timers run at the given clock-rate factor, and returns
// everything observable: each blame and each Confirm delivered, stamped with
// true time, and one last draw of the checker's random stream — equal streams
// after equal numbers of draws.
func runScript(seed uint64, steps []step, skew float64, build func(Config, sim.Context, net.Network, *rng.Stream, BlameSink) checker) []string {
	var log []string
	eng := sim.NewEngine()
	true1 := eng.Domain(1)
	netw := net.NewSimNet(eng, rng.New(seed).Derive("net"), metrics.NewCollector(), net.Uniform(0, 2*time.Millisecond))
	for id := msg.NodeID(0); id < 2+diffPeers; id++ {
		id := id
		netw.Attach(id, capture{func(from msg.NodeID, m msg.Message) {
			if c, ok := m.(*msg.Confirm); ok {
				log = append(log, fmt.Sprintf("%v confirm to %d: suspect %d period %d chunks %v", eng.NodeNow(int(id)), id, c.Suspect, c.Period, c.Chunks))
			}
		}})
	}
	rand := rng.New(seed).Derive("verifier")
	sink := blameFunc(func(target msg.NodeID, value float64, reason msg.BlameReason) {
		log = append(log, fmt.Sprintf("%v blame %d %v %v", true1.Now(), target, value, reason))
	})
	cfg := testCfg()
	cfg.Pdcc = 0.5
	c := build(cfg, sim.Skewed(true1, skew), netw, rand, sink)
	for _, s := range steps {
		s := s
		true1.After(s.at, func() { s.call(c) })
	}
	eng.Run((diffPeriods + 5) * tg)
	return append(log, fmt.Sprintf("next draw %x", rand.Uint64()))
}

// blameFunc adapts a function to the BlameSink interface.
type blameFunc func(target msg.NodeID, value float64, reason msg.BlameReason)

func (f blameFunc) Blame(target msg.NodeID, value float64, reason msg.BlameReason) {
	f(target, value, reason)
}

// TestVerifierMatchesClosureReference drives Verifier and the closure-per-
// check reference through the same seeded scripts, on a true clock and on
// clocks running 2 % fast and 5 % slow, and demands the same blames at the
// same instants, the same witness polls and the same number of random draws.
func TestVerifierMatchesClosureReference(t *testing.T) {
	const scripts = 60
	var blames, polls int
	reasons := []msg.BlameReason{msg.ReasonPartialServe, msg.ReasonInvalidPayload, msg.ReasonNoAck, msg.ReasonFanoutDecrease, msg.ReasonPartialPropose}
	byReason := map[msg.BlameReason]int{}
	for seed := uint64(1); seed <= scripts; seed++ {
		steps := newScript(seed)
		slices.SortStableFunc(steps, func(a, b step) int { return cmp.Compare(a.at, b.at) })
		for _, skew := range []float64{1, 0.98, 1.05} {
			var v *Verifier
			got := runScript(seed, steps, skew, func(cfg Config, ctx sim.Context, netw net.Network, rand *rng.Stream, sink BlameSink) checker {
				v = NewVerifier(1, cfg, ctx, netw, rand, history.NewLog(cfg.HistoryPeriods), gossip.Honest{}, sink, new(msg.Sends))
				return v
			})
			want := runScript(seed, steps, skew, func(cfg Config, ctx sim.Context, netw net.Network, rand *rng.Stream, sink BlameSink) checker {
				return newRefVerifier(1, cfg, ctx, netw, rand, sink)
			})
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					line := "(transcript ends)"
					if i < len(got) {
						line = got[i]
					}
					t.Fatalf("seed %d skew %v: transcripts part at line %d:\n  verifier:  %s\n  reference: %s", seed, skew, i, line, want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d skew %v: transcript has %d lines, the reference's %d; first extra: %s", seed, skew, len(got), len(want), got[len(want)])
			}
			if n := v.serveChecks.Pending() + v.expectations.Pending() + v.sessions.Pending(); n != 0 {
				t.Fatalf("seed %d skew %v: %d checks still open five periods after the last call", seed, skew, n)
			}
			if skew != 1 {
				continue
			}
			for _, line := range got {
				if strings.Contains(line, " confirm to ") {
					polls++
				}
				for _, reason := range reasons {
					if strings.HasSuffix(line, " "+reason.String()) {
						blames++
						byReason[reason]++
					}
				}
			}
		}
	}
	// The scripts must reach every blame the checks can emit.
	for _, reason := range reasons {
		if byReason[reason] < scripts {
			t.Fatalf("scripts too tame: %d %v blames over %d scripts (all: %v)", byReason[reason], reason, scripts, byReason)
		}
	}
	t.Logf("%d scripts × 3 clock rates: %d blames and %d witness polls a script run on the true clock", scripts, blames/scripts, polls/scripts)
}
