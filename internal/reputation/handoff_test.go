package reputation

import (
	"math"
	"slices"
	"testing"

	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
)

// wire is a net.Network that puts every message through the codec, as the
// UDP transport does, and keeps what would arrive for delivery by hand.
type wire struct {
	t       *testing.T
	arrived []arrival
}

type arrival struct {
	from, to msg.NodeID
	m        msg.Message
}

func (w *wire) Send(from, to msg.NodeID, m msg.Message, _ net.Mode) {
	b, err := msg.Encode(m)
	if err != nil {
		w.t.Fatalf("encoding a %s: %v", m.Kind(), err)
	}
	got, err := msg.Decode(b)
	if err != nil {
		w.t.Fatalf("decoding a %s: %v", m.Kind(), err)
	}
	w.arrived = append(w.arrived, arrival{from: from, to: to, m: got})
}

// handOff pushes from's entry for target to to across w and delivers it.
func handOff(w *wire, from, to *Manager, target msg.NodeID) {
	from.HandOff(target, []msg.NodeID{to.self})
	for _, a := range w.arrived {
		to.HandleMessage(a.from, a.m)
	}
	w.arrived = w.arrived[:0]
}

// TestManagerHandoffRoundTripProperty is the property test behind manager
// handoff and crash/restart re-adoption: for randomized blame histories, a
// Handoff encoded, decoded and adopted by a manager that just gained the
// target transfers the ENTIRE observable state — the recipient scores the
// target identically at the handoff period and keeps scoring it identically
// under any shared continuation of blames and ticks. Re-Tracking an adopted
// target (what the harness does when a crashed node rejoins) must neither
// reset its score clock nor double-count its blame, and a Handoff delivered
// twice changes nothing the second time.
func TestManagerHandoffRoundTripProperty(t *testing.T) {
	r := rng.New(0x68616e646f66) // "handof"
	cfg := Config{M: 3, Compensation: 0.3, Eta: -1e9, GracePeriods: 4}
	const target = msg.NodeID(42)
	// Three members, M = 3: nodes 1 and 2 both manage target.
	dir := membership.Sequential(3)
	w := &wire{t: t}

	for trial := 0; trial < 200; trial++ {
		a := NewManager(1, cfg, w, dir, new(msg.Sends))
		joinP := msg.Period(r.IntN(5))
		a.Track(target, joinP)

		// A random prefix of history on the original manager: interleaved
		// blames and period advances.
		p := joinP
		for i, n := 0, r.IntN(30); i < n; i++ {
			if r.Bernoulli(0.5) {
				p++
				a.Tick(p)
			} else {
				a.Blame(target, r.Float64()*3, msg.ReasonNoAck)
			}
		}

		// Handoff: B gains target at period p, tracks it, and is pushed A's
		// copy.
		e, tracked := a.Snapshot(target)
		if !tracked {
			t.Fatalf("trial %d: target untracked on the original manager", trial)
		}
		b := NewManager(2, cfg, w, dir, new(msg.Sends))
		b.Track(target, p)
		handOff(w, a, b, target)

		if got, _ := b.Snapshot(target); got != e {
			t.Fatalf("trial %d: the handoff delivered %+v, want %+v", trial, got, e)
		}
		scoreA, _ := a.Score(target)
		scoreB, ok := b.Score(target)
		if !ok {
			t.Fatalf("trial %d: adopted target not tracked", trial)
		}
		if math.Abs(scoreA-scoreB) > 1e-12 {
			t.Fatalf("trial %d: handoff changed the score: %.12f vs %.12f", trial, scoreA, scoreB)
		}

		// Crash/restart: the target rejoins and the harness re-Tracks it on
		// both managers at a later period. JoinPeriod and blame must survive.
		before, _ := b.Snapshot(target)
		restartP := p + msg.Period(1+r.IntN(10))
		a.Track(target, restartP)
		b.Track(target, restartP)
		after, _ := b.Snapshot(target)
		if after.JoinPeriod != before.JoinPeriod {
			t.Fatalf("trial %d: re-Track reset the score clock: JoinPeriod %d -> %d",
				trial, before.JoinPeriod, after.JoinPeriod)
		}
		if after.TotalBlame != before.TotalBlame {
			t.Fatalf("trial %d: re-Track changed accumulated blame: %v -> %v",
				trial, before.TotalBlame, after.TotalBlame)
		}

		// The same Handoff again changes nothing — a repeated push must not
		// double-count anything.
		handOff(w, a, b, target)
		if again, _ := b.Snapshot(target); again != before {
			t.Fatalf("trial %d: a second handoff changed the entry: %+v -> %+v", trial, before, again)
		}

		// A shared continuation: identical blames and ticks applied to both
		// managers keep their scores identical — nothing about the handoff
		// leaks into future scoring.
		p = restartP
		a.Tick(p)
		b.Tick(p)
		for i, n := 0, r.IntN(30); i < n; i++ {
			if r.Bernoulli(0.5) {
				p++
				a.Tick(p)
				b.Tick(p)
			} else {
				v := r.Float64() * 3
				a.Blame(target, v, msg.ReasonNoAck)
				b.Blame(target, v, msg.ReasonNoAck)
			}
		}
		scoreA, _ = a.Score(target)
		scoreB, _ = b.Score(target)
		if math.Abs(scoreA-scoreB) > 1e-12 {
			t.Fatalf("trial %d: managers diverged after a shared continuation: %.12f vs %.12f",
				trial, scoreA, scoreB)
		}
		// And the score clock still predates the restart on both: r grows
		// from the ORIGINAL join, so a restarted node's history keeps
		// amortizing instead of restarting.
		if ea, _ := a.Snapshot(target); ea.JoinPeriod != e.JoinPeriod {
			t.Fatalf("trial %d: original manager's JoinPeriod drifted: %d -> %d",
				trial, e.JoinPeriod, ea.JoinPeriod)
		}
	}
}

// TestManagerAdoptCarriesExpulsion pins the other half of the handoff
// contract: an expulsion verdict travels with the entry, so a rebalance
// cannot resurrect an expelled node.
func TestManagerAdoptCarriesExpulsion(t *testing.T) {
	cfg := Config{M: 3, Compensation: 0.1, Eta: -1e9}
	dir := membership.Sequential(3)
	w := &wire{t: t}
	a := NewManager(1, cfg, w, dir, new(msg.Sends))
	a.Track(7, 0)
	a.Blame(7, 12, msg.ReasonAuditEntropy)
	a.mu.Lock()
	a.board.MarkExpelled(7, msg.ReasonAuditEntropy)
	a.mu.Unlock()

	b := NewManager(2, cfg, w, dir, new(msg.Sends))
	b.Track(7, 5)
	handOff(w, a, b, 7)
	got, _ := b.Snapshot(7)
	if !got.Expelled || got.Reason != msg.ReasonAuditEntropy || got.TotalBlame != 12 || got.JoinPeriod != 0 {
		t.Fatalf("adopted entry lost the expulsion verdict: %+v", got)
	}
}

// TestManagerRefusesForeignHandoffs is the attack test of the handoff: a
// pushed copy is taken only from a current manager of the target, only by a
// current manager of it, and only if it is Worse than the copy held. Each
// push refused below breaks one rule and must leave the receiver's entry as
// it was; those taken break none, so the others are refused for their rule
// and not for some other reason. A copy within its grace periods, as one a
// manager begins when it gains a target, takes an older copy.
func TestManagerRefusesForeignHandoffs(t *testing.T) {
	const (
		n      = 12
		target = msg.NodeID(3)
		p      = msg.Period(10)
	)
	cfg := Config{M: 4, Compensation: 0.1, Eta: -1e9, GracePeriods: 4}
	dir := membership.Sequential(n)
	mgrs := dir.Managers(target, cfg.M)
	var outsiders []msg.NodeID
	for i := msg.NodeID(0); i < n; i++ {
		if i != target && !slices.Contains(mgrs, i) {
			outsiders = append(outsiders, i)
		}
	}
	held := Entry{TotalBlame: 20, JoinPeriod: 2, Expelled: true, Reason: msg.ReasonPartialServe}
	damning := Entry{TotalBlame: 900, JoinPeriod: 0, Expelled: true, Reason: msg.ReasonAuditEntropy}

	// receiver builds a manager id holding copy e of target at period p.
	receiver := func(id msg.NodeID, e Entry) *Manager {
		m := NewManager(id, cfg, nil, dir, nil)
		m.Track(target, p)
		m.mu.Lock()
		m.board.Adopt(target, e)
		m.mu.Unlock()
		return m
	}
	push := func(e Entry) *msg.Handoff {
		return &msg.Handoff{Target: target, TotalBlame: e.TotalBlame, JoinPeriod: e.JoinPeriod, Expelled: e.Expelled, Reason: e.Reason}
	}
	cases := []struct {
		name     string
		from, to msg.NodeID
		held     Entry
		pushed   Entry
		taken    bool
	}{
		{"from a node that is not a current manager", outsiders[0], mgrs[0], held, damning, false},
		{"for a target the receiver does not manage", mgrs[0], outsiders[0], held, damning, false},
		{"carrying a lower blame rate", mgrs[0], mgrs[1],
			Entry{TotalBlame: 20, JoinPeriod: 2}, Entry{TotalBlame: 20, JoinPeriod: 0}, false},
		{"carrying no verdict", mgrs[0], mgrs[1], held, Entry{TotalBlame: 900, JoinPeriod: 0}, false},
		{"within its grace periods, to a copy past them", mgrs[0], mgrs[1],
			Entry{TotalBlame: 20, JoinPeriod: 2}, Entry{TotalBlame: 50, JoinPeriod: 9}, false},
		{"older, to a copy within its grace periods", mgrs[0], mgrs[1],
			Entry{TotalBlame: 16, JoinPeriod: 9}, Entry{TotalBlame: 20, JoinPeriod: 0}, true},
		{"worse, from a manager to a manager", mgrs[0], mgrs[1], held, damning, true},
	}
	for _, tc := range cases {
		m := receiver(tc.to, tc.held)
		h := push(tc.pushed)
		h.Sender = tc.from
		m.HandleMessage(tc.from, h)
		got, tracked := m.Snapshot(target)
		want := tc.held
		if tc.taken {
			want = tc.pushed
		}
		if !tracked || got != want {
			t.Errorf("a Handoff %s: the receiver holds %+v (tracked %t), want %+v", tc.name, got, tracked, want)
		}
	}
}
