package reputation

import (
	"slices"
	"sort"
	"testing"

	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/rng"
)

// refSweep is the direct-mode score-keeper the cluster harness carried until
// a Manager blamed by call replaced it: a bare Board behind the harness's
// lock, and the period sweep Cluster.tick ran over it. Kept as the reference
// the keeper is driven against. The sweep is the one the harness ran under
// expel-on-detection; the keeper decides at η whatever that setting.
type refSweep struct {
	board *Board
	grace int
	eta   float64
	expel func(msg.NodeID)
}

func (r *refSweep) tick(p msg.Period) {
	r.board.SetPeriod(p)
	var toExpel []msg.NodeID
	r.board.Each(func(id msg.NodeID, e Entry) {
		if e.Expelled || r.board.Periods(id) < r.grace {
			return
		}
		if r.board.Score(id) < r.eta {
			toExpel = append(toExpel, id)
		}
	})
	sort.Slice(toExpel, func(i, j int) bool { return toExpel[i] < toExpel[j] })
	for _, id := range toExpel {
		r.board.MarkExpelled(id, msg.ReasonUnknown)
	}
	for _, id := range toExpel {
		r.expel(id)
	}
}

// TestKeeperMatchesBoardSweep drives a keeper — a Manager with M = 0 and no
// network, blamed by Blame, registered by Track, decided by Tick — and the
// reference with one seeded sequence of blames, period advances and late
// joins, some of them blamed hard from the period they join so that they
// cross η inside the grace window and must wait it out. Every period both
// hold bit-equal scores and have expelled the same nodes in the same order.
func TestKeeperMatchesBoardSweep(t *testing.T) {
	const (
		initial = 40
		periods = 60
		grace   = 8
		comp    = 1.2
		eta     = -3.0
	)
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed).Derive("keeper")
		var wantOrder, gotOrder []msg.NodeID

		ref := &refSweep{board: NewBoard(comp), grace: grace, eta: eta,
			expel: func(id msg.NodeID) { wantOrder = append(wantOrder, id) }}
		cfg := Config{M: 0, Compensation: comp, Eta: eta, GracePeriods: grace,
			OnExpel: func(id msg.NodeID, _ msg.BlameReason) { gotOrder = append(gotOrder, id) }}
		keeper := NewManager(0, cfg, nil, membership.Sequential(initial), nil)

		ids := make([]msg.NodeID, 0, initial+periods)
		hard := map[msg.NodeID]bool{} // blamed well past η every period
		join := func(id msg.NodeID, p msg.Period) {
			ref.board.Join(id)
			keeper.Track(id, p)
			ids = append(ids, id)
		}
		for id := msg.NodeID(0); id < initial; id++ {
			join(id, 0)
			hard[id] = id%9 == 4
		}
		crossedInGrace := 0
		for p := msg.Period(1); p <= periods; p++ {
			for i, n := 0, r.IntN(3*len(ids)); i < n; i++ {
				target, value := ids[r.IntN(len(ids))], r.Float64()*2
				ref.board.AddBlame(target, value)
				keeper.Blame(target, value, msg.ReasonNoAck)
			}
			for _, id := range ids {
				if hard[id] {
					ref.board.AddBlame(id, 7)
					keeper.Blame(id, 7, msg.ReasonPartialServe)
				}
			}
			ref.tick(p)
			keeper.Tick(p)
			if r.Bernoulli(0.4) { // a late join, registered at the current period
				id := msg.NodeID(initial) + msg.NodeID(p)
				join(id, p)
				hard[id] = r.Bernoulli(0.5)
			}

			if !slices.Equal(gotOrder, wantOrder) {
				t.Fatalf("seed %d period %d: keeper expelled %v, sweep %v", seed, p, gotOrder, wantOrder)
			}
			for _, id := range ids {
				got, tracked := keeper.Score(id)
				if want := ref.board.Score(id); !tracked || got != want {
					t.Fatalf("seed %d period %d: node %d scores %v (tracked %v) on the keeper, %v on the board", seed, p, id, got, tracked, want)
				}
				if e, _ := keeper.Snapshot(id); e.Expelled != ref.board.Expelled(id) {
					t.Fatalf("seed %d period %d: node %d expelled %v on the keeper, %v on the board", seed, p, id, e.Expelled, ref.board.Expelled(id))
				}
				if got < eta && ref.board.Periods(id) < grace && id >= initial {
					crossedInGrace++
				}
			}
		}
		if len(gotOrder) < initial/9 || crossedInGrace == 0 {
			t.Fatalf("seed %d: %d expelled, %d late joiners under η inside grace; the sequence must exercise both", seed, len(gotOrder), crossedInGrace)
		}
	}
}

// TestKeeperBlameOnlyAccumulates pins what keeps direct mode's documents
// still: Blame never decides. However far under η a score is driven, the
// verdict waits for the period boundary.
func TestKeeperBlameOnlyAccumulates(t *testing.T) {
	var expelled []msg.NodeID
	keeper := NewManager(0, Config{Eta: -1, OnExpel: func(id msg.NodeID, _ msg.BlameReason) { expelled = append(expelled, id) }},
		nil, membership.Sequential(4), nil)
	keeper.Track(2, 0)
	keeper.Tick(5)
	for i := 0; i < 100; i++ {
		keeper.Blame(2, 1e6, msg.ReasonNoAck)
	}
	if e, _ := keeper.Snapshot(2); len(expelled) != 0 || e.Expelled {
		t.Fatalf("Blame expelled on arrival: %v, entry %+v", expelled, e)
	}
	if s, _ := keeper.Score(2); s >= -1 {
		t.Fatalf("score %v, want far under η", s)
	}
	keeper.Tick(6)
	if !slices.Equal(expelled, []msg.NodeID{2}) {
		t.Fatalf("Tick expelled %v, want [2]", expelled)
	}
}
