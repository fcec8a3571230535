package cluster

import (
	"maps"
	"slices"
	"testing"
	"time"

	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
)

// boards is what managers hold: manager → target → copy of its score.
type boards map[msg.NodeID]map[msg.NodeID]reputation.Entry

// oracleRebalance is the rebalance this package ran before managers handed
// scores off by message, kept as the oracle of that handoff. The harness
// read every candidate manager's copy of a target — the old set and the new,
// a removed node's manager included — and installed the most pessimistic in
// the managers the target gained; after a join it also upgraded every
// manager of the new set holding a milder copy, and dropped the target from
// the managers that lost it. live holds the copies of the managers still
// hosted and removed those of the managers the change removed; live is
// updated in place. oldSets are the sets last applied, newSets the
// directory's now, p the current period and grace the grace periods.
func oracleRebalance(live, removed boards, targets []msg.NodeID, oldSets, newSets map[msg.NodeID][]msg.NodeID, full bool, p msg.Period, grace int) {
	wasRemoved := func(id msg.NodeID) bool {
		_, ok := removed[id]
		return ok
	}
	replica := func(id msg.NodeID) map[msg.NodeID]reputation.Entry {
		if b, ok := live[id]; ok {
			return b
		}
		return removed[id]
	}
	for _, target := range targets {
		newSet, oldSet := newSets[target], oldSets[target]
		if slices.Equal(oldSet, newSet) && !slices.ContainsFunc(newSet, wasRemoved) {
			continue
		}
		cand := slices.Clone(oldSet)
		for _, m := range newSet {
			if !slices.Contains(oldSet, m) {
				cand = append(cand, m)
			}
		}
		slices.Sort(cand)
		var best reputation.Entry
		bestOK := false
		for _, id := range cand {
			if e, tracked := replica(id)[target]; tracked && (!bestOK || reputation.Worse(e, best, p, grace)) {
				best, bestOK = e, true
			}
		}
		for _, m := range newSet {
			b := replica(m)
			if b == nil {
				continue
			}
			if e, tracked := b[target]; tracked {
				if full && bestOK && reputation.Worse(best, e, p, grace) {
					b[target] = best
				}
				continue
			}
			if bestOK {
				b[target] = best
			} else {
				b[target] = reputation.Entry{JoinPeriod: p}
			}
		}
		if !full {
			continue
		}
		for _, id := range cand {
			if b := replica(id); b != nil && !slices.Contains(newSet, id) {
				delete(b, target)
			}
		}
	}
}

// TestHandoffMatchesOracle drives churn — joins, leaves and expulsions — in
// message mode with no loss and no crash, each change half a period after a
// blame flush, so no blame is in flight across one. Just before each change
// it copies every manager's board; once the change's Handoffs have landed,
// every hosted manager must hold exactly what the oracle computes from those
// copies, and track nothing else.
func TestHandoffMatchesOracle(t *testing.T) {
	opts := fastOptions(runtime.KindSim, 40)
	opts.BlameMode = BlameMessages
	opts.ExpelOnDetection = true
	riders := map[msg.NodeID]bool{5: true, 11: true, 23: true}
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if riders[id] {
			return freerider.Degree{Delta1: 0.5, Delta2: 0.5, Delta3: 0.5}
		}
		return nil
	}
	tg := opts.Gossip.Period
	c := New(opts)

	type change struct {
		kind string
		id   msg.NodeID
	}
	at := func(k int) time.Duration { return time.Duration(k)*tg + tg/2 }
	check := func(k int, ch change) {
		var live boards
		var oldSets map[msg.NodeID][]msg.NodeID
		c.After(at(k)-tg/8, func() {
			live = make(boards)
			for id, mgr := range c.Managers {
				b := make(map[msg.NodeID]reputation.Entry)
				for _, target := range c.Dir.All() {
					if e, tracked := mgr.Snapshot(target); tracked {
						b[target] = e
					}
				}
				live[id] = b
			}
			oldSets = maps.Clone(c.lastMgrs)
		})
		c.After(at(k)+tg/4, func() {
			p := c.Period()
			newSets := make(map[msg.NodeID][]msg.NodeID)
			for _, target := range c.Dir.All() {
				newSets[target] = c.Dir.Managers(target, opts.Rep.M)
			}
			removed := boards{}
			targets := c.Dir.All()
			full := ch.kind == "join"
			if full {
				// The joiner's manager starts empty, and registration
				// tracked the joiner on its managers.
				live[ch.id] = map[msg.NodeID]reputation.Entry{}
				for _, m := range newSets[ch.id] {
					live[m][ch.id] = reputation.Entry{JoinPeriod: p}
				}
				oldSets[ch.id] = newSets[ch.id]
			} else {
				removed[ch.id] = live[ch.id]
				delete(live, ch.id)
				targets = slices.DeleteFunc(targets, func(t msg.NodeID) bool { return !slices.Contains(oldSets[t], ch.id) })
			}
			oracleRebalance(live, removed, targets, oldSets, newSets, full, p, c.Opts.Rep.GracePeriods)

			if len(c.Managers) != len(live) {
				t.Fatalf("after the %s of %d: %d hosted managers, the oracle's %d", ch.kind, ch.id, len(c.Managers), len(live))
			}
			for id, mgr := range c.Managers {
				if _, ok := live[id]; !ok {
					t.Fatalf("after the %s of %d: manager %d is hosted, not the oracle's", ch.kind, ch.id, id)
				}
				if n := mgr.TrackedCount(); n != len(live[id]) {
					t.Errorf("after the %s of %d: manager %d tracks %d targets, the oracle's %d", ch.kind, ch.id, id, n, len(live[id]))
				}
				for target, want := range live[id] {
					if got, tracked := mgr.Snapshot(target); !tracked || got != want {
						t.Errorf("after the %s of %d: manager %d holds %+v (tracked %t) for %d, the oracle %+v",
							ch.kind, ch.id, id, got, tracked, target, want)
					}
				}
			}
		})
	}
	// Changes every other period from period 6 on: leaves, expulsions (two
	// of the freeriders, by the harness: η is out of reach) and joins.
	plan := []change{
		{"leave", 7}, {"join", 0}, {"expel", 5}, {"leave", 16}, {"join", 0},
		{"join", 0}, {"expel", 23}, {"leave", 31}, {"join", 0}, {"leave", 2},
	}
	for i, ch := range plan {
		k := 6 + 2*i
		switch ch.kind {
		case "join":
			ch.id = c.ScheduleJoin(at(k))
		case "leave":
			c.ScheduleLeave(at(k), ch.id)
		case "expel":
			id := ch.id
			c.After(at(k), func() { c.expel(id) })
		}
		check(k, ch)
	}
	run(c, at(6+2*len(plan)))

	if len(c.Joined) != 4 || len(c.Departed) != 4 || len(c.Expelled) != 2 {
		t.Fatalf("joined %v, departed %v, expelled %v: the plan did not run", c.Joined, c.Departed, c.Expelled)
	}
	if c.Handoffs() == 0 {
		t.Fatal("the churn gave no manager a target")
	}
}
