package cluster

import (
	"slices"
	"testing"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
)

// TestRemovedReplicaDecidesNothing pins that manager duty follows the
// membership: a node removed by leave or by expulsion takes its manager out
// of the cluster at the removal. A copy of an honest target damning enough
// to cross η, put into that manager by message right after the removal and
// inside the copy's grace periods (so the Blame's arrival decides nothing),
// must then expel nobody once the grace is over — the manager no longer
// ticks.
func TestRemovedReplicaDecidesNothing(t *testing.T) {
	const target, removeAt = msg.NodeID(5), 2 * time.Second
	for _, how := range []string{"leave", "expel"} {
		opts := baseOptions(30, 0)
		opts.Rep.Eta = -2
		opts.Rep.GracePeriods = 6 // past the removal, at 2 s = 4 periods
		opts.ExpelOnDetection = true
		c := New(opts)
		var mgrID msg.NodeID
		for _, m := range c.Dir.Managers(target, opts.Rep.M) {
			if m != 0 { // keep the source streaming
				mgrID = m
				break
			}
		}
		mgr := c.Manager(mgrID)
		if mgr == nil {
			t.Fatalf("%s: node %d has no manager", how, mgrID)
		}
		if _, tracked := mgr.Snapshot(target); !tracked {
			t.Fatalf("%s: manager %d does not track node %d", how, mgrID, target)
		}
		switch how {
		case "leave":
			c.ScheduleLeave(removeAt, mgrID)
		case "expel":
			c.After(removeAt, func() { c.expel(mgrID) })
		}
		// After the removal, the manager's copy of the target is blamed far
		// past η: a verdict at the first tick past the grace periods, were
		// the manager still ticked.
		c.After(removeAt+time.Millisecond, func() {
			mgr.HandleMessage(1, &msg.Blame{Sender: 1, Target: target, Value: 1e6})
		})
		run(c, 6*time.Second)

		if at, expelled := c.Expelled[target]; expelled {
			t.Errorf("%s: honest node %d expelled at %v by the manager of removed node %d", how, target, at, mgrID)
		}
		if c.Manager(mgrID) != nil {
			t.Errorf("%s: removed node %d still has a manager in the cluster", how, mgrID)
		}
		for id := range c.Managers {
			if !c.Dir.Alive(id) {
				t.Errorf("%s: Managers holds non-member %d", how, id)
			}
		}
	}
}

// TestAppliedAssignmentIsTheDirectorys runs churn and crash/restart cycles and
// then checks the rebalance's one record: for every node ever registered, the
// applied manager set equals the directory's, and every manager in it tracks
// the node. Every key of Managers is a member.
func TestAppliedAssignmentIsTheDirectorys(t *testing.T) {
	opts := fastOptions(runtime.KindSim, 40)
	opts.ExpelOnDetection = true
	opts.Chaos = &chaos.Plan{Events: []chaos.Event{
		{At: 500 * time.Millisecond, Kind: chaos.Crash, Nodes: []msg.NodeID{7, 12}},
		{At: 900 * time.Millisecond, Kind: chaos.Restart, Nodes: []msg.NodeID{7}},
		{At: 1100 * time.Millisecond, Kind: chaos.Crash, Nodes: []msg.NodeID{21}},
		{At: 1400 * time.Millisecond, Kind: chaos.Restart, Nodes: []msg.NodeID{12, 21}},
		// A crash and a restart at one instant: the restart's fresh manager
		// gains every target in its sets.
		{At: 1700 * time.Millisecond, Kind: chaos.Crash, Nodes: []msg.NodeID{30}},
		{At: 1700 * time.Millisecond, Kind: chaos.Restart, Nodes: []msg.NodeID{30}},
	}}
	c := New(opts)
	for i := 0; i < 6; i++ {
		at := 300*time.Millisecond + time.Duration(i)*250*time.Millisecond
		c.ScheduleJoin(at)
		// Node 7 leaves while crashed, and so never restarts.
		c.ScheduleLeave(at+100*time.Millisecond, msg.NodeID(2+5*i))
	}
	c.After(time.Second, func() { c.expel(33) })
	run(c, 2500*time.Millisecond)

	if got, want := c.ChaosApplied(), len(opts.Chaos.Events); got != want {
		t.Fatalf("applied %d chaos events, want %d", got, want)
	}
	if len(c.Departed) == 0 || len(c.Joined) == 0 || len(c.Restarted) == 0 {
		t.Fatalf("departed %v, joined %v, restarted %v: the run must churn and restart", c.Departed, c.Joined, c.Restarted)
	}
	for id := range c.Managers {
		if !c.Dir.Alive(id) {
			t.Errorf("Managers holds non-member %d", id)
		}
	}
	for _, id := range c.Dir.All() {
		want := c.Dir.Managers(id, opts.Rep.M)
		if got := c.lastMgrs[id]; !slices.Equal(got, want) {
			t.Errorf("node %d: applied managers %v, directory's %v", id, got, want)
		}
		for _, m := range want {
			if mgr := c.Managers[m]; mgr == nil {
				t.Errorf("node %d: its manager %d is not hosted", id, m)
			} else if _, tracked := mgr.Snapshot(id); !tracked {
				t.Errorf("node %d: its manager %d does not track it", id, m)
			}
		}
	}
}

// TestCrashOfEveryManagerLosesTheScore states what the handoff cannot save:
// a score lives only in its managers' copies, so when all M managers of a
// freerider crash at once its score starts again from a fresh entry. The
// replacements the crash brings in have no manager to be pushed a copy by,
// and when the crashed managers restart with empty boards they take the
// target back from replacements that drop it. M managers per node are there
// for exactly this case: one surviving copy is enough.
func TestCrashOfEveryManagerLosesTheScore(t *testing.T) {
	const crashAt, restartAt = 800 * time.Millisecond, 1100 * time.Millisecond
	opts := fastOptions(runtime.KindSim, 40)
	tg := opts.Gossip.Period
	probe := New(opts)
	// The freerider: the first node none of whose managers is the source,
	// which the plan must not crash.
	var rider msg.NodeID
	var mgrs []msg.NodeID
	for id := msg.NodeID(1); ; id++ {
		if mgrs = probe.Dir.Managers(id, opts.Rep.M); !slices.Contains(mgrs, 0) {
			rider = id
			break
		}
	}
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if id == rider {
			return freerider.Degree{Delta1: 0.5, Delta2: 0.5, Delta3: 0.5}
		}
		return nil
	}
	opts.Chaos = &chaos.Plan{Events: []chaos.Event{
		{At: crashAt, Kind: chaos.Crash, Nodes: slices.Clone(mgrs)},
		{At: restartAt, Kind: chaos.Restart, Nodes: slices.Clone(mgrs)},
	}}
	c := New(opts)
	copies := func() []reputation.Entry {
		var out []reputation.Entry
		for _, m := range c.Dir.Managers(rider, opts.Rep.M) {
			if e, tracked := c.Manager(m).Snapshot(rider); tracked {
				out = append(out, e)
			}
		}
		return out
	}
	var before, after []reputation.Entry
	var crashPeriod msg.Period
	c.After(crashAt-tg/2, func() { before, crashPeriod = copies(), c.Period() })
	c.After(restartAt+tg/2, func() { after = copies() })
	run(c, 2*time.Second)

	if len(before) != opts.Rep.M {
		t.Fatalf("before the crash %d of the %d managers track freerider %d", len(before), opts.Rep.M, rider)
	}
	for _, e := range before {
		if e.JoinPeriod != 0 || e.TotalBlame == 0 {
			t.Fatalf("before the crash a manager holds %+v for freerider %d: want its blamed entry from period 0", e, rider)
		}
	}
	if !slices.Equal(c.Dir.Managers(rider, opts.Rep.M), mgrs) {
		t.Fatalf("after the restarts freerider %d is managed by %v, not its managers %v", rider, c.Dir.Managers(rider, opts.Rep.M), mgrs)
	}
	if len(after) != opts.Rep.M {
		t.Fatalf("after the restarts %d of the %d managers track freerider %d", len(after), opts.Rep.M, rider)
	}
	for _, e := range after {
		if e.JoinPeriod <= crashPeriod {
			t.Errorf("after the restarts a manager holds %+v for freerider %d: its score kept its history through the crash of every manager (crash at period %d)", e, rider, crashPeriod)
		}
	}
}
