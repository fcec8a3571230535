package cluster

import (
	"slices"
	"testing"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/msg"
	"lifting/internal/reputation"
	"lifting/internal/runtime"
)

// TestRemovedReplicaDecidesNothing pins that manager duty follows the
// membership: a node removed by leave or by expulsion takes its manager
// replica out of the cluster once the removal's rebalance has read it. A
// copy of an honest target damning enough to cross η, put into that replica
// afterwards, must then expel nobody — the replica no longer ticks.
func TestRemovedReplicaDecidesNothing(t *testing.T) {
	const target, removeAt = msg.NodeID(5), 2 * time.Second
	for _, how := range []string{"leave", "expel"} {
		opts := baseOptions(30, 0)
		opts.BlameMode = BlameMessages
		opts.Rep.Eta = -2
		opts.Rep.GracePeriods = 4
		opts.ExpelOnDetection = true
		c := New(opts)
		var mgrID msg.NodeID
		for _, m := range c.Dir.Managers(target, opts.Rep.M) {
			if m != 0 { // keep the source streaming
				mgrID = m
				break
			}
		}
		replica := c.Manager(mgrID)
		if replica == nil {
			t.Fatalf("%s: manager %d of node %d has no replica", how, mgrID, target)
		}
		if _, tracked := replica.Snapshot(target); !tracked {
			t.Fatalf("%s: manager %d does not track node %d", how, mgrID, target)
		}
		switch how {
		case "leave":
			c.ScheduleLeave(removeAt, mgrID)
		case "expel":
			c.After(removeAt, func() { c.expel(mgrID) })
		}
		// After the removal's rebalance (scheduled at the removal, zero
		// delay), the kept replica is handed a copy of the target far past η.
		c.After(removeAt+time.Millisecond, func() {
			replica.Adopt(target, reputation.Entry{TotalBlame: 1e6}, c.Period())
		})
		run(c, 6*time.Second)

		if at, expelled := c.Expelled[target]; expelled {
			t.Errorf("%s: honest node %d expelled at %v by the replica of removed node %d", how, target, at, mgrID)
		}
		if c.Manager(mgrID) != nil {
			t.Errorf("%s: removed node %d still has a replica in the cluster", how, mgrID)
		}
		for id := range c.Managers {
			if !c.Dir.Alive(id) {
				t.Errorf("%s: Managers holds non-member %d", how, id)
			}
		}
	}
}

// TestAppliedAssignmentIsTheDirectorys runs churn and crash/restart cycles in
// message mode and then checks the rebalance's one record: for every node
// ever registered, the applied manager set equals the directory's, and every
// replica in it tracks the node. Every key of Managers is a member.
func TestAppliedAssignmentIsTheDirectorys(t *testing.T) {
	opts := fastOptions(runtime.KindSim, 40)
	opts.BlameMode = BlameMessages
	opts.ExpelOnDetection = true
	opts.Chaos = &chaos.Plan{Events: []chaos.Event{
		{At: 500 * time.Millisecond, Kind: chaos.Crash, Nodes: []msg.NodeID{7, 12}},
		{At: 900 * time.Millisecond, Kind: chaos.Restart, Nodes: []msg.NodeID{7}},
		{At: 1100 * time.Millisecond, Kind: chaos.Crash, Nodes: []msg.NodeID{21}},
		{At: 1400 * time.Millisecond, Kind: chaos.Restart, Nodes: []msg.NodeID{12, 21}},
		// A crash and a restart at one instant: the restart's fresh replica
		// is the one the rebalance reads.
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
				t.Errorf("node %d: its manager %d has no replica", id, m)
			} else if _, tracked := mgr.Snapshot(id); !tracked {
				t.Errorf("node %d: its manager %d does not track it", id, m)
			}
		}
	}
}
