package cluster

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/runtime"
)

// chaosPlan builds a hand-written schedule: node 7 crashes at 1s and
// restarts at 1.6s, nodes 3-5 sit in a partition minority from 1.2s to
// 1.8s, and nodes 9-10 take a correlated 30% loss burst from 1s to 1.5s.
func chaosPlan() *chaos.Plan {
	return &chaos.Plan{
		Events: []chaos.Event{
			{At: 1000 * time.Millisecond, Kind: chaos.Crash, Nodes: []msg.NodeID{7}},
			{At: 1000 * time.Millisecond, Kind: chaos.LossBurst, Nodes: []msg.NodeID{9, 10}, Loss: 0.3},
			{At: 1200 * time.Millisecond, Kind: chaos.Partition, Nodes: []msg.NodeID{3, 4, 5}},
			{At: 1500 * time.Millisecond, Kind: chaos.LossHeal, Nodes: []msg.NodeID{9, 10}},
			{At: 1600 * time.Millisecond, Kind: chaos.Restart, Nodes: []msg.NodeID{7}},
			{At: 1800 * time.Millisecond, Kind: chaos.Heal, Nodes: []msg.NodeID{3, 4, 5}},
		},
		Skew: map[msg.NodeID]float64{11: 1.01, 12: 0.99},
	}
}

// TestChaosCrashRestartKeepsScoreState pins the tentpole's reputation
// contract: a crashed-and-restarted node keeps gossiping afterwards, and
// its managers neither reset nor restart its score clock — the tracked
// entry's JoinPeriod still predates the crash.
func TestChaosCrashRestartKeepsScoreState(t *testing.T) {
	opts := fastOptions(runtime.KindSim, 24)
	opts.BlameMode = BlameMessages
	opts.Chaos = chaosPlan()
	c := New(opts)
	c.Start()
	const duration = 3 * time.Second
	c.StartStream(duration)
	c.Run(duration)

	if _, ok := c.Crashed[7]; !ok {
		t.Fatal("scheduled crash of node 7 never happened")
	}
	if _, ok := c.Restarted[7]; !ok {
		t.Fatal("scheduled restart of node 7 never happened")
	}
	if !c.Dir.Alive(7) {
		t.Error("restarted node 7 not alive")
	}
	if c.Nodes[7].Stopped() {
		t.Error("restarted node 7 not running")
	}
	if got := c.Nodes[7].ChunkCount(); got == 0 {
		t.Error("restarted node 7 received no chunks after rejoining")
	}

	crashPeriod := msg.Period(c.Crashed[7] / opts.Gossip.Period)
	tracked := 0
	for _, m := range c.Dir.Managers(7, opts.Rep.M) {
		mgr, ok := c.Managers[m]
		if !ok {
			continue
		}
		e, isTracked := mgr.Snapshot(7)
		if !isTracked {
			continue
		}
		tracked++
		if e.JoinPeriod >= crashPeriod {
			t.Errorf("manager %d restarted node 7's score clock: JoinPeriod %d >= crash period %d",
				m, e.JoinPeriod, crashPeriod)
		}
	}
	if tracked == 0 {
		t.Fatal("no manager tracks node 7 after its restart")
	}

	// Nothing in this run is a freerider and η is -1e9: the fault plan must
	// not expel anyone.
	if len(c.Expelled) != 0 {
		t.Errorf("fault plan expelled nodes: %v", c.Expelled)
	}
	if got, want := c.ChaosApplied(), len(opts.Chaos.Events); got != want {
		t.Errorf("applied %d chaos events, want %d", got, want)
	}
	if c.MaxTrackedPerManager() > 24 {
		t.Errorf("manager state grew past the population: %d tracked", c.MaxTrackedPerManager())
	}
}

// TestChaosDeterministicByteIdentical runs the same chaos-laden seed twice
// and requires byte-identical observable state — the fault plane draws no
// randomness of its own and schedules everything up front.
func TestChaosDeterministicByteIdentical(t *testing.T) {
	run := func() string {
		opts := fastOptions(runtime.KindSim, 24)
		opts.BlameMode = BlameMessages
		opts.Chaos = chaosPlan()
		c := New(opts)
		c.Start()
		c.StartStream(2 * time.Second)
		c.Run(2 * time.Second)
		scores := c.Scores()
		ids := make([]msg.NodeID, 0, len(scores))
		for id := range scores {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out := ""
		for _, id := range ids {
			out += fmt.Sprintf("%d:%.9f;", id, scores[id])
		}
		out += fmt.Sprintf("events=%d;handoffs=%d;chunks7=%d",
			c.ChaosApplied(), c.Handoffs(), c.Nodes[7].ChunkCount())
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical chaos runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestChaosPartitionCutsMinority pins the partition semantics at the
// cluster level: while the partition holds, a minority node stops making
// stream progress; after the heal it catches up again.
func TestChaosPartitionCutsMinority(t *testing.T) {
	opts := fastOptions(runtime.KindSim, 16)
	opts.BlameMode = BlameMessages
	opts.Chaos = &chaos.Plan{
		Events: []chaos.Event{
			{At: 800 * time.Millisecond, Kind: chaos.Partition, Nodes: []msg.NodeID{3, 4}},
			{At: 1600 * time.Millisecond, Kind: chaos.Heal, Nodes: []msg.NodeID{3, 4}},
		},
	}
	c := New(opts)
	c.Start()
	const duration = 2400 * time.Millisecond
	c.StartStream(duration)

	var atCut, atHeal int
	c.After(1550*time.Millisecond, func() { atCut = c.Nodes[3].ChunkCount() })
	c.Run(duration)
	atHeal = c.Nodes[3].ChunkCount()

	majorityEnd := c.Nodes[8].ChunkCount()
	if majorityEnd == 0 {
		t.Fatal("majority made no stream progress at all")
	}
	// During [0.8s, 1.55s] the minority node is cut off from the source's
	// side: it may finish chunks already in flight but must fall well
	// behind the majority's pace, then recover after the heal.
	if atCut >= majorityEnd {
		t.Errorf("partitioned node 3 kept pace through the cut: %d chunks vs majority %d", atCut, majorityEnd)
	}
	if atHeal <= atCut {
		t.Errorf("node 3 made no progress after the heal: %d then, %d at end", atCut, atHeal)
	}
}

// TestChaosRunsOnLiveBackend exercises the same fault schedule on the
// wall-clock socket runtime (loopback UDP): crash, restart, partition and
// heal all apply without deadlock or expulsion.
func TestChaosRunsOnLiveBackend(t *testing.T) {
	opts := fastOptions(runtime.KindUDP, 12)
	opts.BlameMode = BlameMessages
	opts.Chaos = &chaos.Plan{
		Events: []chaos.Event{
			{At: 400 * time.Millisecond, Kind: chaos.Crash, Nodes: []msg.NodeID{5}},
			{At: 500 * time.Millisecond, Kind: chaos.Partition, Nodes: []msg.NodeID{2, 3}},
			{At: 800 * time.Millisecond, Kind: chaos.Restart, Nodes: []msg.NodeID{5}},
			{At: 900 * time.Millisecond, Kind: chaos.Heal, Nodes: []msg.NodeID{2, 3}},
		},
		Skew: map[msg.NodeID]float64{7: 1.02},
	}
	c := New(opts)
	c.Start()
	c.StartStream(1500 * time.Millisecond)
	c.Run(1800 * time.Millisecond)
	c.Close()

	if _, ok := c.Crashed[5]; !ok {
		t.Fatal("crash never applied under udp backend")
	}
	if _, ok := c.Restarted[5]; !ok {
		t.Fatal("restart never applied under udp backend")
	}
	if !c.Dir.Alive(5) {
		t.Error("restarted node 5 not alive")
	}
	if len(c.Expelled) != 0 {
		t.Errorf("fault plan expelled nodes under udp backend: %v", c.Expelled)
	}
}

// TestCalibrateIgnoresChaosAndSnapshots: Calibrate owns what an honest,
// clean pilot is. A fault plan and a snapshot hook on the options it is
// handed change nothing it measures, and the hook — the caller's, meant for
// the run the pilot calibrates — is never called.
func TestCalibrateIgnoresChaosAndSnapshots(t *testing.T) {
	const pilot = 3 * time.Second
	clean := fastOptions(runtime.KindSim, 24)
	clean.NetDefaults.LossIn = 0.03 // wrongful blame to measure
	want, err := Calibrate(context.Background(), clean, pilot)
	if err != nil {
		t.Fatal(err)
	}

	faulty := clean
	faulty.Chaos = chaosPlan()
	faulty.Chaos.ReorderDelay = 20 * time.Millisecond
	snapshots := 0
	faulty.OnPeriodSnapshot = func(msg.Period, metrics.Snapshot) { snapshots++ }
	got, err := Calibrate(context.Background(), faulty, pilot)
	if err != nil {
		t.Fatal(err)
	}
	if snapshots != 0 {
		t.Errorf("the pilot called the caller's snapshot hook %d times", snapshots)
	}
	if got != want {
		t.Errorf("the fault plan reached the pilot:\n with plan: b̃ %v σ %v\n without:   b̃ %v σ %v",
			got.Compensation, got.ScoreStd, want.Compensation, want.ScoreStd)
	}
	if want.Compensation <= 0 {
		t.Fatalf("clean pilot measured no wrongful blame (b̃ = %v); the comparison is vacuous", want.Compensation)
	}
}
