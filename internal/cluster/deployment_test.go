package cluster

import (
	"context"
	"maps"
	"net/netip"
	"testing"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/sim"
	"lifting/internal/transport"
)

// deploymentOptions is the Options every process of a small deployment
// builds: blames as messages, every node a manager of every node.
func deploymentOptions(n int, self msg.NodeID, rt runtime.Runtime) Options {
	opts := fastOptions(runtime.KindUDP, n)
	opts.Seed = 11
	opts.Gossip.F, opts.Core.F = n-1, n-1
	opts.Rep.M = n
	opts.BlameMode = BlameMessages
	opts.Deployment = &Deployment{Self: self, Runtime: rt}
	return opts
}

// TestOneNodeClusterDeployment assembles a small deployment the way the
// lifting-node daemon does — one one-node cluster per transport runtime,
// peers reachable only through UDP sockets — and checks the distributed
// verdict: chunks disseminate from the source over the wire, and the
// freerider's min-vote score (read over the wire, too) lands below the
// honest nodes'.
func TestOneNodeClusterDeployment(t *testing.T) {
	const (
		n        = 6
		rider    = msg.NodeID(5)
		duration = 2400 * time.Millisecond
	)
	// One shared book stands in for the -peers bootstrap specs: every
	// runtime registers its socket there, exactly as daemons exchange
	// pre-agreed ports.
	book := transport.NewBook()
	hosts := make([]*Cluster, n)
	members := make([]msg.NodeID, n)
	for i := range hosts {
		id := msg.NodeID(i)
		members[i] = id
		rt := transport.New(transport.Options{Seed: uint64(100 + i), Book: book})
		if _, err := rt.AddNode(id, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		opts := deploymentOptions(n, id, rt)
		opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id == rider {
				return freerider.Degree{Delta1: 0.6, Delta2: 0.6, Delta3: 0.6}
			}
			return nil
		}
		hosts[i] = New(opts)
	}
	for _, h := range hosts {
		h.Start()
	}
	hosts[0].StartStream(duration)
	hosts[0].Run(duration + 4*hosts[0].Opts.Gossip.Period)

	// The verdict, read over the wire from node 0 while the deployment is
	// still live.
	reads := hosts[0].ReadScores(members[1:])
	var honest float64
	for id, r := range reads {
		if r.Replies == 0 {
			t.Errorf("score read of node %d got no manager replies", id)
		}
		if id != rider {
			honest += r.Score
		}
	}
	honestMean := honest / float64(n-2)
	t.Logf("honest mean %.2f, freerider %.2f (replies %d)",
		honestMean, reads[rider].Score, reads[rider].Replies)
	if reads[rider].Score >= honestMean {
		t.Errorf("freerider score %.2f not below honest mean %.2f over the deployment",
			reads[rider].Score, honestMean)
	}

	for _, h := range hosts {
		h.Close()
	}

	// Dissemination over the wire: everyone received most of the stream
	// through real sockets. Node state is read only after Close.
	total := hosts[0].Opts.Stream.ChunksBy(duration)
	for i, h := range hosts {
		if got := h.Nodes[msg.NodeID(i)].ChunkCount(); got*2 < total {
			t.Errorf("node %d received %d/%d chunks over UDP", i, got, total)
		}
	}

	// A closed runtime must not hang score reads (early-shutdown path):
	// partial or empty results come back within the reader deadline.
	done := make(chan struct{})
	go func() {
		hosts[0].ReadScores(members[1:])
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(4*hosts[0].Opts.Gossip.Period + 5*time.Second):
		t.Fatal("ReadScores hung on a closed runtime")
	}
}

// TestOneNodeClusterHostsOneSocket pins that a deployment cluster asks its
// transport about its own node only: the transport binds a socket for any id
// it is asked a Context, Attach or Exec for, and re-registers that id in the
// shared book. After a stream, a few periods, a planned crash and restart of
// remote member 2, the expulsion of remote member 3 and an over-the-wire
// read, every remote address in the book is still the one the test
// registered, and member 2 is back in the directory and tracked — rejoined,
// not rebuilt here.
func TestOneNodeClusterHostsOneSocket(t *testing.T) {
	const n = 5
	book := transport.NewBook()
	remote := make(map[msg.NodeID]netip.AddrPort, n-1)
	for id := msg.NodeID(1); id < n; id++ {
		// The discard port of a loopback address per member: nothing
		// answers, and nothing in this process may bind it.
		addr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 10 + byte(id)}), 9)
		book.SetAddr(id, addr)
		remote[id] = addr
	}
	rt := transport.New(transport.Options{Seed: 1, Book: book})
	if _, err := rt.AddNode(0, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	opts := deploymentOptions(n, 0, rt)
	opts.ExpelOnDetection = true
	tg := opts.Gossip.Period
	opts.Chaos = &chaos.Plan{Events: []chaos.Event{
		{At: tg, Kind: chaos.Crash, Nodes: []msg.NodeID{2}},
		{At: 3 * tg, Kind: chaos.Restart, Nodes: []msg.NodeID{2}},
	}}
	c := New(opts)
	c.Start()
	c.StartStream(4 * tg)
	c.Run(4 * tg)
	c.expel(3)
	c.Run(6 * tg)
	reads := c.ReadScores([]msg.NodeID{1, 2})
	c.Close()

	if len(c.Nodes) != 1 || c.Nodes[0] == nil {
		t.Errorf("deployment cluster hosts %d nodes, want node 0 alone", len(c.Nodes))
	}
	if c.Dir.Alive(3) {
		t.Error("expelled member 3 is still in the sampling population")
	}
	if _, ok := c.Restarted[2]; !ok || c.ChaosApplied() != 2 {
		t.Fatalf("the planned crash and restart of member 2 did not both apply (%d applied)", c.ChaosApplied())
	}
	if !c.Dir.Alive(2) {
		t.Error("restarted member 2 is not back in the sampling population")
	}
	if _, tracked := c.Managers[0].Snapshot(2); !tracked {
		t.Error("restarted member 2 is not tracked by the local manager")
	}
	if len(reads) != 2 {
		t.Errorf("ReadScores resolved %d of 2 reads", len(reads))
	}
	for id, want := range remote {
		if got, ok := book.Lookup(id); !ok || got != want {
			t.Errorf("remote member %d: book holds %v, registered %v — something bound a local socket for it", id, got, want)
		}
	}
}

// TestDeploymentStartStreamNeedsTheSource pins that only the process hosting
// node 0 can stream: anywhere else StartStream would schedule injections
// into a node that is not here.
func TestDeploymentStartStreamNeedsTheSource(t *testing.T) {
	rt := transport.New(transport.Options{Seed: 1})
	defer rt.Close()
	if _, err := rt.AddNode(1, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := New(deploymentOptions(3, 1, rt))
	defer func() {
		if recover() == nil {
			t.Error("StartStream on a cluster without node 0 did not panic")
		}
	}()
	c.StartStream(time.Second)
}

// viewRuntime is one deployment process's view of a network it shares with
// other clusters: it forwards every call and keeps the conditions its own
// cluster pushed per member — what a transport runtime in that process would
// hold — so clusters on one sim network can each be asked what they set.
type viewRuntime struct {
	runtime.Runtime
	conds map[msg.NodeID]net.Conditions
}

func newViewRuntime(rt runtime.Runtime) *viewRuntime {
	return &viewRuntime{Runtime: rt, conds: make(map[msg.NodeID]net.Conditions)}
}

func (v *viewRuntime) SetConditions(id msg.NodeID, c net.Conditions) {
	v.conds[id] = c
	v.Runtime.SetConditions(id, c)
}

func (v *viewRuntime) SetDown(id msg.NodeID, down bool) {
	c := v.conds[id]
	c.Down = down
	v.conds[id] = c
	v.Runtime.SetDown(id, down)
}

// TestDeploymentsReplayChaosLikeCluster is the fault-plane half of the
// differential test of a deployment against cluster.New: one plan — a crash
// and restart, a partition and heal, a loss burst and heal, standing
// duplication and reordering, two skewed clocks — runs through cluster.New
// and through n one-node clusters sharing one sim runtime. Just after every
// event each one-node cluster has applied as many events, recorded the same
// crash and restart times, pushed the same conditions for every member and
// holds the same directory as cluster.New, and only the victim's own cluster
// has rebuilt its node.
func TestDeploymentsReplayChaosLikeCluster(t *testing.T) {
	const (
		n        = 16
		victim   = msg.NodeID(7)
		duration = 2400 * time.Millisecond
	)
	opts := fastOptions(runtime.KindSim, n)
	opts.BlameMode = BlameMessages
	opts.NetDefaults = net.Uniform(0.02, 2*time.Millisecond)
	opts.Chaos = chaosPlan()
	opts.Chaos.ReorderDelay = 20 * time.Millisecond
	c := New(opts)
	simnet := c.RT.Network().(*net.SimNet)
	firstBuilt := maps.Clone(c.Nodes)

	// The shared network starts from what New made of the defaults: the
	// plan's standing duplication and reordering folded in.
	defaults := c.Opts.NetDefaults
	engine := sim.NewSharded(1, defaults.LatencyBase)
	shared := runtime.NewSim(engine, net.NewSimNet(engine, rng.New(opts.Seed).Derive("net"), metrics.NewCollector(), defaults))
	hosts := make([]*Cluster, n)
	views := make([]*viewRuntime, n)
	built := make([]*gossip.Node, n)
	for i := range hosts {
		views[i] = newViewRuntime(shared)
		ho := opts
		ho.Deployment = &Deployment{Self: msg.NodeID(i), Runtime: views[i]}
		hosts[i] = New(ho)
		built[i] = hosts[i].Nodes[msg.NodeID(i)]
	}

	c.Start()
	c.StartStream(duration)
	for _, h := range hosts {
		h.Start()
	}
	hosts[0].StartStream(duration)

	var times []time.Duration // the plan's distinct event times; its events are in time order
	for _, ev := range opts.Chaos.Events {
		if len(times) == 0 || times[len(times)-1] != ev.At {
			times = append(times, ev.At)
		}
	}
	for _, at := range times {
		probe := at + time.Millisecond
		c.Run(probe)
		if err := shared.Run(context.Background(), probe); err != nil {
			t.Fatal(err)
		}
		rebuilt := c.Nodes[victim] != firstBuilt[victim]
		for i, h := range hosts {
			self := msg.NodeID(i)
			if got, want := h.ChaosApplied(), c.ChaosApplied(); got != want {
				t.Errorf("at %v: cluster %d applied %d events, cluster.New %d", at, i, got, want)
			}
			if !maps.Equal(h.Crashed, c.Crashed) || !maps.Equal(h.Restarted, c.Restarted) {
				t.Errorf("at %v: cluster %d crashed %v restarted %v; cluster.New %v, %v", at, i, h.Crashed, h.Restarted, c.Crashed, c.Restarted)
			}
			for id := msg.NodeID(0); id < n; id++ {
				if got, want := views[i].conds[id], simnet.ConditionsOf(id); got != want {
					t.Errorf("at %v: cluster %d holds member %d at %+v, cluster.New at %+v", at, i, id, got, want)
				}
				if got, want := h.Dir.Alive(id), c.Dir.Alive(id); got != want {
					t.Errorf("at %v: cluster %d has member %d alive = %v, cluster.New %v", at, i, id, got, want)
				}
			}
			if len(h.Nodes) != 1 {
				t.Errorf("at %v: cluster %d holds %d nodes, want its own alone", at, i, len(h.Nodes))
			}
			if got, want := h.Nodes[self] != built[i], rebuilt && self == victim; got != want {
				t.Errorf("at %v: cluster %d rebuilt its node = %v, want %v (cluster.New rebuilt node %d: %v)", at, i, got, want, victim, rebuilt)
			}
		}
	}
	if c.ChaosApplied() != len(opts.Chaos.Events) || c.Nodes[victim] == firstBuilt[victim] {
		t.Fatalf("cluster.New applied %d of %d events and rebuilt node %d: %v; the comparison is vacuous",
			c.ChaosApplied(), len(opts.Chaos.Events), victim, c.Nodes[victim] != firstBuilt[victim])
	}
}

// TestDeploymentKeepsExpelledMemberDown: an expelled member stays down in a
// deployment process whatever the plan does next. A partition and its heal
// rebuild every member's conditions; the expelled one's keep Down.
func TestDeploymentKeepsExpelledMemberDown(t *testing.T) {
	const n = 5
	opts := fastOptions(runtime.KindSim, n)
	opts.Gossip.F, opts.Core.F = n-1, n-1
	opts.Rep.M = n
	opts.BlameMode = BlameMessages
	opts.ExpelOnDetection = true
	tg := opts.Gossip.Period
	opts.Chaos = &chaos.Plan{Events: []chaos.Event{
		{At: 2 * tg, Kind: chaos.Partition, Nodes: []msg.NodeID{1, 3}},
		{At: 4 * tg, Kind: chaos.Heal, Nodes: []msg.NodeID{1, 3}},
	}}
	engine := sim.NewSharded(1, opts.NetDefaults.LatencyBase)
	view := newViewRuntime(runtime.NewSim(engine, net.NewSimNet(engine, rng.New(opts.Seed).Derive("net"), metrics.NewCollector(), opts.NetDefaults)))
	opts.Deployment = &Deployment{Self: 0, Runtime: view}
	c := New(opts)
	c.Start()
	c.StartStream(6 * tg)
	c.Run(tg)
	c.expel(3)

	c.Run(3 * tg)
	if cond := view.conds[3]; !cond.Down || cond.PartitionGroup != 2 {
		t.Errorf("mid-partition: expelled member 3 at %+v, want down in the minority", cond)
	}
	if cond := view.conds[1]; cond.Down || cond.PartitionGroup != 2 {
		t.Errorf("mid-partition: member 1 at %+v, want up in the minority", cond)
	}
	c.Run(5 * tg)
	if c.ChaosApplied() != 2 {
		t.Fatalf("%d of 2 events applied", c.ChaosApplied())
	}
	if cond := view.conds[3]; !cond.Down || cond.PartitionGroup != 0 {
		t.Errorf("after the heal: expelled member 3 at %+v, want down and unpartitioned", cond)
	}
}
