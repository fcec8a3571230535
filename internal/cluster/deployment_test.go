package cluster

import (
	"net/netip"
	"testing"
	"time"

	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/rng"
	"lifting/internal/runtime"
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
// shared book. After a stream, a few periods, the expulsion of a remote
// member and an over-the-wire read, every remote address in the book is
// still the one the test registered.
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
	c := New(opts)
	tg := c.Opts.Gossip.Period
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
