package cluster

import (
	"context"
	"testing"
	"time"

	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/msg"
	"lifting/internal/reputation"
	"lifting/internal/stream"
	"lifting/internal/transport"
)

// TestNodeHostDeployment assembles a small deployment the way the
// lifting-node daemon does — one NodeHost per transport runtime, peers
// reachable only through UDP sockets — and checks the distributed verdict:
// chunks disseminate from the source over the wire, and the freerider's
// min-vote score (read over the wire, too) lands below the honest nodes'.
func TestNodeHostDeployment(t *testing.T) {
	const (
		n        = 6
		rider    = msg.NodeID(5)
		tg       = 80 * time.Millisecond
		duration = 2400 * time.Millisecond
	)
	members := make([]msg.NodeID, n)
	for i := range members {
		members[i] = msg.NodeID(i)
	}

	baseOpts := func(id msg.NodeID) NodeOptions {
		return NodeOptions{
			ID:      id,
			Members: members,
			Seed:    11,
			Gossip: gossip.Config{
				F:              n - 1,
				Period:         tg,
				ChunkPayload:   256,
				HistoryPeriods: 50,
			},
			Core: core.Config{
				F:              n - 1,
				Period:         tg,
				Pdcc:           1,
				HistoryPeriods: 50,
				Gamma:          8,
				Eta:            -1e9,
			},
			Rep:    reputation.Config{M: n, Eta: -1e9},
			Stream: stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
			Source: id == 0,
		}
	}

	// One shared book stands in for the -peers bootstrap specs: every
	// runtime registers its socket there, exactly as daemons exchange
	// pre-agreed ports.
	book := transport.NewBook()
	hosts := make([]*NodeHost, n)
	for i := 0; i < n; i++ {
		id := msg.NodeID(i)
		rt := transport.New(transport.Options{Seed: uint64(100 + i), Book: book})
		if _, err := rt.AddNode(id, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		opts := baseOpts(id)
		if id == rider {
			opts.Behavior = freerider.Degree{Delta1: 0.6, Delta2: 0.6, Delta3: 0.6}
		}
		hosts[i] = NewNodeHost(rt, opts)
	}
	for _, h := range hosts {
		h.Start()
	}
	hosts[0].StartStream(duration)
	hosts[0].RT.Run(context.Background(), duration+4*tg)

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
		h.RT.Close()
	}

	// Dissemination over the wire: everyone received most of the stream
	// through real sockets. Node state is read only after Close.
	total := hosts[0].Opts.Stream.ChunksBy(duration)
	for _, h := range hosts {
		if got := h.Node.ChunkCount(); got*2 < total {
			t.Errorf("node %d received %d/%d chunks over UDP", h.Opts.ID, got, total)
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
