package cluster

import (
	gort "runtime"
	"testing"
	"time"

	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
)

// heapCluster keeps TestBytesPerNode's cluster reachable until the process
// exits: the profile `go test -memprofile` writes then (`make heap`) is the
// one that sees a whole system's structures in use.
var heapCluster *Cluster

// TestBytesPerNode pins what a node costs in live heap once its logs are
// full: the benchmark's sim_scale shape (f 7, nh 50, M 25, 674 kbps of
// 5264-byte chunks, 1 % loss, message blames, 10 % freeriders of degree
// 0.7/0.7/0) at n = 500 on one shard, streamed 30 s — 60 periods, past nh.
// The figure covers everything the cluster holds, engine queues and manager
// tables included, divided by n.
func TestBytesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 30 s at n = 500")
	}
	const (
		n        = 500
		streamed = 30 * time.Second
		// Measured 63.5 KB, 22 of them the node's history.Log (112.3 and 72
		// while the log copied every list it was handed), 64.6 since the
		// open checks sit in per-node rings until their timeouts, 66.1 with
		// each verifier's and client's send blocks, 63.3 since the gossip
		// phase ring keeps only serve-once bits beside the log's record of
		// each phase (62.8 on Go 1.24), and 61.3 since the send blocks are
		// one set per engine shard, which every message is carved from,
		// and no node holds blocks of its own; the gate allows 20 % over.
		// `make heap` prints where they are.
		wantKB = 61.3
	)
	opts := baseOptions(n, 0.01)
	opts.Seed, opts.Shards, opts.BlameMode = 23, 1, BlameMessages
	opts.Gossip.ChunkPayload, opts.Stream.ChunkPayload = 5264, 5264
	opts.Core.Eta = -1e9
	opts.Rep = reputation.Config{M: 25, Eta: -1e9, FlushEvery: 5, GracePeriods: 24}
	opts.NetDefaults = net.Uniform(0.01, 5*time.Millisecond)
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if id >= n-n/10 {
			return freerider.Degree{Delta1: 0.7, Delta2: 0.7}
		}
		return nil
	}
	var before, after gort.MemStats
	// A previous run (-count=2) parked its cluster here: let it go before
	// the baseline, or the baseline holds a cluster the measurement frees.
	heapCluster = nil
	gort.GC()
	gort.ReadMemStats(&before)
	c := New(opts)
	c.Start()
	c.StartStream(streamed)
	c.Run(streamed)
	heapCluster = c
	gort.GC()
	gort.ReadMemStats(&after)
	if c.Collector.SnapshotAt(0).UsefulChunks == 0 {
		t.Fatal("no chunk was disseminated")
	}
	kb := float64(after.HeapAlloc-before.HeapAlloc) / n / 1024
	t.Logf("live heap per node after %v at n = %d: %.1f KB", streamed, n, kb)
	if kb > 1.2*wantKB {
		t.Errorf("a node costs %.1f KB of live heap, want at most %.1f (%.1f + 20 %%)", kb, 1.2*wantKB, wantKB)
	}
}
