package cluster

import (
	"reflect"
	gort "runtime"
	"slices"
	"testing"
	"time"

	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
)

// Options.Shards only ever picks a goroutine count: every configuration gets
// at least one shard of the one engine layout, a configuration that cannot
// run concurrently gets exactly one, and the lookahead window is the default
// base latency (the gossip period where there is none).
func TestShardCountAndWindow(t *testing.T) {
	const lat = 2 * time.Millisecond
	perCPU := max(1, gort.GOMAXPROCS(0))
	for _, tc := range []struct {
		name       string
		shards     int
		mutate     func(o *Options)
		wantShards int
		wantWindow time.Duration
	}{
		{name: "0 is one shard", shards: 0, wantShards: 1, wantWindow: lat},
		{name: "1 is one shard", shards: 1, wantShards: 1, wantWindow: lat},
		{name: "n is n", shards: 5, wantShards: 5, wantWindow: lat},
		{name: "-1 is one per CPU", shards: -1, wantShards: perCPU, wantWindow: lat},
		{name: "direct mode", shards: 4, mutate: func(o *Options) { o.BlameMode = BlameDirect }, wantShards: 1, wantWindow: lat},
		{name: "LiFTinG off", shards: 4, mutate: func(o *Options) { o.LiFTinG = false }, wantShards: 1, wantWindow: lat},
		{name: "ConditionsFor", shards: -1, mutate: func(o *Options) {
			o.ConditionsFor = func(msg.NodeID) (net.Conditions, bool) { return net.Conditions{}, false }
		}, wantShards: 1, wantWindow: lat},
		{name: "zero latency", shards: 4, mutate: func(o *Options) { o.NetDefaults.LatencyBase = 0 }, wantShards: 1, wantWindow: tg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := baseOptions(8, 0)
			opts.BlameMode = BlameMessages
			opts.Shards = tc.shards
			if tc.mutate != nil {
				tc.mutate(&opts)
			}
			c := New(opts)
			if s, w := c.shardCountAndWindow(); s != tc.wantShards || w != tc.wantWindow {
				t.Fatalf("shardCountAndWindow() = %d, %v; want %d, %v", s, w, tc.wantShards, tc.wantWindow)
			}
			if got := c.ShardCount(); got != tc.wantShards {
				t.Fatalf("ShardCount() = %d, want %d", got, tc.wantShards)
			}
			// The run must work on whatever was picked — zero latency
			// included, where every delivery lands inside the window.
			run(c, time.Second)
			if c.Collector.SnapshotAt(0).UsefulChunks == 0 {
				t.Fatal("no chunk was disseminated")
			}
		})
	}
}

// Shards 0, 1 and 4 are the same run: one layout, so the shard count cannot
// change a score, an expulsion or a traffic counter — in message mode, where
// 4 really is four goroutines, and in direct mode, which always gets one.
//
// The message-mode runs also attack the ownership contract the logs rely on
// (DESIGN.md, "Messages are read-only once sent"): a history.Log keeps the
// lists it is handed, so one advertised list is held by its proposer's log
// and phase ring, by the log of every partner and by every snapshot taken of
// any of them, on whatever shard each lives. With freeriders that filter
// proposals and colluders that forge audits in the population, every node's
// snapshot and asker lists are taken at period snapAt — held as an AuditResp
// in flight would be — deep-copied, and compared nh−1 periods later, when
// every ring has been round once: a writer to a shared list, on any shard,
// fails the comparison or the race detector.
func TestShardsZeroEqualsOne(t *testing.T) {
	const snapAt, nh = 12, 50
	coalition := []msg.NodeID{46, 47, 48, 49, 50, 51}
	for _, mode := range []BlameMode{BlameMessages, BlameDirect} {
		streamed := 10 * time.Second
		if mode == BlameMessages {
			streamed = (snapAt + nh) * tg
		}
		var ref *Cluster
		for _, shards := range []int{0, 1, 4} {
			opts := baseOptions(60, 0.05)
			opts.BlameMode = mode
			opts.Shards = shards
			opts.ExpelOnDetection = true
			opts.Rep.Eta = -2 // under the uncalibrated b̃, where these freeriders settle
			opts.Core.Gamma, opts.Core.GammaFanin, opts.Core.MinEntropySamples = 4.5, 2.0, 16
			opts.BehaviorFor = func(id msg.NodeID, dir *membership.Directory, r *rng.Stream) gossip.Behavior {
				switch {
				case id >= 52:
					return freerider.Degree{Delta1: 0.8, Delta2: 0.8, Delta3: 0.8}
				case id >= coalition[0]:
					col := freerider.NewColluder(id, coalition, 0.9, dir, r)
					col.ForgeUniform = true
					return col
				}
				return nil
			}
			c := New(opts)
			if mode == BlameMessages {
				holdSnapshots(t, c, coalition, nh, snapAt*tg, (snapAt+nh-1)*tg)
			}
			run(c, streamed)
			want := 1
			if mode == BlameMessages && shards > 1 {
				want = shards
			}
			if c.ShardCount() != want {
				t.Fatalf("mode %v Shards=%d runs %d shards, want %d", mode, shards, c.ShardCount(), want)
			}
			if ref == nil {
				ref = c
				if len(c.Expelled) == 0 {
					t.Fatalf("mode %v: nobody was expelled, the comparison would be vacuous", mode)
				}
				continue
			}
			if !reflect.DeepEqual(c.Scores(), ref.Scores()) {
				t.Errorf("mode %v: scores at Shards=%d differ from Shards=0", mode, shards)
			}
			if !reflect.DeepEqual(c.Expelled, ref.Expelled) {
				t.Errorf("mode %v: expulsions at Shards=%d differ from Shards=0:\n%v\n%v", mode, shards, c.Expelled, ref.Expelled)
			}
			if got, want := c.Collector.SnapshotAt(0), ref.Collector.SnapshotAt(0); !reflect.DeepEqual(got, want) {
				t.Errorf("mode %v: collector snapshot at Shards=%d differs from Shards=0:\n%+v\n%+v", mode, shards, got, want)
			}
		}
	}
}

// holdSnapshots audits the coalition and two honest nodes at takeAt (the
// forgers rewrite their snapshots; the auditor, on node 0's shard, reads what
// it is sent), takes every node's own snapshot and its asker list per suspect
// at the same instant, and at checkAt requires each to equal the deep copy
// made when it was taken.
func holdSnapshots(t *testing.T, c *Cluster, audited []msg.NodeID, nh int, takeAt, checkAt time.Duration) {
	type held struct {
		snap, snapCopy     *msg.AuditResp
		askers, askersCopy [][]msg.NodeID
	}
	auditor := c.Auditor(nil)
	all := make(map[msg.NodeID]*held)
	c.After(takeAt, func() {
		for _, id := range append([]msg.NodeID{20, 21}, audited...) {
			auditor.Audit(id)
		}
		for id, node := range c.Nodes {
			h := &held{snap: node.History().Snapshot(id, nh)}
			h.snapCopy = &msg.AuditResp{Sender: h.snap.Sender}
			for _, r := range h.snap.Proposals {
				r.Chunks = slices.Clone(r.Chunks)
				h.snapCopy.Proposals = append(h.snapCopy.Proposals, r)
			}
			for _, r := range h.snap.Serves {
				r.Chunks = slices.Clone(r.Chunks)
				h.snapCopy.Serves = append(h.snapCopy.Serves, r)
			}
			for suspect := range c.Nodes {
				if a := node.History().AskersFor(suspect, 0); len(a) > 0 {
					h.askers, h.askersCopy = append(h.askers, a), append(h.askersCopy, slices.Clone(a))
				}
			}
			all[id] = h
		}
	})
	c.After(checkAt, func() {
		records, lists := 0, 0
		for id, h := range all {
			if !reflect.DeepEqual(h.snap, h.snapCopy) {
				t.Errorf("node %d: the snapshot taken at %v changed by %v", id, takeAt, checkAt)
			}
			if !reflect.DeepEqual(h.askers, h.askersCopy) {
				t.Errorf("node %d: the asker lists taken at %v changed by %v", id, takeAt, checkAt)
			}
			records += len(h.snap.Proposals) + len(h.snap.Serves)
			lists += len(h.askers)
		}
		if len(all) != len(c.Nodes) || records < 10*len(all) || lists < len(all) {
			t.Errorf("held %d records and %d asker lists of %d nodes: the comparison is vacuous", records, lists, len(all))
		}
	})
}
