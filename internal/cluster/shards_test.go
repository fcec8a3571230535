package cluster

import (
	"reflect"
	gort "runtime"
	"slices"
	"testing"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/content"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
)

// Options.Shards only ever picks a goroutine count: every configuration gets
// at least one shard of the one engine layout, policed or not, a
// configuration that cannot run concurrently gets exactly one, and the lookahead window is the default
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
		{name: "LiFTinG off", shards: 4, mutate: func(o *Options) { o.LiFTinG = false }, wantShards: 4, wantWindow: lat},
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
// change a score, an expulsion or a traffic counter — where 4 really is four
// goroutines, with LiFTinG on and with it off. Neither can the verified-once
// table (DESIGN.md "Verified once"): the reference of each is the Shards = 0
// run with no table, every payload hashed by every receiver, and each run
// with the table must equal it in expulsions, scores, the blame counts of
// every period and the collector's snapshot — invalid serves included.
//
// The population holds the matrix's adversaries (degree freeriders, a period
// stretcher, a blame spammer, a MITM coalition with stretching colluders, a
// coalition that forges audits) on links that duplicate and reorder, and the
// runs attack two ownership contracts. "Messages are read-only once sent"
// (DESIGN.md): a history.Log keeps the lists it is handed, so one advertised
// list is held by its proposer's log and phase ring, by the log of every
// partner and by every snapshot taken of any of them, on whatever shard each
// lives. With LiFTinG on every node's snapshot and asker lists are taken at
// period snapAt — held as an AuditResp in flight would be — deep-copied, and
// compared nh−1 periods later, when every ring has been round once: a writer
// to a shared list, on any shard, fails the comparison or the race detector.
// And "payload slices are never written": after every run each slice the
// source handed out — the very array every store and the table hold — must
// still hash to what it hashed to when it was generated.
func TestShardsZeroEqualsOne(t *testing.T) {
	const snapAt, nh = 12, 50
	forgers := []msg.NodeID{46, 47, 48, 49, 50, 51}
	relays := []msg.NodeID{40, 41, 42, 43}
	type outcome struct {
		c      *Cluster
		blames [][]metrics.ReasonCount // cumulative, one entry per score period
	}
	for _, policed := range []bool{true, false} {
		mode := "policed"
		streamed := (snapAt + nh) * tg
		if !policed {
			mode, streamed = "unpoliced", 10*time.Second
		}
		var ref outcome
		for _, v := range []struct {
			shards     int
			verifyOnce bool
		}{{0, false}, {0, true}, {1, true}, {4, true}} {
			opts := baseOptions(60, 0.05)
			opts.LiFTinG = policed
			opts.Shards = v.shards
			opts.ExpelOnDetection = true
			opts.Rep.Eta = -2 // under the uncalibrated b̃, where these freeriders settle
			opts.Core.Gamma, opts.Core.GammaFanin, opts.Core.MinEntropySamples = 4.5, 2.0, 16
			opts.StoreCapacity = 64 // two periods of stream: a late retry meets a server that no longer holds the bytes
			opts.Chaos = &chaos.Plan{ReorderDelay: 20 * time.Millisecond}
			opts.BehaviorFor = func(id msg.NodeID, dir *membership.Directory, r *rng.Stream) gossip.Behavior {
				switch {
				case id >= 52:
					return freerider.Degree{Delta1: 0.8, Delta2: 0.8, Delta3: 0.8}
				case id >= forgers[0]:
					col := freerider.NewColluder(id, forgers, 0.9, dir, r)
					col.ForgeUniform = true
					return col
				case id >= relays[0]:
					col := freerider.NewColluder(id, relays, 0.9, dir, r)
					col.MITM = true
					if id >= relays[2] {
						return freerider.StretchingColluder{Colluder: col, Factor: 2}
					}
					return col
				case id == 39:
					return &freerider.BlameSpammer{Self: id, Dir: dir}
				case id == 38:
					return freerider.PeriodStretcher{Factor: 2}
				}
				return nil
			}
			got := outcome{}
			opts.OnPeriodSnapshot = func(_ msg.Period, s metrics.Snapshot) {
				got.blames = append(got.blames, slices.Clone(s.BlamesIssued))
			}
			c := newCluster(opts, v.verifyOnce)
			got.c = c
			if (c.verified != nil) != v.verifyOnce {
				t.Fatalf("verifyOnce=%t: table %v", v.verifyOnce, c.verified)
			}
			if policed {
				holdSnapshots(t, c, forgers, nh, snapAt*tg, (snapAt+nh-1)*tg)
			}
			run(c, streamed)
			want := max(1, v.shards)
			if c.ShardCount() != want {
				t.Fatalf("%s Shards=%d runs %d shards, want %d", mode, v.shards, c.ShardCount(), want)
			}
			emitted := opts.Stream.ChunksBy(streamed)
			for ch := msg.ChunkID(0); int(ch) < emitted; ch++ {
				if payload, hash := c.Content.Chunk(ch); !content.Verify(payload, hash) {
					t.Fatalf("%s Shards=%d: chunk %d of the source no longer hashes to its recorded hash: a shared payload was written to", mode, v.shards, ch)
				}
			}
			if v.verifyOnce && c.verified.Puts() < uint64(emitted) {
				t.Fatalf("%s Shards=%d: %d payloads passed the full hash, the source emitted %d", mode, v.shards, c.verified.Puts(), emitted)
			}
			if ref.c == nil {
				ref = got
				snap := c.Collector.SnapshotAt(0)
				if (policed && (len(c.Expelled) == 0 || snap.InvalidServes == 0)) || snap.DupChunks == 0 || len(got.blames) < 2 {
					t.Fatalf("%s: %d expulsions, %d invalid serves, %d duplicate chunks, %d periods: the comparison would be vacuous",
						mode, len(c.Expelled), snap.InvalidServes, snap.DupChunks, len(got.blames))
				}
				continue
			}
			if !reflect.DeepEqual(c.Scores(), ref.c.Scores()) {
				t.Errorf("%s: scores at Shards=%d differ from the reference", mode, v.shards)
			}
			if !reflect.DeepEqual(c.Expelled, ref.c.Expelled) {
				t.Errorf("%s: expulsions at Shards=%d differ from the reference:\n%v\n%v", mode, v.shards, c.Expelled, ref.c.Expelled)
			}
			if !reflect.DeepEqual(got.blames, ref.blames) {
				t.Errorf("%s: per-period blame counts at Shards=%d differ from the reference", mode, v.shards)
			}
			if got, want := c.Collector.SnapshotAt(0), ref.c.Collector.SnapshotAt(0); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: collector snapshot at Shards=%d differs from the reference:\n%+v\n%+v", mode, v.shards, got, want)
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
				if a := node.History().AskersFor(suspect); len(a) > 0 {
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
