package cluster

import (
	"reflect"
	gort "runtime"
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
func TestShardsZeroEqualsOne(t *testing.T) {
	for _, mode := range []BlameMode{BlameMessages, BlameDirect} {
		var ref *Cluster
		for _, shards := range []int{0, 1, 4} {
			opts := baseOptions(60, 0.05)
			opts.BlameMode = mode
			opts.Shards = shards
			opts.ExpelOnDetection = true
			opts.Rep.Eta = -2 // under the uncalibrated b̃, where these freeriders settle
			opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
				if id >= 52 {
					return freerider.Degree{Delta1: 0.8, Delta2: 0.8, Delta3: 0.8}
				}
				return nil
			}
			c := New(opts)
			run(c, 10*time.Second)
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
