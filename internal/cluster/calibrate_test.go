package cluster

import (
	"math"
	"testing"
	"time"

	"lifting/internal/msg"
)

// TestPilotBlameMatchesManagerCopies holds Calibrate's reading of a node's
// blame — what the pilot's clients hold against it, no batch having fallen
// due, summed in build order — to an independent tally: the same honest run
// with every batch flushed to the managers each period. The network is
// lossless, without jitter or an uplink cap, so a Blame on the wire draws no
// random number and delays no other message: the tally run is the pilot's
// event for event. The stores are too small to hold a period of stream, so
// honest nodes miss serves and blame one another. Half a period after a
// flush no Blame is in flight, and there every manager copy of a node, plus
// what the clients have held since that flush, must equal the pilot's total
// — on one shard and on two.
func TestPilotBlameMatchesManagerCopies(t *testing.T) {
	const n, stream = 40, 6 * time.Second
	opts := baseOptions(n, 0)
	opts.StoreCapacity = 8
	pilot := pilotOptions(opts, stream)
	at := stream/2 + tg/2

	ref := New(pilot)
	ref.Start()
	ref.StartStream(stream)
	ref.Run(at)
	want := ref.heldBlame()
	blamed := 0
	for _, b := range want {
		if b > 0 {
			blamed++
		}
	}
	if blamed < n/2 {
		t.Fatalf("the pilot holds blame against %d of %d nodes: the comparison would be vacuous", blamed, n)
	}
	if sent := ref.Collector.SentMsgs(msg.KindBlame); sent != 0 {
		t.Fatalf("the pilot sent %d Blames; no batch may fall due inside it", sent)
	}

	for _, shards := range []int{1, 2} {
		tally := pilot
		tally.Shards = shards
		tally.Rep.FlushEvery = 1
		tally.Rep.Eta = math.Inf(-1) // nobody is expelled: the run stays the pilot's
		c := New(tally)
		c.Start()
		c.StartStream(stream)
		c.Run(at)
		if c.ShardCount() != shards {
			t.Fatalf("the tally runs %d shards, want %d", c.ShardCount(), shards)
		}
		held := c.heldBlame()
		copies := 0
		for id := range msg.NodeID(n) {
			for _, m := range c.Dir.Managers(id, tally.Rep.M) {
				e, tracked := c.Manager(m).Snapshot(id)
				if !tracked {
					t.Fatalf("shards %d: manager %d does not track node %d", shards, m, id)
				}
				if got := e.TotalBlame + held[id]; got != want[id] {
					t.Fatalf("shards %d: node %d's copy on manager %d holds %v, and its clients %v since the flush: %v in all, the pilot %v",
						shards, id, m, e.TotalBlame, held[id], got, want[id])
				}
				if e.TotalBlame > 0 {
					copies++
				}
			}
		}
		t.Logf("shards %d: %d manager copies hold blame; the pilot blamed %d of %d nodes", shards, copies, blamed, n)
		if copies == 0 {
			t.Fatalf("shards %d: no manager copy holds any blame: the tally flushed nothing", shards)
		}
		if dropped := c.Collector.Dropped(msg.KindBlame); dropped != 0 {
			t.Fatalf("shards %d: %d Blames dropped on a lossless network", shards, dropped)
		}
	}
}
