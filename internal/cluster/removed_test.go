package cluster

import (
	"testing"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/rng"
)

// TestRemovedNodeBlamesNobody checks what a node taken out of the system —
// by leave, by expel or by a crash of the fault plan, all three through
// remove — does with the checks it had open: nothing. Node.Stop drops its
// verifier's serve, ack and confirm deadlines unlapsed, and remove drops its
// blame client with whatever it had not flushed. Everyone is honest on a
// lossless network, so nobody has cause to blame a live node, and the removals
// are staggered so that some are caught in mid-exchange.
//
//   - Direct mode: no live node is blamed on the keeper.
//   - Message mode: no Blame message is dropped. A removed node is down, so
//     every Blame it still sent would be.
//
// In both, no live node's score moves. Live nodes may blame the removed ones
// for the exchanges the removal cut short.
func TestRemovedNodeBlamesNobody(t *testing.T) {
	const n, first, removed = 30, 7, 8
	const firstAt, apart = 5 * time.Second, 70 * time.Millisecond
	gone := func(id msg.NodeID) bool { return id >= first && id < first+removed }
	var live []msg.NodeID
	for id := msg.NodeID(0); id < n; id++ {
		if !gone(id) {
			live = append(live, id)
		}
	}

	for _, mode := range []BlameMode{BlameDirect, BlameMessages} {
		for _, how := range []string{"leave", "expel", "crash"} {
			opts := baseOptions(n, 0)
			opts.BlameMode = mode
			opts.ExpelOnDetection = true
			var crashes []chaos.Event
			for i := 0; i < removed; i++ {
				at := firstAt + time.Duration(i)*apart
				crashes = append(crashes, chaos.Event{At: at, Kind: chaos.Crash, Nodes: []msg.NodeID{first + msg.NodeID(i)}})
			}
			if how == "crash" {
				opts.Chaos = &chaos.Plan{Events: crashes}
			}
			c := New(opts)
			for _, e := range crashes {
				id := e.Nodes[0]
				switch how {
				case "leave":
					c.ScheduleLeave(e.At, id)
				case "expel":
					c.After(e.At, func() { c.expel(id) })
				}
			}
			run(c, 10*time.Second)

			for id := msg.NodeID(first); id < first+removed; id++ {
				_, left := c.Departed[id]
				_, expelled := c.Expelled[id]
				_, crashed := c.Crashed[id]
				if !left && !expelled && !crashed {
					t.Fatalf("mode %v, %s: node %d was never removed", mode, how, id)
				}
			}
			var blamedLive []msg.NodeID
			for id, score := range c.Scores() {
				if !gone(id) && score != 0 {
					blamedLive = append(blamedLive, id)
				}
			}
			issued := c.Collector.BlamesIssued()
			if len(blamedLive) != 0 {
				t.Fatalf("mode %v, %s: the scores of live nodes %v moved (blames issued: %v)", mode, how, blamedLive, issued)
			}
			if mode == BlameDirect {
				for id, b := range c.keeperBlames(live...) {
					if b != 0 {
						t.Fatalf("direct mode, %s: live node %d took %v blame on the keeper", how, id, b)
					}
				}
			} else if dropped := c.Collector.Dropped(msg.KindBlame); dropped != 0 {
				t.Fatalf("message mode, %s: %d Blame messages dropped; a removed node still sent blames", how, dropped)
			}
			t.Logf("mode %v, %s: blames issued %v", mode, how, issued)
		}
	}
}

// TestVerdictsWithoutExpelOnDetection pins that both routes decide at η
// with ExpelOnDetection off: nobody is removed in either mode, but direct
// mode's keeper and message mode's managers both reach their verdicts, and
// both record them in Expelled and count them. Experiments read Expelled as
// detection under both.
func TestVerdictsWithoutExpelOnDetection(t *testing.T) {
	const n, firstRider, eta = 40, 34, -2.0
	for _, mode := range []BlameMode{BlameDirect, BlameMessages} {
		opts := baseOptions(n, 0)
		opts.BlameMode = mode
		opts.Rep.Eta = eta
		opts.Rep.GracePeriods = 8
		opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id >= firstRider {
				return freerider.Degree{Delta1: 0.5, Delta2: 0.5, Delta3: 0.5}
			}
			return nil
		}
		c := New(opts)
		run(c, 10*time.Second)

		under := 0
		for id, score := range c.Scores() {
			if id >= firstRider && score < eta {
				under++
			}
		}
		if under == 0 {
			t.Fatalf("mode %v: no freerider scored under η = %v; the run decides nothing", mode, eta)
		}
		if alive := c.Dir.NAlive(); alive != n {
			t.Fatalf("mode %v: %d of %d nodes alive with ExpelOnDetection off", mode, alive, n)
		}
		if verdicts, counted := len(c.Expelled), c.Collector.SnapshotAt(0).Expulsions; verdicts == 0 || counted == 0 {
			t.Fatalf("mode %v: %d verdicts recorded, %d counted, with %d freeriders under η; want some", mode, verdicts, counted, under)
		}
	}
}
