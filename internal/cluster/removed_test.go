package cluster

import (
	"testing"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/reputation"
	"lifting/internal/rng"
)

// TestRemovedNodeBlamesNobody checks what a node taken out of the system —
// by leave, by expel or by a crash of the fault plan, all three through
// remove — does with the checks it had open: nothing. Node.Stop drops its
// verifier's serve, ack and confirm deadlines unlapsed, and ends its period
// duty, so its blame client keeps whatever it had not flushed. Everyone is
// honest on a lossless network, so nobody has cause to blame a live node, and
// the removals are staggered so that some are caught in mid-exchange.
//
//   - No removed node's blame client holds blame against a live node: its
//     duty flushes it no more after the removal, so what a lapsing check
//     would blame after it would stay there, unsent.
//   - No live node is blamed on any of its managers' copies.
//   - No Blame message is dropped. A removed node is down, so every Blame it
//     still sent would be.
//
// No live node's score moves. Live nodes may blame the removed ones for the
// exchanges the removal cut short.
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

	for _, how := range []string{"leave", "expel", "crash"} {
		opts := baseOptions(n, 0)
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
		removedClients := map[msg.NodeID]*reputation.Client{}
		for id := msg.NodeID(first); id < first+removed; id++ {
			removedClients[id] = c.duties[id].client
		}
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
				t.Fatalf("%s: node %d was never removed", how, id)
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
			t.Fatalf("%s: the scores of live nodes %v moved (blames issued: %v)", how, blamedLive, issued)
		}
		for owner, client := range removedClients {
			for _, id := range live {
				if b := client.Pending(id); b != 0 {
					t.Fatalf("%s: removed node %d holds %v blame against live node %d", how, owner, b, id)
				}
			}
		}
		for id, b := range c.managerBlames(live...) {
			if b != 0 {
				t.Fatalf("%s: live node %d took %v blame on its managers", how, id, b)
			}
		}
		if dropped := c.Collector.Dropped(msg.KindBlame); dropped != 0 {
			t.Fatalf("%s: %d Blame messages dropped; a removed node still sent blames", how, dropped)
		}
		t.Logf("%s: blames issued %v", how, issued)
	}
}

// TestVerdictsWithoutExpelOnDetection pins that the managers decide at η
// with ExpelOnDetection off: nobody is removed, but the verdicts are reached,
// recorded in Expelled and counted. Experiments read Expelled as detection.
func TestVerdictsWithoutExpelOnDetection(t *testing.T) {
	const n, firstRider, eta = 40, 34, -2.0
	opts := baseOptions(n, 0)
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
		t.Fatalf("no freerider scored under η = %v; the run decides nothing", eta)
	}
	if alive := c.Dir.NAlive(); alive != n {
		t.Fatalf("%d of %d nodes alive with ExpelOnDetection off", alive, n)
	}
	if verdicts, counted := len(c.Expelled), c.Collector.SnapshotAt(0).Expulsions; verdicts == 0 || counted == 0 {
		t.Fatalf("%d verdicts recorded, %d counted, with %d freeriders under η; want some", verdicts, counted, under)
	}
}
