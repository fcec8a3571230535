package chaos

import (
	"testing"
	"time"

	"lifting/internal/msg"
	"lifting/internal/net"
)

// TestOverlayComposesAndHealsInAnyOrder stacks a partition, a loss burst and
// a crash on one node and takes them away again, in every order of both:
// after each event the node's conditions are exactly what the faults still
// standing make of its base, and a bystander's only ever show the partition.
func TestOverlayComposesAndHealsInAnyOrder(t *testing.T) {
	const victim, bystander = msg.NodeID(3), msg.NodeID(5)
	base := net.Conditions{LossIn: 0.1, LatencyBase: 4 * time.Millisecond, DupProb: 0.01}
	const (
		split = 1 << iota
		burst
		down
	)
	faults := []struct {
		bit         int
		start, heal Event
	}{
		{split, Event{Kind: Partition, Nodes: []msg.NodeID{victim}}, Event{Kind: Heal, Nodes: []msg.NodeID{victim}}},
		{burst, Event{Kind: LossBurst, Nodes: []msg.NodeID{victim}, Loss: 0.25}, Event{Kind: LossHeal, Nodes: []msg.NodeID{victim}}},
		{down, Event{Kind: Crash, Nodes: []msg.NodeID{victim}}, Event{Kind: Restart, Nodes: []msg.NodeID{victim}}},
	}
	// What each set of standing faults makes of the victim's base.
	want := map[int]net.Conditions{}
	for set := 0; set < 8; set++ {
		c := base
		if set&split != 0 {
			c.PartitionGroup = 2
		}
		if set&burst != 0 {
			c.LossIn = 0.325 // 1 − 0.9·0.75
		}
		c.Down = set&down != 0
		want[set] = c
	}
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

	for _, up := range orders {
		for _, heal := range orders {
			o := NewOverlay()
			standing := 0
			check := func(after Event) {
				t.Helper()
				got := o.Conditions(victim, base)
				if d := got.LossIn - want[standing].LossIn; d > 1e-12 || d < -1e-12 {
					t.Fatalf("up %v heal %v, after %v: victim LossIn %v, want %v", up, heal, after.Kind, got.LossIn, want[standing].LossIn)
				}
				got.LossIn = want[standing].LossIn
				if got != want[standing] {
					t.Fatalf("up %v heal %v, after %v: victim %+v, want %+v", up, heal, after.Kind, got, want[standing])
				}
				by := base
				if standing&split != 0 {
					by.PartitionGroup = 1
				}
				if got := o.Conditions(bystander, base); got != by {
					t.Fatalf("up %v heal %v, after %v: bystander %+v, want %+v", up, heal, after.Kind, got, by)
				}
			}
			for _, i := range up {
				o.Apply(faults[i].start)
				standing |= faults[i].bit
				check(faults[i].start)
			}
			for _, i := range heal {
				o.Apply(faults[i].heal)
				standing &^= faults[i].bit
				check(faults[i].heal)
			}
		}
	}
}
