package chaos

import (
	"lifting/internal/msg"
	"lifting/internal/net"
)

// Overlay is the standing fault state a Plan's events leave behind at any
// moment — who is down, who sits in the partition's minority island, who is
// under a loss burst — and what that makes of a node's base link
// conditions. The cluster that replays a plan keeps one, whether it runs
// every node or a deployment process's one, and pushes the conditions to
// its backend; the overlay itself touches no runtime. Not safe for concurrent use: the
// replayer's lock guards it.
type Overlay struct {
	down     map[msg.NodeID]bool
	minority map[msg.NodeID]bool
	split    bool
	burst    map[msg.NodeID]float64
}

// NewOverlay returns the fault-free overlay.
func NewOverlay() *Overlay {
	return &Overlay{
		down:     make(map[msg.NodeID]bool),
		minority: make(map[msg.NodeID]bool),
		burst:    make(map[msg.NodeID]float64),
	}
}

// Apply records one fault transition.
func (o *Overlay) Apply(ev Event) {
	switch ev.Kind {
	case Crash:
		for _, id := range ev.Nodes {
			o.down[id] = true
		}
	case Restart:
		for _, id := range ev.Nodes {
			delete(o.down, id)
		}
	case Partition:
		o.split = true
		for _, id := range ev.Nodes {
			o.minority[id] = true
		}
	case Heal:
		o.split = false
		clear(o.minority)
	case LossBurst:
		for _, id := range ev.Nodes {
			o.burst[id] = ev.Loss
		}
	case LossHeal:
		for _, id := range ev.Nodes {
			delete(o.burst, id)
		}
	}
}

// Conditions lays the standing faults over node id's base conditions. Faults
// compose: a node can sit in the partition minority AND under a loss burst
// AND be down, and each heals on its own.
func (o *Overlay) Conditions(id msg.NodeID, base net.Conditions) net.Conditions {
	if o.split {
		if o.minority[id] {
			base.PartitionGroup = 2
		} else {
			base.PartitionGroup = 1
		}
	}
	if extra, ok := o.burst[id]; ok {
		// The correlated burst stacks on the link's own loss.
		base.LossIn = 1 - (1-base.LossIn)*(1-extra)
	}
	if o.down[id] {
		base.Down = true
	}
	return base
}
