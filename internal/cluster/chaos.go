package cluster

import (
	"lifting/internal/chaos"
	"lifting/internal/msg"
)

// The fault plane: applying a chaos.Plan to a running cluster.

// startChaos schedules every event of the configured fault plan. All
// scheduling happens up front, in the plan's (sorted, deterministic) order,
// from harness timers — under the sim backend they fire in the global
// phase, where membership and condition mutations are safe and
// shard-count-invariant.
func (c *Cluster) startChaos() {
	plan := c.Opts.Chaos
	if plan == nil {
		return
	}
	for _, e := range plan.Events {
		ev := e
		c.RT.After(ev.At, func() { c.applyChaosEvent(ev) })
	}
}

// applyChaosEvent performs one fault transition: the overlay records it, the
// harness tears down or re-admits what a crash or restart names, and every
// node whose conditions the event can have changed gets them rebuilt.
func (c *Cluster) applyChaosEvent(ev chaos.Event) {
	c.mu.Lock()
	c.chaosApplied++
	c.faults.Apply(ev)
	c.mu.Unlock()
	switch ev.Kind {
	case chaos.Crash:
		for _, id := range ev.Nodes {
			c.crash(id)
		}
	case chaos.Restart:
		for _, id := range ev.Nodes {
			c.restart(id)
		}
	case chaos.Partition, chaos.Heal:
		c.applyChaosConditionsAll()
	case chaos.LossBurst, chaos.LossHeal:
		for _, id := range ev.Nodes {
			c.applyChaosConditions(id)
		}
	}
}

// applyChaosConditions pushes node id's conditions to the backend, rebuilt
// from its base (defaults or ConditionsFor) plus the standing faults. A node
// that was expelled or left stays down whatever the plan restarts.
func (c *Cluster) applyChaosConditions(id msg.NodeID) {
	cond, _ := c.Opts.conditions(id)
	c.mu.Lock()
	cond = c.faults.Conditions(id, cond)
	if c.goneLocked(id) {
		cond.Down = true
	}
	c.mu.Unlock()
	c.RT.SetConditions(id, cond)
}

// applyChaosConditionsAll reapplies conditions for every id ever seen —
// partition transitions change the group of all nodes, including down ones
// (whose Down flag the rebuild preserves).
func (c *Cluster) applyChaosConditionsAll() {
	c.mu.Lock()
	limit := c.nextID
	c.mu.Unlock()
	for id := msg.NodeID(0); id < limit; id++ {
		c.applyChaosConditions(id)
	}
}

// crash takes node id down hard: removed like a leave, its manager out of
// Managers with every score copy it held; the restart builds a fresh node and
// manager, which the managers kept by each of its targets push their copies
// to. The node's own score lives on its remote managers and is untouched. A
// deployment tears down only its own node; a remote victim leaves this
// process's directory and goes down on its network. No-op for nodes already
// gone.
func (c *Cluster) crash(id msg.NodeID) {
	c.mu.Lock()
	if c.goneLocked(id) || c.crashedNow[id] {
		c.mu.Unlock()
		return
	}
	c.crashedNow[id] = true
	c.Crashed[id] = c.RT.Now()
	node := c.Nodes[id]
	c.mu.Unlock()
	c.remove(id, node)
}

// restart brings a crashed node back with fresh protocol state, admitted
// like a churn join of the same id. A node expelled or departed while down
// stays out.
func (c *Cluster) restart(id msg.NodeID) {
	c.mu.Lock()
	if !c.crashedNow[id] || c.goneLocked(id) {
		c.mu.Unlock()
		return
	}
	delete(c.crashedNow, id)
	c.Restarted[id] = c.RT.Now()
	c.mu.Unlock()
	c.admit(id)
}

// ChaosApplied returns how many fault-plan events have fired so far.
func (c *Cluster) ChaosApplied() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chaosApplied
}
