package cluster

import (
	"maps"
	"slices"

	"lifting/internal/msg"
	"lifting/internal/reputation"
)

// Manager assignment: the score handoff a membership change
// triggers, by message (msg.Handoff).

// MaxTrackedPerManager returns the largest per-manager tracked-target count
// (0 with LiFTinG off). The soak invariants bound it by the total population
// ever seen.
func (c *Cluster) MaxTrackedPerManager() int {
	c.mu.Lock()
	mgrs := make([]*reputation.Manager, 0, len(c.Managers))
	//lint:allow ordered-map-range max reduction over the collected managers commutes
	for _, m := range c.Managers {
		mgrs = append(mgrs, m)
	}
	c.mu.Unlock()
	most := 0
	for _, m := range mgrs {
		if n := m.TrackedCount(); n > most {
			most = n
		}
	}
	return most
}

// scheduleRebalance records that node id left or (re)joined and queues a
// manager-assignment rebalance (LiFTinG only). It runs as a harness
// event so no manager locks are held when it starts, and coalesces bursts of
// membership changes (a full request upgrades a pending cheap one).
func (c *Cluster) scheduleRebalance(id msg.NodeID, full bool) {
	if !c.Opts.LiFTinG {
		return
	}
	c.mu.Lock()
	c.changed[id] = true
	c.rebalanceFull = c.rebalanceFull || full
	if c.rebalance {
		c.mu.Unlock()
		return
	}
	c.rebalance = true
	c.mu.Unlock()
	c.RT.After(0, c.rebalanceManagers)
}

// rebalanceManagers applies the manager assignment the membership changes
// since the last rebalance moved, and hands the scores off by message: for
// each target whose set changed, every hosted manager the target gained
// tracks it, every one it lost drops it, and every one it kept pushes its
// copy to the gained ones (msg.Handoff). A node (re)admitted since the last
// rebalance counts as gained wherever it is in a set: a restarted node's
// manager starts empty. A removed node's manager is gone and sends nothing:
// a score outlives a change only through the managers that stay.
// Deterministic under the simulator: targets in directory order, each
// target's managers in set order.
//
// The directory's probe assignment only changes a target's manager set when
// one of the recorded managers left (a removal) or the registration set grew
// (a join). So one pass over the directory selects the targets: after a
// join, all of them, short-circuiting the unchanged assignments; after
// removals only, those whose applied set names a changed node.
func (c *Cluster) rebalanceManagers() {
	c.mu.Lock()
	c.rebalance = false
	full := c.rebalanceFull
	c.rebalanceFull = false
	changed := c.changed
	c.changed = make(map[msg.NodeID]bool)
	p := c.period
	hosted := maps.Clone(c.Managers)
	wasChanged := func(id msg.NodeID) bool { return changed[id] }
	targets := c.Dir.All()
	if !full {
		targets = slices.DeleteFunc(targets, func(t msg.NodeID) bool {
			return !slices.ContainsFunc(c.lastMgrs[t], wasChanged)
		})
	}
	c.mu.Unlock()

	gains := 0
	var gained []msg.NodeID // one target's gained managers
	for _, target := range targets {
		newSet := c.Dir.Managers(target, c.Opts.Rep.M)
		c.mu.Lock()
		oldSet := c.lastMgrs[target]
		// An unchanged set that names a changed node names one re-admitted
		// since (a crash and a restart at one instant), whose fresh manager
		// tracks nothing yet: it still gains the target.
		if slices.Equal(oldSet, newSet) && !slices.ContainsFunc(newSet, wasChanged) {
			c.mu.Unlock()
			continue
		}
		c.lastMgrs[target] = newSet
		c.mu.Unlock()
		for _, id := range oldSet {
			if mgr := hosted[id]; mgr != nil && !slices.Contains(newSet, id) {
				mgr.Drop(target)
			}
		}
		gained = gained[:0]
		for _, id := range newSet {
			if changed[id] || !slices.Contains(oldSet, id) {
				gained = append(gained, id)
				if mgr := hosted[id]; mgr != nil {
					mgr.Track(target, p)
					gains++
				}
			}
		}
		if len(gained) == 0 {
			continue
		}
		for _, id := range newSet {
			mgr := hosted[id]
			if mgr == nil || slices.Contains(gained, id) {
				continue
			}
			// On its execution context: on the sim the rebalance's own, the
			// global phase, where every shard's send blocks are free; on udp
			// its node's.
			if c.Engine != nil {
				mgr.HandOff(target, gained)
			} else {
				target, to := target, slices.Clone(gained) // the closure's own: no capture moves the loop's to the heap
				c.RT.Exec(id, func() { mgr.HandOff(target, to) })
			}
		}
	}
	c.mu.Lock()
	c.handoffs += gains
	c.mu.Unlock()
}
