package cluster

import (
	"slices"
	"sort"

	"lifting/internal/msg"
	"lifting/internal/reputation"
)

// Message-mode manager assignment: the reverse index behind incremental
// rebalances, and the score handoff a membership change triggers.

// setAssignmentLocked records set as target's current manager assignment
// and maintains the reverse index. Callers hold c.mu. The slice comes from
// Directory.Managers and is shared and read-only.
func (c *Cluster) setAssignmentLocked(target msg.NodeID, set []msg.NodeID) {
	for _, m := range c.lastMgrs[target] {
		delete(c.mgrTargets[m], target)
	}
	c.lastMgrs[target] = set
	for _, m := range set {
		ts := c.mgrTargets[m]
		if ts == nil {
			ts = make(map[msg.NodeID]bool)
			c.mgrTargets[m] = ts
		}
		ts[target] = true
	}
}

// MaxTrackedPerManager returns the largest per-manager tracked-target count
// (message mode; 0 in direct mode). The soak invariants bound it by the
// total population ever seen.
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

// scheduleRebalance queues a manager-assignment rebalance (message mode
// only). It runs as a harness event so no manager locks are held when it
// starts, and coalesces bursts of membership changes (a full request
// upgrades a pending cheap one).
func (c *Cluster) scheduleRebalance(full bool) {
	if c.Opts.BlameMode != BlameMessages || !c.Opts.LiFTinG {
		return
	}
	c.mu.Lock()
	c.rebalanceFull = c.rebalanceFull || full
	if c.rebalance {
		c.mu.Unlock()
		return
	}
	c.rebalance = true
	c.mu.Unlock()
	c.RT.After(0, c.rebalanceManagers)
}

// rebalanceManagers recomputes manager assignments after a membership
// change and performs the state handoff: a manager that became responsible
// for a target adopts the most pessimistic replica (consistent with
// min-vote reads), and managers no longer responsible drop their copy.
// Deterministic under the simulator: targets in id order, candidate
// replicas in id order.
//
// The pass is incremental. The directory's probe assignment only changes a
// target's manager set when one of the recorded managers left (a removal)
// or the registration set grew (a join), so a removal-triggered rebalance
// visits only the departed nodes' targets — found through the reverse
// index — and a join-triggered one walks every target but short-circuits
// the unchanged assignments. Handoff candidates are the union of the old
// and new sets: the old set is by construction exactly the target's live
// tracker set (registration seeds it, every rebalance re-establishes it),
// so no live replica escapes the pessimism scan. Replicas frozen on
// long-expelled managers are not candidates — they are equally invisible
// to min-vote reads, which only consult the current assignment.
func (c *Cluster) rebalanceManagers() {
	c.mu.Lock()
	c.rebalance = false
	full := c.rebalanceFull
	c.rebalanceFull = false
	removed := c.pendingRemoved
	c.pendingRemoved = nil
	p := c.period
	mgrByID := make(map[msg.NodeID]*reputation.Manager, len(c.Managers))
	//lint:allow ordered-map-range map-to-map copy; the copy is order-insensitive
	for id, m := range c.Managers {
		mgrByID[id] = m
	}
	var targets []msg.NodeID
	if full {
		targets = c.Dir.All()
	} else {
		seen := make(map[msg.NodeID]bool)
		for _, r := range removed {
			//lint:allow ordered-map-range collect-then-sort: targets are deduped then sorted below
			for t := range c.mgrTargets[r] {
				if !seen[t] {
					seen[t] = true
					targets = append(targets, t)
				}
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	}
	c.mu.Unlock()

	// A replica's pessimism is its per-period blame rate — the score is
	// comp − blame/r, so the lowest score is the highest rate, not the
	// largest raw blame (a freshly joined entry with little blame but tiny
	// r can be the most damning copy). Expulsion verdicts trump rates.
	rate := func(e reputation.Entry) float64 {
		r := int(p) - int(e.JoinPeriod)
		if r < 1 {
			r = 1
		}
		return e.TotalBlame / float64(r)
	}
	worse := func(a, b reputation.Entry) bool { // is a more pessimistic than b?
		if a.Expelled != b.Expelled {
			return a.Expelled
		}
		return rate(a) > rate(b)
	}
	transfers := 0
	for _, target := range targets {
		newSet := c.Dir.Managers(target, c.Opts.Rep.M)
		c.mu.Lock()
		oldSet := c.lastMgrs[target]
		if slices.Equal(oldSet, newSet) {
			c.mu.Unlock()
			continue
		}
		c.setAssignmentLocked(target, newSet)
		c.mu.Unlock()
		cand := make([]msg.NodeID, 0, len(oldSet)+len(newSet))
		cand = append(cand, oldSet...)
		for _, m := range newSet {
			if !slices.Contains(oldSet, m) {
				cand = append(cand, m)
			}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		// The most pessimistic replica seeds (or upgrades) the responsible
		// managers, so the min-vote score cannot jump up through a handoff.
		var best reputation.Entry
		bestOK := false
		for _, id := range cand {
			mgr, ok := mgrByID[id]
			if !ok {
				continue
			}
			if e, tracked := mgr.Snapshot(target); tracked {
				if !bestOK || worse(e, best) {
					best, bestOK = e, true
				}
			}
		}
		for _, m := range newSet {
			mgr, ok := mgrByID[m]
			if !ok {
				continue
			}
			if e, tracked := mgr.Snapshot(target); tracked {
				// Already tracking, but perhaps only a near-empty entry from
				// an in-flight blame: adopt the historical copy if it is
				// more pessimistic, or the outgoing managers would discard
				// the target's record.
				if full && bestOK && worse(best, e) {
					mgr.Adopt(target, best, p)
					transfers++
				}
				continue
			}
			if bestOK {
				mgr.Adopt(target, best, p)
				transfers++
			} else {
				mgr.Track(target, p)
			}
		}
		if !full {
			// A removal never strips an alive manager of responsibility:
			// gains only, no drops.
			continue
		}
		for _, id := range cand {
			if slices.Contains(newSet, id) {
				continue
			}
			mgr, ok := mgrByID[id]
			if !ok {
				continue
			}
			if _, tracked := mgr.Snapshot(target); tracked {
				mgr.Drop(target)
			}
		}
	}
	c.mu.Lock()
	c.handoffs += transfers
	c.mu.Unlock()
}
