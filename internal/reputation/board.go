// Package reputation implements the Alliatrust-like distributed reputation
// substrate LiFTinG relies on (§5.1 of the paper): every node has M
// pseudo-random managers that each keep a copy of its score; blames are sent
// to the managers; scores are read by querying the managers and taking the
// minimum (which makes score inflation by colluding managers ineffective);
// expulsion is triggered through the same managers.
//
// There is one score-keeper, the Manager: it holds copies of scores on a
// Board — the pure score algebra: blame accumulation, per-period
// compensation of wrongful blames (b̃ of Equation 5) and normalization by the
// time spent in the system (Equation 6) — and decides expulsion under η.
// What varies is how blames reach one. As deployed on PlanetLab a Client
// batches them into (lossy) messages to the target's M managers, and a
// Reader takes the min-vote over their replies; the idealized system of the
// large-scale score experiments is a single Manager nobody sends to, blamed
// by function call (Manager.Blame) and ticked by the harness.
package reputation

import (
	"lifting/internal/msg"
)

// Entry is one tracked node's state on a board.
type Entry struct {
	TotalBlame float64
	JoinPeriod msg.Period
	Expelled   bool
	Reason     msg.BlameReason
}

// Board accumulates blames and computes normalized, compensated scores.
// The zero value is not usable; create one with NewBoard.
type Board struct {
	compensation float64
	period       msg.Period
	entries      map[msg.NodeID]*Entry
}

// NewBoard creates a board. compensation is b̃, the expected wrongful blame
// applied to an honest node per gossip period (Equation 5); it is added back
// each period so honest scores average zero (§6.2).
func NewBoard(compensation float64) *Board {
	return &Board{
		compensation: compensation,
		entries:      make(map[msg.NodeID]*Entry),
	}
}

// SetPeriod advances the board's clock to period p. Scores are normalized by
// the number of periods a node has been tracked.
func (b *Board) SetPeriod(p msg.Period) {
	if p > b.period {
		b.period = p
	}
}

// Join starts tracking id as of the board's current period. Joining an
// already-tracked node is a no-op.
func (b *Board) Join(id msg.NodeID) { b.entry(id) }

// entry returns id's entry, tracking id as of the current period if needed.
func (b *Board) entry(id msg.NodeID) *Entry {
	e, ok := b.entries[id]
	if !ok {
		e = &Entry{JoinPeriod: b.period}
		b.entries[id] = e
	}
	return e
}

// Tracked reports whether id is tracked.
func (b *Board) Tracked(id msg.NodeID) bool {
	_, ok := b.entries[id]
	return ok
}

// AddBlame applies a blame value to target, tracking it first if needed.
func (b *Board) AddBlame(target msg.NodeID, value float64) {
	b.entry(target).TotalBlame += value
}

// Periods returns r, the number of gossip periods target has been tracked
// (at least 1 once tracked, so scores are always defined).
func (b *Board) Periods(target msg.NodeID) int {
	e, ok := b.entries[target]
	if !ok {
		return 0
	}
	r := int(b.period) - int(e.JoinPeriod)
	if r < 1 {
		r = 1
	}
	return r
}

// Score returns the normalized, compensated score of target (Equation 6):
//
//	s = −(1/r) · Σᵢ (bᵢ − b̃) = b̃ − (Σᵢ bᵢ)/r
//
// Honest nodes have E[s] = 0; freeriders drift negative. Untracked nodes
// score 0.
func (b *Board) Score(target msg.NodeID) float64 {
	e, ok := b.entries[target]
	if !ok {
		return 0
	}
	r := float64(b.Periods(target))
	return b.compensation - e.TotalBlame/r
}

// MarkExpelled flags target as expelled with the given reason and reports
// whether this was the first expulsion. Untracked targets are joined first.
func (b *Board) MarkExpelled(target msg.NodeID, reason msg.BlameReason) bool {
	e := b.entry(target)
	if e.Expelled {
		return false
	}
	e.Expelled = true
	e.Reason = reason
	return true
}

// Expelled reports whether target is flagged as expelled.
func (b *Board) Expelled(target msg.NodeID) bool {
	if e, ok := b.entries[target]; ok {
		return e.Expelled
	}
	return false
}

// Adopt installs a copy of a replica's entry for target, overwriting any
// local state. It is the state-transfer half of a reputation-manager
// handoff: the join period, accumulated blame and expulsion verdict all
// migrate with the entry.
func (b *Board) Adopt(target msg.NodeID, e Entry) {
	ee := e
	b.entries[target] = &ee
}

// Drop stops tracking target, discarding its entry.
func (b *Board) Drop(target msg.NodeID) {
	delete(b.entries, target)
}

// Entry returns a copy of target's entry and whether it is tracked.
func (b *Board) Entry(target msg.NodeID) (Entry, bool) {
	if e, ok := b.entries[target]; ok {
		return *e, true
	}
	return Entry{}, false
}

// Len returns how many nodes the board tracks. The soak invariants bound
// it: per-manager state must stay O(population), not grow with run length.
func (b *Board) Len() int { return len(b.entries) }

// Each calls fn for every tracked node. Iteration order is unspecified:
// callers that fold or emit must canonicalize (collect-then-sort) on their
// side.
func (b *Board) Each(fn func(id msg.NodeID, e Entry)) {
	//lint:allow ordered-map-range order is the documented contract; every caller collects then sorts or reduces commutatively
	for id, e := range b.entries {
		fn(id, *e)
	}
}
