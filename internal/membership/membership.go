// Package membership implements the full-membership directory and uniform
// random peer sampling the paper assumes (§2): every node can pick a uniform
// random subset of the live nodes. It also provides the deterministic
// manager assignment used by the Alliatrust-like reputation substrate
// (§5.1): every node is assigned M pseudo-random managers.
package membership

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"lifting/internal/msg"
	"lifting/internal/rng"
)

// Directory is the full-membership view of the system. Nodes that are
// expelled (or depart) are removed from the sampling population but remain
// known, so manager assignment stays stable; nodes may also join mid-run
// (churn).
//
// Directory is safe for concurrent use: the UDP runtime samples from many
// node goroutines while churn events mutate the view. Under the
// single-threaded simulator the lock is uncontended.
type Directory struct {
	mu      sync.RWMutex
	all     []msg.NodeID
	known   map[msg.NodeID]bool
	alive   []msg.NodeID
	aliveAt map[msg.NodeID]int // index into alive, for O(1) removal

	// epoch counts membership changes (Join/Expel that actually changed the
	// view); expelledAt and revivedAt hold, per idBit, the epoch of the last
	// Expel and the last revival of an id with that bit.
	epoch      uint64
	expelledAt [64]uint64
	revivedAt  [64]uint64

	// The manager cache. Managers is the hot path of every blame flush,
	// score read and rebalance, and at 10k nodes recomputing the probe
	// sequence on every call dominated those paths. An entry outlives every
	// membership change that cannot move its set: the first lookup after a
	// change checks it (validLocked), and recomputes it only if the change
	// may have moved it. Entries are never dropped.
	mgrCache map[mgrKey]mgrEntry
	scratch  []msg.NodeID // a recomputed set, until it is kept
}

// mgrKey indexes the manager cache: the assignment depends on the target and
// the requested set size only (given the membership view).
type mgrKey struct {
	target msg.NodeID
	m      int
}

// mgrEntry is one cached assignment and what it rests on: 48 bytes, which
// with its 16-byte key make a 64-byte map slot, plus the set's 4 bytes a
// manager.
type mgrEntry struct {
	set     []msg.NodeID
	checked uint64 // the epoch at which set was last known right
	skipped uint64 // idBit of every departed node a probe passed over
	reach   int32  // no probe moves while there are at most reach slots
	capped  bool   // the set is cut short of m, or nothing was probed
}

// idBit is id's bit in mgrEntry.skipped, and its index in expelledAt and
// revivedAt.
func idBit(id msg.NodeID) uint { return uint(id & 63) }

// NewDirectory creates a directory over the given node ids, all alive.
// It panics on duplicate ids.
func NewDirectory(ids []msg.NodeID) *Directory {
	d := &Directory{
		all:      make([]msg.NodeID, len(ids)),
		known:    make(map[msg.NodeID]bool, len(ids)),
		alive:    make([]msg.NodeID, len(ids)),
		aliveAt:  make(map[msg.NodeID]int, len(ids)),
		mgrCache: make(map[mgrKey]mgrEntry),
	}
	copy(d.all, ids)
	copy(d.alive, ids)
	for i, id := range ids {
		if d.known[id] {
			panic(fmt.Sprintf("membership: duplicate node id %d", id))
		}
		d.known[id] = true
		d.aliveAt[id] = i
	}
	return d
}

// Sequential returns a directory over ids 0..n-1.
func Sequential(n int) *Directory {
	ids := make([]msg.NodeID, n)
	for i := range ids {
		ids[i] = msg.NodeID(i)
	}
	return NewDirectory(ids)
}

// NAlive returns the number of live (non-expelled, non-departed) nodes.
func (d *Directory) NAlive() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.alive)
}

// All returns a copy of all node ids ever registered, in registration order.
func (d *Directory) All() []msg.NodeID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]msg.NodeID, len(d.all))
	copy(out, d.all)
	return out
}

// Alive reports whether id is currently live.
func (d *Directory) Alive(id msg.NodeID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.aliveAt[id]
	return ok
}

// Join adds id to the directory as a live node: a fresh registration for a
// new id, a revival for a previously departed one. It reports whether the
// membership changed (joining an already-live node is a no-op).
func (d *Directory) Join(id msg.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, live := d.aliveAt[id]; live {
		return false
	}
	d.epoch++
	if d.known[id] {
		d.revivedAt[idBit(id)] = d.epoch
	} else {
		d.known[id] = true
		d.all = append(d.all, id)
	}
	d.aliveAt[id] = len(d.alive)
	d.alive = append(d.alive, id)
	return true
}

// Expel removes id from the sampling population (expulsion or voluntary
// departure). It reports whether the node was live. Expelling is idempotent.
func (d *Directory) Expel(id msg.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := d.aliveAt[id]
	if !ok {
		return false
	}
	last := len(d.alive) - 1
	moved := d.alive[last]
	d.alive[i] = moved
	d.aliveAt[moved] = i
	d.alive = d.alive[:last]
	delete(d.aliveAt, id)
	d.epoch++
	d.expelledAt[idBit(id)] = d.epoch
	return true
}

// Epoch returns the membership epoch: a counter of effective Join/Expel
// events. Two calls observing the same epoch observed the same view.
func (d *Directory) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// Sample appends k distinct live nodes chosen uniformly at random, never
// including self, to out and returns it. If fewer than k candidates exist,
// all of them are appended. The order is random. A caller that hands in a
// slice with room for k allocates nothing.
func (d *Directory) Sample(s *rng.Stream, k int, self msg.NodeID, out []msg.NodeID) []msg.NodeID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	candidates := len(d.alive)
	if _, selfAlive := d.aliveAt[self]; selfAlive {
		candidates--
	}
	if k > candidates {
		k = candidates
	}
	if k <= 0 {
		return out
	}
	// Draw slots of the alive slice, re-drawing self and repeats: rejection
	// is cheap because k is a fanout, a handful against the population, and
	// so is finding a repeat by scanning the picks made so far.
	n, start := len(d.alive), len(out)
	for len(out)-start < k {
		pick := d.alive[s.IntN(n)]
		if pick == self || slices.Contains(out[start:], pick) {
			continue
		}
		out = append(out, pick)
	}
	return out
}

// Managers returns the M managers of target: a deterministic pseudo-random
// set of live nodes derived by hashing the target id, excluding the target
// itself. Every node with the same membership view computes the same
// managers without coordination (§5.1). Departed nodes are skipped, so a
// manager's duties migrate when it leaves — the caller performs the state
// handoff.
//
// Results are cached per (target, m), and a set survives every membership
// change that cannot move it: a hit takes a read lock and a map probe, no
// allocation, and a set is allocated again only when it really changes.
// The returned slice is shared — callers must treat it as read-only (every
// caller only iterates it) — and is never written after it is returned.
func (d *Directory) Managers(target msg.NodeID, m int) []msg.NodeID {
	key := mgrKey{target: target, m: m}
	d.mu.RLock()
	if e, ok := d.mgrCache[key]; ok && e.checked == d.epoch {
		d.mu.RUnlock()
		return e.set
	}
	d.mu.RUnlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.mgrCache[key]
	if ok && e.checked == d.epoch {
		return e.set
	}
	if !ok || !d.validLocked(&e) {
		d.scratch = d.probeLocked(&e, target, m, d.scratch[:0])
		switch {
		case len(d.scratch) == 0:
			e.set = nil
		case !slices.Equal(d.scratch, e.set):
			e.set = append(make([]msg.NodeID, 0, len(d.scratch)), d.scratch...)
		}
	}
	e.checked = d.epoch
	d.mgrCache[key] = e
	return e.set
}

// validLocked reports whether e's set is still right. Callers hold d.mu.
// The set is what probes 0..k computed — each a registration slot, skipped
// if it holds the target, an earlier pick or a departed node — until m were
// live, m cut to the live nodes but the target. It stands while every one
// of those probes lands where it did on a node as live as it was, and the
// cut does not move:
//   - a fresh join appends slot n, and moves a probe onto it once there are
//     more than reach slots (jump);
//   - a probe that stopped on a live node picked it, so an Expel can only
//     matter if it took a node of the set — and the cut can bite only then,
//     as the set holds every live node but the target;
//   - a revival can only matter if it is of a departed node a probe passed
//     over, which skipped and revivedAt say conservatively (by idBit);
//   - a capped set may move with any change.
func (d *Directory) validLocked(e *mgrEntry) bool {
	if e.capped || len(d.all) > int(e.reach) {
		return false
	}
	for _, id := range e.set {
		if d.expelledAt[idBit(id)] > e.checked {
			if _, live := d.aliveAt[id]; !live {
				return false
			}
		}
	}
	for skipped := e.skipped; skipped != 0; skipped &= skipped - 1 {
		if d.revivedAt[bits.TrailingZeros64(skipped)] > e.checked {
			return false
		}
	}
	return true
}

// FNV-1a parameters (identical to hash/fnv's 64-bit variant, inlined so a
// manager-assignment probe allocates no hasher).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// managerHash is FNV-1a over the big-endian (target, salt) pair: the key of
// one probe, which jump turns into a registration slot.
func managerHash(target msg.NodeID, salt uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range [8]byte{
		byte(target >> 24), byte(target >> 16), byte(target >> 8), byte(target),
		byte(salt >> 24), byte(salt >> 16), byte(salt >> 8), byte(salt),
	} {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// jump is Lamping and Veach's jump consistent hash ("A Fast, Minimal Memory,
// Consistent Hash Algorithm", 2014): it maps key to a bucket in [0, n), and
// growing n to n+1 moves a key with probability 1/(n+1), only ever to the new
// bucket n. It takes O(ln n) steps and no memory. next is the candidate that
// ended the walk: key stays in bucket for every bucket count up to next, and
// moves to bucket next at next+1.
func jump(key uint64, n int) (bucket int, next int64) {
	b, j := int64(-1), int64(0)
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b), j
}

// probeLocked computes target's m managers into out and records in e what
// the result rests on (validLocked). Callers hold d.mu. Each probe picks
// the registration slot jump(managerHash(target, salt), n) and skips the
// target, a pick already made and a departed node, until it has m — cut to
// the live nodes but the target — picks. d.all is append-only, so a fresh
// join only adds slot n and moves just the probes that now land on the
// joiner, and an Expel or a revival leaves every probe where it was.
func (d *Directory) probeLocked(e *mgrEntry, target msg.NodeID, m int, out []msg.NodeID) []msg.NodeID {
	n := len(d.all)
	alive := len(d.alive)
	if _, selfAlive := d.aliveAt[target]; selfAlive {
		alive--
	}
	e.capped, e.skipped, e.reach = n <= 1 || m > alive, 0, math.MaxInt32
	if n <= 1 {
		return out
	}
	m = min(m, alive)
	for salt := uint32(0); len(out) < m; salt++ {
		b, next := jump(managerHash(target, salt), n)
		if next < int64(e.reach) {
			e.reach = int32(next)
		}
		id := d.all[b]
		if id == target || slices.Contains(out, id) {
			continue
		}
		if _, live := d.aliveAt[id]; live {
			out = append(out, id)
		} else {
			e.skipped |= 1 << idBit(id)
		}
	}
	return out
}
