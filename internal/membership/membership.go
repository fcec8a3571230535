// Package membership implements the full-membership directory and uniform
// random peer sampling the paper assumes (§2): every node can pick a uniform
// random subset of the live nodes. It also provides the deterministic
// manager assignment used by the Alliatrust-like reputation substrate
// (§5.1): every node is assigned M pseudo-random managers.
package membership

import (
	"fmt"
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
	// view). The manager-assignment cache below is valid for exactly one
	// epoch: Managers is the hot path of every blame flush, score read and
	// rebalance, and at 10k nodes recomputing the probe sequence (plus its
	// dedup map) on every call dominated those paths.
	epoch      uint64
	mgrCache   map[mgrKey][]msg.NodeID
	cacheEpoch uint64
}

// mgrKey indexes the manager cache: the assignment depends on the target and
// the requested set size only (given the membership view of one epoch).
type mgrKey struct {
	target msg.NodeID
	m      int
}

// NewDirectory creates a directory over the given node ids, all alive.
// It panics on duplicate ids.
func NewDirectory(ids []msg.NodeID) *Directory {
	d := &Directory{
		all:      make([]msg.NodeID, len(ids)),
		known:    make(map[msg.NodeID]bool, len(ids)),
		alive:    make([]msg.NodeID, len(ids)),
		aliveAt:  make(map[msg.NodeID]int, len(ids)),
		mgrCache: make(map[mgrKey][]msg.NodeID),
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
	if !d.known[id] {
		d.known[id] = true
		d.all = append(d.all, id)
	}
	d.aliveAt[id] = len(d.alive)
	d.alive = append(d.alive, id)
	d.epoch++
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
	return true
}

// Epoch returns the membership epoch: a counter of effective Join/Expel
// events. Two calls observing the same epoch observed the same view.
func (d *Directory) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// Sample returns k distinct live nodes chosen uniformly at random, never
// including self. If fewer than k candidates exist, all of them are
// returned. The result order is random.
func (d *Directory) Sample(s *rng.Stream, k int, self msg.NodeID) []msg.NodeID {
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
		return nil
	}
	out := make([]msg.NodeID, 0, k)
	// Draw slots of the alive slice, re-drawing self and repeats: rejection
	// is cheap because k is a fanout, a handful against the population, and
	// so is finding a repeat by scanning the picks made so far.
	n := len(d.alive)
	for len(out) < k {
		pick := d.alive[s.IntN(n)]
		if pick == self || slices.Contains(out, pick) {
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
// Results are cached per membership epoch: a cache hit takes a read lock and
// a map probe, no allocation. The returned slice is shared — callers must
// treat it as read-only (every caller only iterates it).
func (d *Directory) Managers(target msg.NodeID, m int) []msg.NodeID {
	key := mgrKey{target: target, m: m}
	d.mu.RLock()
	if d.cacheEpoch == d.epoch {
		if out, ok := d.mgrCache[key]; ok {
			d.mu.RUnlock()
			return out
		}
	}
	d.mu.RUnlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cacheEpoch != d.epoch {
		clear(d.mgrCache)
		d.cacheEpoch = d.epoch
	}
	if out, ok := d.mgrCache[key]; ok {
		return out
	}
	out := d.managersLocked(target, m)
	d.mgrCache[key] = out
	return out
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
// bucket n. It takes O(ln n) steps and no memory.
func jump(key uint64, n int) int {
	b, j := int64(-1), int64(0)
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// managersLocked computes the assignment from scratch. Callers hold d.mu.
// Each probe picks the registration slot jump(managerHash(target, salt), n).
// d.all is append-only, so a fresh join only adds slot n and moves just the
// probes that now land on the joiner: a target's set changes only if the new
// set contains the joiner, and an Expel or a revival leaves every probe where
// it was. A probe that lands on the target, on a departed node or on a pick
// already made is skipped — the same probes the set of every id seen skipped,
// since a departed id stays departed within the call — so the result is the
// one allocation a cache miss makes.
func (d *Directory) managersLocked(target msg.NodeID, m int) []msg.NodeID {
	n := len(d.all)
	if n <= 1 {
		return nil
	}
	alive := len(d.alive)
	if _, selfAlive := d.aliveAt[target]; selfAlive {
		alive--
	}
	if m > alive {
		m = alive
	}
	if m <= 0 {
		return nil
	}
	out := make([]msg.NodeID, 0, m)
	for salt := uint32(0); len(out) < m; salt++ {
		id := d.all[jump(managerHash(target, salt), n)]
		if id == target || slices.Contains(out, id) {
			continue
		}
		if _, live := d.aliveAt[id]; live {
			out = append(out, id)
		}
	}
	return out
}
