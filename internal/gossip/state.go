package gossip

import (
	"slices"
	"time"

	"lifting/internal/msg"
)

// This file holds a node's dissemination state: the set of chunks it holds,
// one want record per chunk it misses, and one phase record per propose
// phase. None of it is built per message, and all of it is bounded (see
// DESIGN.md, "Dissemination state").

// Per-chunk recovery bounds: maxRetries bounds the recovery attempts and
// maxOffers the remembered alternative proposers. maxAsked is how many of
// the servers a chunk was requested from a want holds inline; it takes a
// congested run, serves queued behind slow uplinks, to ask more.
const (
	maxRetries = 3
	maxOffers  = 8
	maxAsked   = maxOffers
)

// NominalRequest is the |R| a bound or an expectation is sized for: the
// constant request size of the paper's analysis (§6.2).
const NominalRequest = 4

// askLimitFor is the most servers a want remembers having asked: as many as
// it can ask in the nh periods it lives, one every RequestRetry plus the
// retries. Beyond it the earliest is forgotten, and a serve it sends after
// that is unsolicited.
func askLimitFor(cfg Config) int {
	return cfg.HistoryPeriods*int(cfg.Period/cfg.RequestRetry+1) + maxRetries
}

// wantCapFor is the most chunks a node wants at once. A node is proposed to
// by f others a period on average, requests |R| chunks of each, and forgets
// a want nh periods after it learnt of the chunk: f·|R|·nh wants is every
// request of a whole retention window still unanswered. An honest run stays
// far below it (the stream generates fewer ids than that in nh periods, and
// a want lives milliseconds); a flood of ids nobody serves is held to it,
// oldest want evicted first.
func wantCapFor(cfg Config) int {
	return cfg.F * NominalRequest * cfg.HistoryPeriods
}

// haveSet is the set of chunks a node holds: a bitset over the dense stream
// ids, grown on demand. It grows by at most horizon words at a time — one
// word per slot of the want table, so a server pays a whole serve for at
// most 8·wantCap bytes of it — and an id further than that above its end is
// kept in the sparse set instead.
type haveSet struct {
	bits    []uint64
	far     map[msg.ChunkID]struct{}
	count   int
	horizon int
}

func (h *haveSet) has(c msg.ChunkID) bool {
	if w := int(c >> 6); w < len(h.bits) && h.bits[w]&(1<<(c&63)) != 0 {
		return true
	}
	if len(h.far) == 0 {
		return false
	}
	_, ok := h.far[c]
	return ok
}

// add marks c held; the caller has checked that it was not.
func (h *haveSet) add(c msg.ChunkID) {
	h.count++
	w := int(c >> 6)
	if w >= len(h.bits) {
		if w-len(h.bits) >= h.horizon {
			if h.far == nil {
				h.far = make(map[msg.ChunkID]struct{})
			}
			h.far[c] = struct{}{}
			return
		}
		// Word by word: append(bits, make(…)...) allocates its make on
		// every call under the race detector, capacity to spare or not.
		for len(h.bits) <= w {
			h.bits = append(h.bits, 0)
		}
	}
	h.bits[w] |= 1 << (c & 63)
}

type offer struct {
	from   msg.NodeID
	period msg.Period
}

// want is everything a node keeps about one chunk it misses: who offered
// it, whom it was requested from and when, and how often recovery was
// tried. A serve is only accepted from a node in asked (the protocol only
// accepts chunks in P ∩ R); lastRequest lets a later proposal re-request a
// chunk whose serve was lost (the protocol runs over UDP); offers is where
// a retry finds another proposer.
type want struct {
	chunk       msg.ChunkID
	born        msg.Period // the owner's period when the record was made
	lastRequest time.Duration
	requested   bool // lastRequest is set
	retries     uint8
	nOffers     uint8
	nAsked      uint8
	offers      [maxOffers]offer
	asked       [maxAsked]msg.NodeID
	spill       []msg.NodeID // all servers asked, once there are more than maxAsked
	// slot is the record's place in the slab. prev and next link the live
	// records oldest to newest, and next the free ones; -1 ends a list.
	slot, prev, next int32
}

func (w *want) offer(from msg.NodeID, period msg.Period) {
	if w.nOffers < maxOffers {
		w.offers[w.nOffers] = offer{from: from, period: period}
		w.nOffers++
	}
}

// askedOf returns the servers the chunk was requested from, oldest first.
func (w *want) askedOf() []msg.NodeID {
	if w.spill != nil {
		return w.spill
	}
	return w.asked[:w.nAsked]
}

func (w *want) askedFrom(server msg.NodeID) bool {
	return slices.Contains(w.askedOf(), server)
}

// ask records a request sent to server at now; limit is askLimitFor.
func (w *want) ask(server msg.NodeID, now time.Duration, limit int) {
	w.lastRequest, w.requested = now, true
	switch {
	case w.askedFrom(server):
	case w.spill == nil && w.nAsked < maxAsked:
		w.asked[w.nAsked] = server
		w.nAsked++
	default:
		if w.spill == nil {
			w.spill = append(make([]msg.NodeID, 0, 2*maxAsked), w.asked[:]...)
		}
		if len(w.spill) >= limit {
			w.spill = slices.Delete(w.spill, 0, 1)
		}
		w.spill = append(w.spill, server)
	}
}

// wantTable holds the want records of one node in a slab, found by chunk
// through one index. Records are recycled through a free list when their
// chunk arrives, leave oldest first when the table is full, and expire nh
// periods after they were made; the slab never exceeds limit records.
type wantTable struct {
	index          wantIndex
	slab           []want
	free           int32
	oldest, newest int32
	live, limit    int
}

func newWantTable(limit int) wantTable {
	horizon := indexHorizon(limit)
	return wantTable{
		index: wantIndex{ring: make([]int32, min(wantRing, horizon)), horizon: horizon},
		free:  -1, oldest: -1, newest: -1, limit: limit,
	}
}

// get returns the record of c, or nil. The pointer is good until the next
// obtain.
func (t *wantTable) get(c msg.ChunkID) *want {
	if i := t.index.find(t.slab, c); i >= 0 {
		return &t.slab[i]
	}
	return nil
}

// obtain returns the record of c, making it if there is none.
func (t *wantTable) obtain(c msg.ChunkID, now msg.Period) *want {
	if w := t.get(c); w != nil {
		return w
	}
	if t.live >= t.limit {
		t.release(&t.slab[t.oldest])
	}
	i := t.free
	if i >= 0 {
		t.free = t.slab[i].next
	} else {
		i = int32(len(t.slab))
		t.slab = append(t.slab, want{})
	}
	// Indexed before it is linked: a ring that grows indexes the live
	// records, and this one is not yet.
	t.index.add(t, c, i)
	w := &t.slab[i]
	*w = want{chunk: c, born: now, slot: i, prev: t.newest, next: -1}
	if t.newest >= 0 {
		t.slab[t.newest].next = i
	} else {
		t.oldest = i
	}
	t.newest = i
	t.live++
	return w
}

// release recycles a live record.
func (t *wantTable) release(w *want) {
	t.index.remove(w.chunk, w.slot)
	t.live--
	if w.prev >= 0 {
		t.slab[w.prev].next = w.next
	} else {
		t.oldest = w.next
	}
	if w.next >= 0 {
		t.slab[w.next].prev = w.prev
	} else {
		t.newest = w.prev
	}
	w.next = t.free
	t.free = w.slot
}

// expire releases the records made retention or more periods before now.
func (t *wantTable) expire(now, retention msg.Period) {
	for t.oldest >= 0 {
		w := &t.slab[t.oldest]
		if now-w.born < retention {
			return
		}
		t.release(w)
	}
}

// wantIndex finds a live want's slot by chunk id. The stream's ids are
// dense and a node's live wants span a short run of them, so the index is a
// ring over the ids, not a hash of them: id c sits at ring[c mod len(ring)],
// which holds its slot plus one, 0 for none. Two live ids the ring cannot
// tell apart double it, up to horizon entries; past that, the id that
// collides is kept in the sparse map instead — where a flood of hostile ids
// ends up, as haveSet keeps the ids above its horizon.
type wantIndex struct {
	ring    []int32
	far     map[msg.ChunkID]int32
	horizon int
}

// wantRing is the ring a want table starts with, made with the node: 32
// entries, 128 bytes, the span of live ids most nodes' wants stay within
// (in sim_scale, 128 of 4 000 nodes outgrow it, 27 of them to 512).
const wantRing = 32

// indexHorizon is the largest ring a table of limit records takes: the
// power of two at or above limit, 4 bytes an entry.
func indexHorizon(limit int) int {
	h := 1
	for h < limit {
		h *= 2
	}
	return h
}

// find returns c's slot in slab, or -1.
func (x *wantIndex) find(slab []want, c msg.ChunkID) int32 {
	if i := x.ring[int(c)&(len(x.ring)-1)] - 1; i >= 0 && slab[i].chunk == c {
		return i
	}
	if len(x.far) == 0 {
		return -1
	}
	if i, ok := x.far[c]; ok {
		return i
	}
	return -1
}

// add indexes c, which has no entry, at slot i of t's slab.
func (x *wantIndex) add(t *wantTable, c msg.ChunkID, i int32) {
	for {
		if e := &x.ring[int(c)&(len(x.ring)-1)]; *e == 0 {
			*e = i + 1
			return
		}
		if len(x.ring) >= x.horizon {
			x.spill(c, i)
			return
		}
		x.grow(t)
	}
}

// grow doubles the ring, and again while two live records collide in it
// below the horizon, and indexes every live record of t anew, oldest first.
// Nothing is in the sparse map yet: only a ring at the horizon spills.
func (x *wantIndex) grow(t *wantTable) {
	for n := 2 * len(x.ring); !x.rebuild(t, n); n *= 2 {
	}
}

// rebuild indexes every live record of t in a ring of n entries. It reports
// false, leaving the index to be rebuilt, if two of them collide in a ring
// below the horizon.
func (x *wantIndex) rebuild(t *wantTable, n int) bool {
	x.ring = make([]int32, n)
	for i := t.oldest; i >= 0; i = t.slab[i].next {
		c := t.slab[i].chunk
		switch e := &x.ring[int(c)&(n-1)]; {
		case *e == 0:
			*e = i + 1
		case n < x.horizon:
			return false
		default:
			x.spill(c, i)
		}
	}
	return true
}

// spill indexes c at slot i in the sparse map.
func (x *wantIndex) spill(c msg.ChunkID, i int32) {
	if x.far == nil {
		x.far = make(map[msg.ChunkID]int32)
	}
	x.far[c] = i
}

// remove drops c's entry, which names slot i.
func (x *wantIndex) remove(c msg.ChunkID, i int32) {
	if e := &x.ring[int(c)&(len(x.ring)-1)]; *e == i+1 {
		*e = 0
		return
	}
	delete(x.far, c)
}

// phase is what the serve rule keeps of one propose phase beside the
// accountability log, which holds its advertised list and partners
// (history.Log.LastProposalTo): which chunks of the proposal to each partner
// were already requested, since each is served at most once per proposal.
// Chunk i of the proposal to the partner in row k is bit k·len(advertised)+i.
// Phases live in a ring of nh slots indexed by period; a slot is read only
// for the proposal the log names as a partner's last, inside the ring's nh
// periods, so what an older phase left in it is never seen. Each phase's
// bitset is carved from the execution context's long-lived blocks
// (msg.Sends.Marks), as the proposal it marks is: the two live as long.
type phase struct {
	consumed []uint64
}

// consume marks a bit and reports whether it was not yet marked.
func (ph *phase) consume(bit int) bool {
	if ph.consumed[bit>>6]&(1<<(bit&63)) != 0 {
		return false
	}
	ph.consumed[bit>>6] |= 1 << (bit & 63)
	return true
}
