package gateway

import (
	"slices"
	"sync"

	"lifting/internal/content"
	"lifting/internal/msg"
)

// edgeCache is the gateway's own bounded chunk cache. A node's
// content.Store is direct-mapped because a node serves a stream window that
// ages out in stream order; an HTTP edge is asked for a hot set plus one-off
// ids from anywhere in the stream, and a direct-mapped slot hands every
// one-off the slot of whichever hot chunk shares its residue. So the edge
// evicts by CLOCK (second chance): a hit sets its slot's referenced bit; a
// fill advances the hand, clearing set bits, and takes the first
// unreferenced slot. A fill is never refused, so a live stream's newest
// chunk always enters, and a sequential fill keeps the newest capacity ids,
// as the store does.
//
// The slots and the index are sized once; nothing grows with the ids seen.
type edgeCache struct {
	mu    sync.Mutex
	slots []edgeSlot
	index map[msg.ChunkID]int32
	hand  int32
}

// entry is one cached chunk as a response needs it. hashHdr is the
// X-Lifting-Hash header value, formatted once when the chunk enters the
// cache; like the payload, it is shared and never written once handed out.
type entry struct {
	payload []byte
	hash    uint64
	hashHdr []string
}

type edgeSlot struct {
	entry
	id   msg.ChunkID
	ref  bool
	full bool
}

// newEdgeCache returns an empty cache of capacity slots
// (content.DefaultStoreCapacity if capacity <= 0).
func newEdgeCache(capacity int) *edgeCache {
	if capacity <= 0 {
		capacity = content.DefaultStoreCapacity
	}
	return &edgeCache{
		slots: make([]edgeSlot, capacity),
		index: make(map[msg.ChunkID]int32, capacity),
	}
}

// get returns chunk id's entry if it is cached and marks its slot
// referenced.
func (c *edgeCache) get(id msg.ChunkID) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[id]
	if !ok {
		return entry{}, false
	}
	s := &c.slots[i]
	s.ref = true
	return s.entry, true
}

// put caches chunk id and returns its entry. The payload slice is retained,
// not copied. An id already cached keeps its slot and takes the new entry.
func (c *edgeCache) put(id msg.ChunkID, payload []byte, hash uint64) entry {
	e := entry{payload: payload, hash: hash, hashHdr: hashValue(hash)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[id]; ok {
		c.slots[i].entry = e
		return e
	}
	for c.slots[c.hand].ref {
		c.slots[c.hand].ref = false
		c.advance()
	}
	s := &c.slots[c.hand]
	if s.full {
		delete(c.index, s.id)
	}
	*s = edgeSlot{entry: e, id: id, full: true}
	c.index[id] = c.hand
	c.advance()
	return e
}

func (c *edgeCache) advance() {
	if c.hand++; int(c.hand) == len(c.slots) {
		c.hand = 0
	}
}

// chunks returns the ids currently cached, in ascending order.
func (c *edgeCache) chunks() []msg.ChunkID {
	c.mu.Lock()
	out := make([]msg.ChunkID, 0, len(c.index))
	for i := range c.slots {
		if c.slots[i].full {
			out = append(out, c.slots[i].id)
		}
	}
	c.mu.Unlock()
	slices.Sort(out)
	return out
}

// hashValue formats hash as the X-Lifting-Hash header value: 16 lowercase
// hex digits, zero-padded, in a one-element slice ready for a header map.
func hashValue(hash uint64) []string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[hash&0xf]
		hash >>= 4
	}
	return []string{string(b[:])}
}
