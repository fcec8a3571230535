// Package content is the data plane of the stream: deterministic chunk
// payload generation, content hashing, and a bounded per-node chunk store.
//
// Payloads are pure functions of (stream seed, chunk id, size), so every
// backend — the discrete-event sim, loopback UDP sockets, a fleet of OS
// processes — generates byte-identical chunks from the same seed and any
// receiver can verify a serve against its advertised hash without trusting
// the server. The store is a direct-mapped bounded cache: dissemination is
// infect-and-die (a chunk is proposed exactly once, the period after
// receipt), so only a recent window of chunks is ever serveable and old
// slots are recycled in stream order.
package content

import (
	"encoding/binary"
	"sort"
	"sync"
	"time"

	"lifting/internal/msg"
)

// Content-hash parameters: the FNV-1a 64 offset basis seeds the chain and
// the FNV prime advances it, but words — not bytes — are the unit. A
// byte-serial FNV-1a costs one dependent multiply per byte and profiled at
// ~40% of whole-workload CPU once serves carried real payloads; mixing
// 8-byte words through a splitmix64 finalizer before folding them into the
// chain is ~8x cheaper at the same "flip any bit, change the hash"
// integrity guarantee (neither is cryptographic). Word loads are explicit
// little-endian, so the hash is byte-stable across platforms.
const (
	hashOffset = 14695981039346656037
	hashPrime  = 1099511628211
)

// mixWord diffuses one 64-bit word (splitmix64's finalizer).
func mixWord(k uint64) uint64 {
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// HashBytes returns the 64-bit content hash of b. It is the hash carried in
// msg.Serve frames and the gateway's X-Lifting-Hash header, implemented
// inline and allocation-free for the per-serve verification hot path.
func HashBytes(b []byte) uint64 {
	h := uint64(hashOffset) ^ uint64(len(b))*0x9e3779b97f4a7c15
	for len(b) >= 8 {
		h = (h ^ mixWord(binary.LittleEndian.Uint64(b))) * hashPrime
		b = b[8:]
	}
	if len(b) > 0 {
		var k uint64
		for i := len(b) - 1; i >= 0; i-- {
			k = k<<8 | uint64(b[i])
		}
		h = (h ^ mixWord(k)) * hashPrime
	}
	return h ^ h>>32
}

// Verify reports whether payload matches the advertised content hash.
func Verify(payload []byte, hash uint64) bool {
	return payload != nil && HashBytes(payload) == hash
}

// Generate returns the canonical payload of chunk c for the stream rooted
// at seed: a splitmix64 keystream keyed by (seed, c), laid out 8 bytes at a
// time. Deterministic across runs, platforms and processes.
func Generate(seed uint64, c msg.ChunkID, size int) []byte {
	if size <= 0 {
		return nil
	}
	out := make([]byte, size)
	x := seed ^ (uint64(c)+1)*0x9e3779b97f4a7c15
	for i := 0; i < size; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < size; j++ {
			out[i+j] = byte(z >> (8 * j))
		}
	}
	return out
}

// Source generates and memoizes the canonical payload of every chunk of one
// stream. The source node of a cluster injects these bytes; the origin
// gateway regenerates any chunk an HTTP client asks for, however old. The
// memoized slices are shared read-only: under the in-process sim they are
// the very slices every node's store holds, so a 10k-node run keeps one
// copy of the stream, not ten thousand.
type Source struct {
	seed uint64
	size int

	mu     sync.RWMutex
	chunks map[msg.ChunkID][]byte
	hashes map[msg.ChunkID]uint64
}

// NewSource returns a source for the stream rooted at seed emitting
// size-byte chunks.
func NewSource(seed uint64, size int) *Source {
	return &Source{
		seed:   seed,
		size:   size,
		chunks: make(map[msg.ChunkID][]byte),
		hashes: make(map[msg.ChunkID]uint64),
	}
}

// Chunk returns the canonical payload and content hash of chunk c. The
// returned slice is shared and must be treated as read-only.
func (s *Source) Chunk(c msg.ChunkID) ([]byte, uint64) {
	s.mu.RLock()
	payload, ok := s.chunks[c]
	hash := s.hashes[c]
	s.mu.RUnlock()
	if ok {
		return payload, hash
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if payload, ok = s.chunks[c]; ok {
		return payload, s.hashes[c]
	}
	payload = Generate(s.seed, c, s.size)
	hash = HashBytes(payload)
	s.chunks[c] = payload
	s.hashes[c] = hash
	return payload, hash
}

// DefaultStoreCapacity is the floor store size in chunks, used when no
// stream configuration is available to size the store from.
const DefaultStoreCapacity = 128

// serveWindowPeriods is the store sizing horizon in gossip periods. Under
// infect-and-die a chunk is proposed the period after receipt and served on
// request shortly after, but retries re-request a chunk several periods out
// and a congested uplink (the PlanetLab scenarios provision 2x the stream
// rate) queues serves further still. Sixteen periods absorbs all of it: at
// the paper's 674 kbps / 500 ms configuration the window is 512 chunks
// (~24 KB of slot metadata per node), and an honest node then never serves
// a chunk it verified in but already evicted — which a receiver would
// reject and blame.
const serveWindowPeriods = 16

// StoreCapacityFor sizes a node's chunk store to hold serveWindowPeriods
// gossip periods of stream, floored at DefaultStoreCapacity. Assemblies use
// it when no explicit capacity is configured.
func StoreCapacityFor(chunkInterval, gossipPeriod time.Duration) int {
	if chunkInterval <= 0 || gossipPeriod <= 0 {
		return DefaultStoreCapacity
	}
	n := int(serveWindowPeriods*gossipPeriod/chunkInterval) + 1
	if n < DefaultStoreCapacity {
		return DefaultStoreCapacity
	}
	return n
}

// Store is a bounded chunk store: a direct-mapped cache indexed by chunk id
// modulo capacity. Eviction is implicit and deterministic — chunk c
// recycles the slot of chunk c−capacity — which matches a streaming
// workload, where slots age out in stream order no matter when they were
// last read. Put never copies the payload: callers hand in a slice the
// store may retain (the sim shares the source's canonical slices; the
// transports hand in per-message buffers).
//
// All methods are safe for concurrent use: node callbacks write while
// gateway HTTP handlers read.
type Store struct {
	mu        sync.RWMutex
	slots     []storeSlot
	len       int
	puts      uint64
	evictions uint64
}

type storeSlot struct {
	id      msg.ChunkID
	payload []byte
	hash    uint64
	full    bool
}

// NewStore returns an empty store holding at most capacity chunks
// (DefaultStoreCapacity if capacity <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{slots: make([]storeSlot, capacity)}
}

// Capacity returns the maximum number of chunks held.
func (s *Store) Capacity() int { return len(s.slots) }

// Put stores chunk c. The payload slice is retained, not copied.
func (s *Store) Put(c msg.ChunkID, payload []byte, hash uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &s.slots[int(uint32(c))%len(s.slots)]
	if slot.full && slot.id != c {
		s.evictions++
	} else if !slot.full {
		s.len++
	}
	slot.id, slot.payload, slot.hash, slot.full = c, payload, hash, true
	s.puts++
}

// Get returns the payload and hash of chunk c if it is still stored. The
// returned slice is shared and must be treated as read-only.
func (s *Store) Get(c msg.ChunkID) ([]byte, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot := &s.slots[int(uint32(c))%len(s.slots)]
	if !slot.full || slot.id != c {
		return nil, 0, false
	}
	return slot.payload, slot.hash, true
}

// Verified reports what Verify(payload, hash) reports, hashing only a payload
// it has not seen pass before: the store doubles as the verified-once table
// of a runtime that delivers payloads by reference (see DESIGN.md "Verified
// once"). A hit is the very slice — same first byte, same length, same
// advertised hash — that passed the full HashBytes earlier; a copy, a
// sub-slice, other bytes or another hash take the full hash, and only a
// payload that passes is remembered, under chunk id c. Two facts make the
// hit sound: nobody writes to a payload slice once it is handed out, and the
// slot holds the slice, so its array cannot be freed and its address reused
// for other bytes while the entry lives. A nil store hashes every payload.
func (s *Store) Verified(c msg.ChunkID, payload []byte, hash uint64) bool {
	if s == nil {
		return Verify(payload, hash)
	}
	if p, h, ok := s.Get(c); ok && h == hash && len(p) == len(payload) && len(p) > 0 && &p[0] == &payload[0] {
		return true
	}
	if !Verify(payload, hash) {
		return false
	}
	s.Put(c, payload, hash)
	return true
}

// Len returns the number of chunks currently stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.len
}

// Evictions returns the number of chunks displaced by newer ones.
func (s *Store) Evictions() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.evictions
}

// Puts returns the number of Put calls.
func (s *Store) Puts() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.puts
}

// Chunks returns the ids currently stored, in ascending order.
func (s *Store) Chunks() []msg.ChunkID {
	s.mu.RLock()
	out := make([]msg.ChunkID, 0, s.len)
	for i := range s.slots {
		if s.slots[i].full {
			out = append(out, s.slots[i].id)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
