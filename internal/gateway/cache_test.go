package gateway

import (
	"fmt"
	"slices"
	"testing"

	"lifting/internal/content"
	"lifting/internal/msg"
)

// checkEdgeCache fails t unless the index and the slots agree: every full
// slot is indexed under its id, at its own position, and nothing else is.
func checkEdgeCache(t *testing.T, c *edgeCache) {
	t.Helper()
	full := 0
	for i, s := range c.slots {
		if !s.full {
			if s.ref {
				t.Fatalf("empty slot %d is referenced", i)
			}
			continue
		}
		full++
		if j, ok := c.index[s.id]; !ok || int(j) != i {
			t.Fatalf("slot %d holds chunk %d, the index says %d (indexed %v)", i, s.id, j, ok)
		}
	}
	if full != len(c.index) {
		t.Fatalf("%d full slots, %d index entries", full, len(c.index))
	}
	if len(c.index) > len(c.slots) || int(c.hand) >= len(c.slots) {
		t.Fatalf("%d index entries and hand %d over %d slots", len(c.index), c.hand, len(c.slots))
	}
}

// scanSchedule is an edge's request mix made deterministic: a 96-chunk hot
// set, read round-robin nine times per fill, between fills of 10 000
// one-off ids that are never asked for again. A hot read that misses refills
// its chunk, as the gateway's miss path does. It returns the hot misses after
// warm-up.
func scanSchedule(get func(msg.ChunkID) bool, put func(msg.ChunkID)) (misses int) {
	const hot, oneOffs, readsPerFill = 96, 10000, 9
	for c := msg.ChunkID(0); c < hot; c++ {
		put(c)
		get(c)
	}
	r := 0
	for i := 0; i < oneOffs; i++ {
		for k := 0; k < readsPerFill; k++ {
			c := msg.ChunkID(r % hot)
			if !get(c) {
				misses++
				put(c)
			}
			r++
		}
		put(msg.ChunkID(hot + i))
	}
	return misses
}

// The edge cache keeps its hot set through a scan of one-off ids. The
// direct-mapped content.Store, the parent's edge cache, is the oracle that
// the schedule bites: three one-offs in four land on a hot chunk's slot.
func TestEdgeCacheScanResistant(t *testing.T) {
	const capacity = 128
	payload := []byte{1}
	c := newEdgeCache(capacity)
	misses := scanSchedule(
		func(id msg.ChunkID) bool { _, ok := c.get(id); return ok },
		func(id msg.ChunkID) { c.put(id, payload, 1) },
	)
	if misses != 0 {
		t.Fatalf("%d hot reads missed after warm-up, want 0", misses)
	}
	checkEdgeCache(t, c)

	s := content.NewStore(capacity)
	storeMisses := scanSchedule(
		func(id msg.ChunkID) bool { _, _, ok := s.Get(id); return ok },
		func(id msg.ChunkID) { s.Put(id, payload, 1) },
	)
	if storeMisses == 0 {
		t.Fatal("the direct-mapped store also kept the hot set: the schedule tests nothing")
	}
	t.Logf("hot misses after warm-up: CLOCK %d, direct-mapped %d", misses, storeMisses)
}

// A sequential fill keeps the newest capacity ids — what content.Store keeps
// — whether or not each chunk is read once as it arrives (a live viewer).
func TestEdgeCacheStreamWindow(t *testing.T) {
	const capacity = 128
	payload := []byte{1}
	for _, readBack := range []bool{false, true} {
		c := newEdgeCache(capacity)
		s := content.NewStore(capacity)
		for id := msg.ChunkID(0); id < 5*capacity+17; id++ {
			c.put(id, payload, uint64(id))
			s.Put(id, payload, uint64(id))
			if readBack {
				c.get(id)
			}
			checkEdgeCache(t, c)
			if got, want := c.chunks(), s.Chunks(); !slices.Equal(got, want) {
				t.Fatalf("read back %v, after chunk %d: cache holds %v, the store %v", readBack, id, got, want)
			}
		}
	}
}

// A flood of hostile ids — all congruent modulo the capacity, and the
// largest id — leaves exactly capacity index entries, in agreement with the
// slots, and the last put of the largest id is the one served.
func TestEdgeCacheBounded(t *testing.T) {
	const capacity, flood = 128, 1_000_000
	payload := []byte{1}
	c := newEdgeCache(capacity)
	var lastMax uint64
	for i := 0; i < flood; i++ {
		id := msg.ChunkID(uint32(i) * capacity)
		if i%7 == 0 {
			id, lastMax = 0xFFFFFFFF, uint64(i)
		}
		c.put(id, payload, uint64(i))
		if i%3 == 0 {
			c.get(id)
		}
	}
	if len(c.index) != capacity {
		t.Fatalf("%d index entries after %d hostile ids, want %d", len(c.index), flood, capacity)
	}
	checkEdgeCache(t, c)
	if e, ok := c.get(0xFFFFFFFF); !ok || e.hash != lastMax {
		t.Fatalf("chunk 0xFFFFFFFF: hash %d (cached %v), want the last put's %d", e.hash, ok, lastMax)
	}
}

// A hit allocates nothing; a steady-state fill allocates only its header
// value (the one-element slice and its string).
func TestEdgeCacheAllocs(t *testing.T) {
	const capacity = 128
	payload := []byte{1}
	c := newEdgeCache(capacity)
	for id := msg.ChunkID(0); id < 4*capacity; id++ {
		c.put(id, payload, uint64(id))
	}
	hot := msg.ChunkID(4*capacity - 1)
	if a := testing.AllocsPerRun(1000, func() { c.get(hot) }); a != 0 {
		t.Fatalf("get allocates %v, want 0", a)
	}
	id := msg.ChunkID(4 * capacity)
	if a := testing.AllocsPerRun(1000, func() { c.put(id, payload, uint64(id)); id++ }); a > 2 {
		t.Fatalf("a steady-state put allocates %v, want ≤ 2", a)
	}
}

// FuzzEdgeCache drives an edge cache with a fuzzer-written schedule and
// checks it against the model of a cache: it stays bounded, its index and
// slots agree after every step, the id just put is always cached (a fill is
// never refused), and a hit returns exactly the slice and hash last put
// under that id, with that hash's header value. The committed corpus under
// testdata/fuzz replays on every plain `go test`.
//
// The first byte picks the capacity (1–8); the rest is two bytes per step,
// an operation and its argument: put or get a small id (ids collide often),
// or put or get a hostile id — congruent to the others modulo the capacity,
// counting down from the largest id.
func FuzzEdgeCache(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 4, 1, 1, 1, 4, 2, 0, 0, 5, 1, 2})
	f.Add([]byte{7, 2, 0, 2, 1, 1, 0, 0, 9, 1, 9, 2, 2, 0, 9, 1, 0xff, 1, 9})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) == 0 || len(schedule) > 4096 {
			t.Skip("empty, or a long schedule that only repeats short ones")
		}
		capacity := 1 + int(schedule[0]%8)
		c := newEdgeCache(capacity)
		type put struct {
			payload []byte
			hash    uint64
		}
		last := map[msg.ChunkID]put{}
		puts := uint64(0)
		for i := 1; i+1 < len(schedule); i += 2 {
			op, arg := schedule[i]%4, schedule[i+1]
			id := msg.ChunkID(arg % 16)
			if op >= 2 {
				id = msg.ChunkID(0xFFFFFFFF - uint32(arg%16)*uint32(capacity))
			}
			switch op {
			case 0, 2:
				puts++
				p := put{payload: make([]byte, 1), hash: puts * 0x9e3779b97f4a7c15}
				c.put(id, p.payload, p.hash)
				last[id] = p
				if _, ok := c.index[id]; !ok {
					t.Fatalf("step %d: chunk %d not cached right after its put", i/2, id)
				}
			case 1, 3:
				e, ok := c.get(id)
				if !ok {
					break
				}
				want, everPut := last[id]
				if !everPut || &e.payload[0] != &want.payload[0] || e.hash != want.hash {
					t.Fatalf("step %d: get(%d) = hash %#x, not the last put's %#x (ever put %v)", i/2, id, e.hash, want.hash, everPut)
				}
				if len(e.hashHdr) != 1 || e.hashHdr[0] != fmt.Sprintf("%016x", e.hash) {
					t.Fatalf("step %d: get(%d) header %q for hash %#x", i/2, id, e.hashHdr, e.hash)
				}
			}
			checkEdgeCache(t, c)
		}
	})
}
