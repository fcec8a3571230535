package content

import (
	"sync"
	"testing"

	"lifting/internal/msg"
	"lifting/internal/rng"
)

// serveStep is one serve as the verified-once check sees it.
type serveStep struct {
	name    string
	c       msg.ChunkID
	payload []byte
	hash    uint64
}

// passedEntry is what a slot must remember of the payload that last passed
// the full hash under it.
type passedEntry struct {
	c     msg.ChunkID
	first *byte
	n     int
	hash  uint64
}

// verifiedModel drives a store's Verified next to plain Verify. A hit makes
// no Put and a miss that passes makes exactly one, so Puts tells the two
// apart from outside.
type verifiedModel struct {
	t      *testing.T
	s      *Store
	passed map[int]passedEntry // by slot
	hits   int
}

func (m *verifiedModel) step(st serveStep) {
	m.t.Helper()
	want := Verify(st.payload, st.hash)
	slot := int(uint32(st.c)) % len(m.s.slots)
	e, ok := m.passed[slot]
	wantHit := ok && len(st.payload) > 0 && e == passedEntry{st.c, &st.payload[0], len(st.payload), st.hash}
	if wantHit && !want {
		m.t.Fatalf("%s: the model expects a hit on a payload Verify rejects: a shared slice was written to", st.name)
	}

	before := m.s.Puts()
	got := m.s.Verified(st.c, st.payload, st.hash)
	puts := m.s.Puts() - before
	if got != want {
		m.t.Fatalf("%s: Verified = %t, Verify = %t", st.name, got, want)
	}
	switch {
	case wantHit && puts != 0:
		m.t.Fatalf("%s: the identical slice passed before, yet it was hashed and stored again", st.name)
	case !wantHit && want && puts != 1:
		m.t.Fatalf("%s: accepted without the full hash (%d puts): no identical slice passed before", st.name, puts)
	case !want && puts != 0:
		m.t.Fatalf("%s: a rejected payload was remembered", st.name)
	}
	if wantHit {
		m.hits++
	} else if want && len(st.payload) > 0 {
		m.passed[slot] = passedEntry{st.c, &st.payload[0], len(st.payload), st.hash}
	} else if want {
		delete(m.passed, slot) // an empty payload holds the slot and can never hit
	}
	if m.s.Len() > len(m.s.slots) {
		m.t.Fatalf("%s: %d entries in %d slots", st.name, m.s.Len(), len(m.s.slots))
	}
}

// attackSteps is the sequence the issue lists: everything that must and
// must not be taken for the slice that passed before. capacity is the
// store's, so that the last steps can collide in a slot.
func attackSteps(capacity int) []serveStep {
	p, h := NewSource(11, 1316).Chunk(5)
	cp := append([]byte(nil), p...)
	flipped := append([]byte(nil), p...)
	flipped[700] ^= 0x10
	q, hq := NewSource(11, 1316).Chunk(5 + msg.ChunkID(capacity))
	return []serveStep{
		{"canonical slice, first sight", 5, p, h},
		{"the same slice again", 5, p, h},
		{"a copy of it", 5, cp, h},
		{"the canonical slice after the copy took its slot", 5, p, h},
		{"the canonical slice once more", 5, p, h},
		{"a copy with one bit flipped under the right hash", 5, flipped, h},
		{"the canonical slice after the rejected copy", 5, p, h},
		{"the canonical slice under a wrong hash", 5, p, h ^ 1},
		{"the canonical slice under the hash of other bytes", 5, p, hq},
		{"one byte short under the right hash", 5, p[:len(p)-1], h},
		{"one byte in under the right hash", 5, p[1:], h},
		{"one byte short under its own hash", 5, p[:len(p)-1], HashBytes(p[:len(p)-1])},
		{"the canonical slice after its prefix took the slot", 5, p, h},
		{"one byte in under its own hash", 5, p[1:], HashBytes(p[1:])},
		{"nil", 5, nil, h},
		{"nil under the hash of nothing", 5, nil, HashBytes(nil)},
		{"empty under the right hash", 5, p[:0], h},
		{"empty under the hash of nothing", 5, p[:0], HashBytes(nil)},
		{"the canonical slice after the empty one", 5, p, h},
		{"the canonical slice under another chunk id", 6, p, h},
		{"a colliding chunk id", 5 + msg.ChunkID(capacity), q, hq},
		{"the first id back", 5, p, h},
		{"the colliding id back", 5 + msg.ChunkID(capacity), q, hq},
		{"the colliding id again", 5 + msg.ChunkID(capacity), q, hq},
		{"the colliding slice under the first id", 5, q, hq},
	}
}

// TestVerifiedMatchesVerify is the differential test of the verified-once
// check: the listed attacks in order, then seeded random sequences over the
// same kinds of payload, each step against plain Verify and against a model
// of which slice last passed under each slot.
func TestVerifiedMatchesVerify(t *testing.T) {
	const capacity = 8
	m := &verifiedModel{t: t, s: NewStore(capacity), passed: make(map[int]passedEntry)}
	for _, st := range attackSteps(capacity) {
		m.step(st)
	}
	if m.hits != 4 {
		t.Fatalf("%d hits in the listed sequence, want 4", m.hits)
	}

	// A nil table hashes everything.
	var none *Store
	for _, st := range attackSteps(capacity) {
		if got, want := none.Verified(st.c, st.payload, st.hash), Verify(st.payload, st.hash); got != want {
			t.Fatalf("nil table, %s: Verified = %t, Verify = %t", st.name, got, want)
		}
	}

	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed).Derive("verified")
		m := &verifiedModel{t: t, s: NewStore(capacity), passed: make(map[int]passedEntry)}
		src := NewSource(seed, 64+r.IntN(1300))
		ids := make([]msg.ChunkID, 2*capacity)
		for i := range ids {
			ids[i] = msg.ChunkID(r.IntN(4 * capacity))
			if r.IntN(6) == 0 {
				ids[i] = msg.ChunkID(r.Uint64()) // hostile: anywhere in the id space
			}
		}
		copies := make(map[msg.ChunkID][]byte)
		for i := 0; i < 4000; i++ {
			c := ids[r.IntN(len(ids))]
			p, h := src.Chunk(c)
			st := serveStep{name: "random step", c: c, payload: p, hash: h}
			switch r.IntN(24) { // two steps in three are the canonical slice under its own hash
			case 0: // a fresh copy
				st.payload = append([]byte(nil), p...)
			case 1: // the same copy as last time
				if copies[c] == nil {
					copies[c] = append([]byte(nil), p...)
				}
				st.payload = copies[c]
			case 2: // corrupted under the right hash
				st.payload = append([]byte(nil), p...)
				st.payload[r.IntN(len(p))] ^= 1 << r.IntN(8)
			case 3: // the right bytes under another hash
				st.hash ^= 1 << r.IntN(64)
			case 4: // a sub-slice under the right hash
				st.payload = p[r.IntN(2) : len(p)-r.IntN(2)]
			case 5: // a sub-slice under its own hash
				st.payload = p[:len(p)-1-r.IntN(8)]
				st.hash = HashBytes(st.payload)
			case 6:
				st.payload = nil
			case 7: // another chunk's slice and hash under this id
				st.payload, st.hash = src.Chunk(ids[r.IntN(len(ids))])
			}
			m.step(st)
		}
		if m.hits < 800 {
			t.Fatalf("seed %d: %d hits in 4000 steps: the sequence does not reach the path", seed, m.hits)
		}
	}
}

// TestVerifiedAllocatesNothing: the check sits on every serve of a sim run,
// hit or miss.
func TestVerifiedAllocatesNothing(t *testing.T) {
	s := NewStore(8)
	p, h := NewSource(3, 5264).Chunk(1)
	cp := append([]byte(nil), p...)
	s.Verified(1, p, h)
	if n := testing.AllocsPerRun(100, func() { s.Verified(1, p, h) }); n != 0 {
		t.Fatalf("a hit allocates %v times", n)
	}
	other := false
	miss := func() {
		// Two slices alternate under one id: every call is a miss that passes.
		if other = !other; other {
			s.Verified(1, cp, h)
		} else {
			s.Verified(1, p, h)
		}
	}
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Fatalf("a miss that passes allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Verified(1, p, h^1) }); n != 0 {
		t.Fatalf("a miss that fails allocates %v times", n)
	}
}

// TestVerifiedTableIsBounded floods the table with ten times its capacity
// of distinct hostile ids, each under a payload that passes: it holds its
// capacity and no more.
func TestVerifiedTableIsBounded(t *testing.T) {
	const capacity = 16
	s := NewStore(capacity)
	r := rng.New(9).Derive("flood")
	for i := 0; i < 10*capacity; i++ {
		p := Generate(9, msg.ChunkID(i), 64)
		if !s.Verified(msg.ChunkID(r.Uint64()), p, HashBytes(p)) {
			t.Fatal("a payload that matches its hash was rejected")
		}
		if s.Len() > capacity {
			t.Fatalf("%d entries in a table of %d", s.Len(), capacity)
		}
	}
	if s.Puts() != 10*capacity {
		t.Fatalf("%d puts, want %d: a hostile id hit", s.Puts(), 10*capacity)
	}
}

// TestVerifiedConcurrent runs the listed attacks from four goroutines on one
// table, as shard goroutines do: whatever the interleaving, every answer is
// Verify's. Run under -race.
func TestVerifiedConcurrent(t *testing.T) {
	const capacity = 8
	s := NewStore(capacity)
	steps := attackSteps(capacity)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for _, st := range steps {
					if got, want := s.Verified(st.c, st.payload, st.hash), Verify(st.payload, st.hash); got != want {
						t.Errorf("%s: Verified = %t, Verify = %t", st.name, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
