package content

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"lifting/internal/msg"
)

// TestHashBytesProperties pins the contract the protocol depends on: the
// hash is a pure function of the bytes (length included), any single-bit
// flip changes it, and word/tail boundaries are all covered.
func TestHashBytesProperties(t *testing.T) {
	if HashBytes(nil) != HashBytes([]byte{}) {
		t.Fatal("nil and empty must hash identically")
	}
	seen := make(map[uint64][]byte)
	for size := 0; size <= 24; size++ {
		b := Generate(7, 3, size+1)[:size]
		h := HashBytes(b)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision between %q and %q", prev, b)
		}
		seen[h] = append([]byte(nil), b...)
		if HashBytes(append([]byte(nil), b...)) != h {
			t.Fatalf("size %d: hash not a pure function of the bytes", size)
		}
	}
	payload := Generate(7, 3, 1316)
	h := HashBytes(payload)
	for _, i := range []int{0, 1, 7, 8, 9, 1314, 1315} {
		mutated := append([]byte(nil), payload...)
		mutated[i] ^= 1
		if HashBytes(mutated) == h {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
	}
	if HashBytes(payload[:1315]) == h {
		t.Fatal("truncation not detected")
	}
}

// TestHashBytesGolden pins the exact values: the hash crosses processes
// (msg.Serve frames, the gateway's hash header), so it must be stable
// across platforms and releases.
func TestHashBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		in   []byte
		want uint64
	}{
		{nil, 0xcbf29ce44fd0bfc1},
		{[]byte("a"), 0xff441772f21b5f59},
		{[]byte("lifting"), 0x73b478346c3720d5},
		{[]byte("liftingg"), 0xd409fd6baccd5c92},
		{Generate(7, 3, 1316), 0xd19975f6dc948f95},
	} {
		if got := HashBytes(tc.in); got != tc.want {
			t.Fatalf("HashBytes(%q) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 7, 1316)
	b := Generate(42, 7, 1316)
	if !bytes.Equal(a, b) {
		t.Fatal("same (seed, chunk, size) produced different payloads")
	}
	if bytes.Equal(a, Generate(42, 8, 1316)) {
		t.Fatal("different chunks produced identical payloads")
	}
	if bytes.Equal(a, Generate(43, 7, 1316)) {
		t.Fatal("different seeds produced identical payloads")
	}
	if len(Generate(1, 1, 5264)) != 5264 {
		t.Fatal("payload size not honored")
	}
	if Generate(1, 1, 0) != nil {
		t.Fatal("zero size should generate nil")
	}
	// The keystream must not degenerate: a chunk should use most byte
	// values, not a constant filler.
	seen := map[byte]bool{}
	for _, c := range a {
		seen[c] = true
	}
	if len(seen) < 100 {
		t.Fatalf("payload uses only %d distinct byte values", len(seen))
	}
}

func TestSourceMemoizes(t *testing.T) {
	s := NewSource(9, 64)
	p1, h1 := s.Chunk(5)
	p2, h2 := s.Chunk(5)
	if &p1[0] != &p2[0] {
		t.Fatal("source did not memoize the canonical slice")
	}
	if h1 != h2 || h1 != HashBytes(p1) {
		t.Fatal("hash mismatch")
	}
	if !bytes.Equal(p1, Generate(9, 5, 64)) {
		t.Fatal("source payload differs from Generate")
	}
}

func TestStorePutGet(t *testing.T) {
	s := NewStore(8)
	if s.Len() != 0 || len(s.slots) != 8 {
		t.Fatal("fresh store not empty")
	}
	payload := Generate(1, 3, 32)
	s.Put(3, payload, HashBytes(payload))
	got, hash, ok := s.Get(3)
	if !ok || !bytes.Equal(got, payload) || hash != HashBytes(payload) {
		t.Fatal("get after put failed")
	}
	if &got[0] != &payload[0] {
		t.Fatal("store copied the payload; it must retain the caller's slice")
	}
	if _, _, ok := s.Get(4); ok {
		t.Fatal("get of a missing chunk succeeded")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
}

func TestStoreEvictsInStreamOrder(t *testing.T) {
	s := NewStore(4)
	for c := msg.ChunkID(0); c < 10; c++ {
		s.Put(c, Generate(1, c, 16), 0)
	}
	// Chunks 6..9 occupy the 4 slots; everything older was displaced.
	for c := msg.ChunkID(0); c < 6; c++ {
		if _, _, ok := s.Get(c); ok {
			t.Fatalf("chunk %d survived eviction", c)
		}
	}
	for c := msg.ChunkID(6); c < 10; c++ {
		if _, _, ok := s.Get(c); !ok {
			t.Fatalf("chunk %d missing", c)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	want := []msg.ChunkID{6, 7, 8, 9}
	got := s.Chunks()
	if len(got) != len(want) {
		t.Fatalf("chunks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunks = %v, want %v", got, want)
		}
	}
}

func TestStoreRePutSameChunk(t *testing.T) {
	s := NewStore(4)
	s.Put(1, []byte("a"), 1)
	s.Put(1, []byte("b"), 2)
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1: a re-put displaces nothing", s.Len())
	}
	p, h, _ := s.Get(1)
	if string(p) != "b" || h != 2 {
		t.Fatal("re-put did not replace the payload")
	}
	if s.Puts() != 2 {
		t.Fatalf("puts = %d, want 2", s.Puts())
	}
}

// TestStoreConcurrent exercises the store the way a deployment does: node
// callbacks writing while gateway HTTP handlers read. Run under -race in CI.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore(64)
	src := NewSource(3, 128)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for c := msg.ChunkID(0); c < 500; c++ {
				payload, hash := src.Chunk(c)
				s.Put(c, payload, hash)
			}
		}()
		go func() {
			defer wg.Done()
			for c := msg.ChunkID(0); c < 500; c++ {
				if payload, hash, ok := s.Get(c); ok && !Verify(payload, hash) {
					t.Error("stored payload fails verification")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStoreCapacityFor(t *testing.T) {
	// The paper's configuration: 674 kbps / 1316 B chunks is a ~15.6 ms
	// chunk interval; 16 periods of 500 ms must hold 512 chunks.
	if got := StoreCapacityFor(15620178, 500*time.Millisecond); got != 513 {
		t.Fatalf("capacity = %d, want 513", got)
	}
	// Slow streams fall back to the floor.
	if got := StoreCapacityFor(time.Second, 500*time.Millisecond); got != DefaultStoreCapacity {
		t.Fatalf("capacity = %d, want floor %d", got, DefaultStoreCapacity)
	}
	// Degenerate inputs fall back to the floor.
	if got := StoreCapacityFor(0, time.Second); got != DefaultStoreCapacity {
		t.Fatalf("capacity = %d, want floor %d", got, DefaultStoreCapacity)
	}
	if got := StoreCapacityFor(time.Millisecond, 0); got != DefaultStoreCapacity {
		t.Fatalf("capacity = %d, want floor %d", got, DefaultStoreCapacity)
	}
}

func TestVerify(t *testing.T) {
	p := Generate(1, 1, 100)
	if !Verify(p, HashBytes(p)) {
		t.Fatal("valid payload rejected")
	}
	if Verify(p, HashBytes(p)^1) {
		t.Fatal("wrong hash accepted")
	}
	if Verify(nil, HashBytes(nil)) {
		t.Fatal("nil payload accepted")
	}
	mutated := append([]byte(nil), p...)
	mutated[50] ^= 0x01
	if Verify(mutated, HashBytes(p)) {
		t.Fatal("corrupted payload accepted")
	}
}

func BenchmarkHashBytes(b *testing.B) {
	payload := Generate(1, 1, 1316)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashBytes(payload)
	}
}

func BenchmarkStorePutGet(b *testing.B) {
	s := NewStore(DefaultStoreCapacity)
	src := NewSource(1, 1316)
	// Pre-generate a window of chunks so the bench measures the store, not
	// the generator.
	payloads := make([][]byte, 256)
	hashes := make([]uint64, 256)
	for c := range payloads {
		payloads[c], hashes[c] = src.Chunk(msg.ChunkID(c))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := msg.ChunkID(i % 256)
		s.Put(c, payloads[c], hashes[c])
		if _, _, ok := s.Get(c); !ok {
			b.Fatal("miss after put")
		}
	}
}
