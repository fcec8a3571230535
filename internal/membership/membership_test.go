package membership

import (
	"slices"
	"testing"
	"testing/quick"

	"lifting/internal/msg"
	"lifting/internal/rng"
	"lifting/internal/stats"
)

func TestSequential(t *testing.T) {
	d := Sequential(5)
	if len(d.All()) != 5 || d.NAlive() != 5 {
		t.Fatalf("All/NAlive = %d/%d, want 5/5", len(d.All()), d.NAlive())
	}
	for i := 0; i < 5; i++ {
		if !d.Alive(msg.NodeID(i)) {
			t.Fatalf("node %d not alive", i)
		}
	}
	if d.Alive(99) {
		t.Fatal("unknown node reported alive")
	}
}

func TestDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ids did not panic")
		}
	}()
	NewDirectory([]msg.NodeID{1, 1})
}

func TestExpel(t *testing.T) {
	d := Sequential(4)
	if !d.Expel(2) {
		t.Fatal("Expel(2) returned false")
	}
	if d.Alive(2) {
		t.Fatal("expelled node still alive")
	}
	if d.NAlive() != 3 {
		t.Fatalf("NAlive = %d, want 3", d.NAlive())
	}
	if d.Expel(2) {
		t.Fatal("second Expel returned true")
	}
	if len(d.All()) != 4 {
		t.Fatal("All changed after expulsion")
	}
	// Remaining nodes still sampleable.
	s := rng.New(1)
	got := d.Sample(s, 3, 0, nil)
	for _, id := range got {
		if id == 2 || id == 0 {
			t.Fatalf("Sample returned expelled or self node: %v", got)
		}
	}
	if len(got) != 2 {
		t.Fatalf("Sample(3 excluding self among 3 alive) returned %d, want 2", len(got))
	}
}

func TestSampleNeverSelfNeverDup(t *testing.T) {
	d := Sequential(30)
	s := rng.New(7)
	for trial := 0; trial < 500; trial++ {
		out := d.Sample(s, 12, 5, nil)
		if len(out) != 12 {
			t.Fatalf("len = %d, want 12", len(out))
		}
		seen := make(map[msg.NodeID]bool)
		for _, id := range out {
			if id == 5 {
				t.Fatal("sample contains self")
			}
			if seen[id] {
				t.Fatal("sample contains duplicate")
			}
			seen[id] = true
		}
	}
}

func TestSampleUniformity(t *testing.T) {
	// Inclusion frequency must be uniform across all non-self nodes.
	d := Sequential(50)
	s := rng.New(3)
	counts := make([]int, 50)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, id := range d.Sample(s, 7, 0, nil) {
			counts[id]++
		}
	}
	if counts[0] != 0 {
		t.Fatal("self was sampled")
	}
	chi := stats.ChiSquareUniform(counts[1:])
	// 48 degrees of freedom; 0.1% critical value ~ 88.
	if chi > 88 {
		t.Fatalf("sample inclusion chi-square = %v, too non-uniform", chi)
	}
}

func TestSampleKLargerThanPopulation(t *testing.T) {
	d := Sequential(4)
	s := rng.New(1)
	out := d.Sample(s, 10, 1, nil)
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3 (everyone but self)", len(out))
	}
}

func TestSampleZeroAndEmpty(t *testing.T) {
	d := Sequential(3)
	s := rng.New(1)
	if out := d.Sample(s, 0, 0, nil); out != nil {
		t.Fatalf("Sample(0) = %v, want nil", out)
	}
	d1 := Sequential(1)
	if out := d1.Sample(s, 5, 0, nil); out != nil {
		t.Fatalf("Sample from single-node system = %v, want nil", out)
	}
}

func TestSampleExternalSelf(t *testing.T) {
	// A sampler that is not itself a member (e.g. the stream source with a
	// dedicated id) must still be able to sample everyone.
	d := Sequential(5)
	s := rng.New(2)
	out := d.Sample(s, 5, 1000, nil)
	if len(out) != 5 {
		t.Fatalf("len = %d, want 5", len(out))
	}
}

func TestManagersDeterministicAndValid(t *testing.T) {
	d := Sequential(100)
	a := d.Managers(42, 25)
	b := d.Managers(42, 25)
	if len(a) != 25 {
		t.Fatalf("len = %d, want 25", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("manager assignment is not deterministic")
		}
	}
	seen := make(map[msg.NodeID]bool)
	for _, id := range a {
		if id == 42 {
			t.Fatal("target is its own manager")
		}
		if seen[id] {
			t.Fatal("duplicate manager")
		}
		seen[id] = true
	}
}

func TestManagersDifferPerTarget(t *testing.T) {
	d := Sequential(1000)
	a := d.Managers(1, 25)
	b := d.Managers(2, 25)
	same := 0
	inA := make(map[msg.NodeID]bool)
	for _, id := range a {
		inA[id] = true
	}
	for _, id := range b {
		if inA[id] {
			same++
		}
	}
	if same == 25 {
		t.Fatal("different targets share an identical manager set")
	}
}

func TestManagersSmallSystem(t *testing.T) {
	d := Sequential(3)
	ms := d.Managers(0, 25)
	if len(ms) != 2 {
		t.Fatalf("managers in 3-node system = %d, want 2", len(ms))
	}
	d1 := Sequential(1)
	if ms := d1.Managers(0, 5); ms != nil {
		t.Fatalf("managers in 1-node system = %v, want nil", ms)
	}
}

func TestSamplePropertyQuick(t *testing.T) {
	f := func(nRaw uint8, kRaw uint8, selfRaw uint8) bool {
		n := int(nRaw%50) + 2
		k := int(kRaw % 20)
		self := msg.NodeID(selfRaw % uint8(n))
		d := Sequential(n)
		s := rng.New(uint64(nRaw)<<16 | uint64(kRaw)<<8 | uint64(selfRaw))
		out := d.Sample(s, k, self, nil)
		want := k
		if want > n-1 {
			want = n - 1
		}
		if len(out) != want {
			return false
		}
		seen := make(map[msg.NodeID]bool)
		for _, id := range out {
			if id == self || seen[id] || !d.Alive(id) {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sampleFresh is Sample as it stood when it allocated its result: the
// reference the appending Sample is diffed against, draw for draw.
func (d *Directory) sampleFresh(s *rng.Stream, k int, self msg.NodeID) []msg.NodeID {
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

// TestSampleAppendsLikeFreshSample: appending to a list that already holds
// ids — some of them the ones drawn — picks what the allocating Sample
// picked with the same draws, leaves the prefix alone, and allocates
// nothing when the list has room.
func TestSampleAppendsLikeFreshSample(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed).Derive("sample-append")
		n := 1 + r.IntN(40)
		d := Sequential(n)
		for k := r.IntN(n); k > 0; k-- {
			d.Expel(msg.NodeID(r.IntN(n)))
		}
		k, self := r.IntN(n+3), msg.NodeID(r.IntN(n+1))
		prefix := []msg.NodeID{msg.NodeID(r.IntN(n)), msg.NodeID(r.IntN(n))}
		want := d.sampleFresh(rng.New(seed), k, self)
		s := rng.New(seed)
		got := d.Sample(s, k, self, append(make([]msg.NodeID, 0, len(prefix)+k), prefix...))
		if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("seed %d: Sample(k %d, self %d) after %v = %v, want %v", seed, k, self, prefix, got, want)
		}
		ref := rng.New(seed)
		d.sampleFresh(ref, k, self)
		if s.Uint64() != ref.Uint64() {
			t.Fatalf("seed %d: Sample made other draws than the allocating one", seed)
		}
	}
	d, s := Sequential(100), rng.New(1)
	buf := make([]msg.NodeID, 0, 12)
	if got := testing.AllocsPerRun(100, func() { d.Sample(s, 12, 3, buf[:0]) }); got != 0 {
		t.Fatalf("Sample into a list with room allocates %v objects, want 0", got)
	}
}
