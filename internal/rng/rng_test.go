package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(7)
	a := root.Derive("alpha")
	b := root.Derive("beta")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams produced %d identical 64-bit draws out of 1000", same)
	}
}

func TestDeriveStable(t *testing.T) {
	x := New(7).Derive("x").Uint64()
	y := New(7).Derive("x").Uint64()
	if x != y {
		t.Fatalf("Derive is not stable: %d != %d", x, y)
	}
}

func TestForNodeMatchesDerive(t *testing.T) {
	a := New(3).ForNode(17).Uint64()
	b := New(3).Derive("node/17").Uint64()
	if a != b {
		t.Fatalf("ForNode(17) != Derive(%q)", "node/17")
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(2)
	const trials = 200000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bernoulli(0.07) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.07) > 0.005 {
		t.Fatalf("Bernoulli(0.07) hit rate = %v, want ~0.07", rate)
	}
}

func TestSampleKProperties(t *testing.T) {
	s := New(11)
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw) % (n + 1)
		out := s.SampleK(n, k)
		if len(out) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKUniform(t *testing.T) {
	// Each element of [0, n) should appear in a k-subset with probability
	// k/n. Chi-square over inclusion counts should be modest.
	s := New(5)
	const n, k, trials = 20, 5, 40000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleK(n, k) {
			counts[v]++
		}
	}
	expected := float64(trials) * float64(k) / float64(n)
	var chi float64
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	// 19 degrees of freedom; 43.8 is the 0.1% critical value.
	if chi > 43.8 {
		t.Fatalf("SampleK inclusion chi-square = %v, suggests non-uniform sampling", chi)
	}
}

func TestSampleKFullRange(t *testing.T) {
	s := New(9)
	out := s.SampleK(10, 10)
	seen := make(map[int]bool)
	for _, v := range out {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("SampleK(10,10) did not return a permutation: %v", out)
	}
}

func TestSampleKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleK(3, 4) did not panic")
		}
	}()
	New(1).SampleK(3, 4)
}

func TestWeightedChoice(t *testing.T) {
	s := New(21)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}
