package stats

import (
	"math/rand"
	"testing"
)

// faninCounts is a histogram shape for which the naive (unsorted) float fold
// provably diverges under permutation: summing -q·log2(q) over these counts
// forward vs. over a shuffle differs in the last ulp. Regression for the
// Multiset.Entropy determinism bug: counts were collected in map iteration
// order, which Go randomizes per range loop, so the same multiset could
// return different float64 entropies on consecutive calls.
var faninCounts = []int{
	96, 45, 31, 38, 59, 40, 81, 81, 68, 80, 52, 30, 6, 5, 40, 94,
	95, 18, 48, 61, 69, 46, 68, 22, 84, 45, 91, 62, 26, 25, 15, 78,
	93, 70, 29, 51, 48, 94, 63, 40, 30, 84, 10, 41, 68, 81,
}

// TestEntropyOfCountsPermutationInvariant pins the bit-exactness contract:
// EntropyOfCounts must return the identical float64 for every permutation of
// its input, because multiset callers assemble the slice in nondeterministic
// map order.
func TestEntropyOfCountsPermutationInvariant(t *testing.T) {
	ref := EntropyOfCounts(faninCounts)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := append([]int(nil), faninCounts...)
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		if got := EntropyOfCounts(p); got != ref {
			t.Fatalf("trial %d: EntropyOfCounts permuted = %.17g, want %.17g (diff %g)",
				trial, got, ref, got-ref)
		}
	}
}

// TestEntropyOfCountsDoesNotMutateInput guards the defensive copy: the fold
// sorts internally, but the caller's slice must come back untouched.
func TestEntropyOfCountsDoesNotMutateInput(t *testing.T) {
	in := []int{5, 1, 3, 2}
	EntropyOfCounts(in)
	for i, want := range []int{5, 1, 3, 2} {
		if in[i] != want {
			t.Fatalf("EntropyOfCounts mutated its input: %v", in)
		}
	}
}

// TestMultisetEntropyStableAcrossCalls is the end-to-end regression: a
// multiset whose count histogram has an order-sensitive fold must report the
// identical entropy on every call, even though each call ranges its internal
// map in a fresh randomized order.
func TestMultisetEntropyStableAcrossCalls(t *testing.T) {
	m := NewMultiset[int]()
	for elem, c := range faninCounts {
		for i := 0; i < c; i++ {
			m.Add(elem)
		}
	}
	ref := m.Entropy()
	for call := 0; call < 100; call++ {
		if got := m.Entropy(); got != ref {
			t.Fatalf("call %d: Entropy() = %.17g, want %.17g (map-order-dependent fold)",
				call, got, ref)
		}
	}
}
