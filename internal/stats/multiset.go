package stats

// Multiset is a counted set over a comparable element type. LiFTinG's local
// history auditing (§5.3) operates on two multisets per node: Fh, the nodes
// the audited node proposed to, and F'h, the nodes that served it (fanin).
type Multiset[T comparable] struct {
	counts map[T]int
	size   int
}

// NewMultiset returns an empty multiset.
func NewMultiset[T comparable]() *Multiset[T] {
	return &Multiset[T]{counts: make(map[T]int)}
}

// Add inserts one occurrence of v.
func (m *Multiset[T]) Add(v T) {
	m.counts[v]++
	m.size++
}

// Len returns the total number of occurrences.
func (m *Multiset[T]) Len() int { return m.size }

// Entropy returns the Shannon entropy, in bits, of the empirical
// distribution of elements. This is H(d̃h) of Equation (1) in the paper.
func (m *Multiset[T]) Entropy() float64 {
	if m.size == 0 {
		return 0
	}
	counts := make([]int, 0, len(m.counts))
	//lint:allow ordered-map-range EntropyOfCounts sorts the counts, so the fold is permutation-invariant
	for _, c := range m.counts {
		counts = append(counts, c)
	}
	return EntropyOfCounts(counts)
}
