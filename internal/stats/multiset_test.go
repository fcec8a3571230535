package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMultisetBasics(t *testing.T) {
	m := NewMultiset[string]()
	if m.Len() != 0 || m.Distinct() != 0 {
		t.Fatal("new multiset not empty")
	}
	m.Add("a")
	m.Add("a")
	m.Add("b")
	if m.Count("a") != 2 || m.Count("b") != 1 || m.Count("c") != 0 {
		t.Fatal("counts wrong")
	}
	if m.Len() != 3 || m.Distinct() != 2 {
		t.Fatalf("Len/Distinct = %d/%d, want 3/2", m.Len(), m.Distinct())
	}
}

func TestMultisetAddNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddN(-1) did not panic")
		}
	}()
	NewMultiset[int]().AddN(1, -1)
}

func TestMultisetEntropyUniform(t *testing.T) {
	m := NewMultiset[int]()
	for i := 0; i < 64; i++ {
		m.Add(i)
	}
	if h := m.Entropy(); math.Abs(h-6) > 1e-12 {
		t.Fatalf("entropy of 64 distinct singletons = %v, want 6", h)
	}
}

func TestMultisetEntropyPointMass(t *testing.T) {
	m := NewMultiset[int]()
	m.AddN(1, 100)
	if h := m.Entropy(); h != 0 {
		t.Fatalf("entropy of a point mass = %v, want 0", h)
	}
	if h := NewMultiset[int]().Entropy(); h != 0 {
		t.Fatalf("entropy of empty multiset = %v, want 0", h)
	}
}

func TestMultisetEntropyBoundProperty(t *testing.T) {
	// Entropy of any multiset is within [0, log2(distinct)].
	f := func(raw []uint8) bool {
		m := NewMultiset[uint8]()
		for _, v := range raw {
			m.Add(v)
		}
		h := m.Entropy()
		if m.Len() == 0 {
			return h == 0
		}
		return h >= -1e-12 && h <= math.Log2(float64(m.Distinct()))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
