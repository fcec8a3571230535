package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMultisetBasics(t *testing.T) {
	m := NewMultiset[string]()
	if m.Len() != 0 || len(m.counts) != 0 {
		t.Fatal("new multiset not empty")
	}
	m.Add("a")
	m.Add("a")
	m.Add("b")
	if !reflect.DeepEqual(m.counts, map[string]int{"a": 2, "b": 1}) {
		t.Fatalf("counts = %v, want a→2, b→1", m.counts)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
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
	for i := 0; i < 100; i++ {
		m.Add(1)
	}
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
		return h >= -1e-12 && h <= math.Log2(float64(len(m.counts)))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
