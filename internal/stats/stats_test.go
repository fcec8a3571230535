package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestEntropyOfCountsMatchesEntropy(t *testing.T) {
	// H(3/8, 1/8, 0, 4/8) = −Σ q·log2 q, the zero count contributing nothing.
	want := -(3.0/8*math.Log2(3.0/8) + 1.0/8*math.Log2(1.0/8) + 4.0/8*math.Log2(4.0/8))
	if got := EntropyOfCounts([]int{3, 1, 0, 4}); !almostEqual(got, want, 1e-12) {
		t.Fatalf("EntropyOfCounts = %v, want %v", got, want)
	}
}

func TestMoments(t *testing.T) {
	var m Moments
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		m.Add(x)
	}
	if m.N() != len(xs) {
		t.Fatalf("N = %d", m.N())
	}
	if !almostEqual(m.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", m.Mean())
	}
	if !almostEqual(m.Std(), 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", m.Std())
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", m.Min(), m.Max())
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Var() != 0 || m.Std() != 0 {
		t.Fatal("empty Moments should report zeros")
	}
}

func TestMomentsMatchesBatch(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var m Moments
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			m.Add(xs[i])
		}
		return almostEqual(m.Mean(), Mean(xs), 1e-9) && almostEqual(m.Std(), Std(xs), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if e.Min() != 1 || e.Max() != 4 || e.N() != 4 {
		t.Fatal("ECDF Min/Max/N wrong")
	}
	if q := e.Quantile(0.5); q != 3 {
		t.Fatalf("Quantile(0.5) = %v, want 3", q)
	}
	if q := e.Quantile(0); q != 1 {
		t.Fatalf("Quantile(0) = %v, want 1", q)
	}
	if q := e.Quantile(1); q != 4 {
		t.Fatalf("Quantile(1) = %v, want 4", q)
	}
}

func TestChiSquareUniform(t *testing.T) {
	if chi := ChiSquareUniform([]int{10, 10, 10, 10}); chi != 0 {
		t.Fatalf("chi-square of exactly uniform counts = %v, want 0", chi)
	}
	if chi := ChiSquareUniform([]int{40, 0, 0, 0}); chi <= 0 {
		t.Fatal("chi-square of a point mass should be positive")
	}
	if chi := ChiSquareUniform(nil); chi != 0 {
		t.Fatal("chi-square of empty input should be 0")
	}
}

func TestMaxEntropy(t *testing.T) {
	if MaxEntropy(1) != 0 || MaxEntropy(0) != 0 {
		t.Fatal("MaxEntropy of degenerate sizes should be 0")
	}
	// The paper's bound for a history of nh·f = 600 entries: log2(600) = 9.23.
	if !almostEqual(MaxEntropy(600), 9.2288, 1e-3) {
		t.Fatalf("MaxEntropy(600) = %v, want ~9.23 (paper §6.3.2)", MaxEntropy(600))
	}
}
