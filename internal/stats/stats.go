// Package stats provides the statistical toolkit used by LiFTinG's
// entropy-based audits (§5.3 of the paper) and by the experiment harness:
// Shannon entropy of count histograms, multisets, empirical CDFs and
// streaming moments.
package stats

import (
	"math"
	"sort"
)

// EntropyOfCounts returns the Shannon entropy, in bits, of the empirical
// distribution given by integer counts.
//
// The result is invariant under permutation of counts: the fold runs over a
// sorted copy, so callers that collect counts from a map (randomized
// iteration order) get bit-identical results on every call. Float addition
// is not associative — folding the same terms in two different orders can
// differ in the last ulp, which is enough to break the byte-identical
// document contract when the value reaches a table or a JSON field.
func EntropyOfCounts(counts []int) float64 {
	sorted := make([]int, len(counts))
	copy(sorted, counts)
	sort.Ints(sorted)
	var total float64
	for _, c := range sorted {
		if c < 0 {
			return math.NaN()
		}
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range sorted {
		if c == 0 {
			continue
		}
		q := float64(c) / total
		h -= q * math.Log2(q)
	}
	return h
}

// MaxEntropy returns log2(k), the maximum entropy of a distribution over k
// outcomes (the paper's bound log2(nh·f) for a history of nh·f entries all
// distinct). It returns 0 for k <= 1.
func MaxEntropy(k int) float64 {
	if k <= 1 {
		return 0
	}
	return math.Log2(float64(k))
}

// Moments accumulates streaming mean/variance using Welford's algorithm.
// The zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x.
func (m *Moments) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the sample mean (0 if empty).
func (m *Moments) Mean() float64 { return m.mean }

// Var returns the population variance (0 if fewer than two samples).
func (m *Moments) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Std returns the population standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest sample (0 if empty).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest sample (0 if empty).
func (m *Moments) Max() float64 { return m.max }

// ECDF is an empirical cumulative distribution function over a fixed sample.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the samples.
func NewECDF(samples []float64) *ECDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Quantile returns the q-th quantile for q in [0, 1].
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(q * float64(len(e.sorted)))
	if i >= len(e.sorted) {
		i = len(e.sorted) - 1
	}
	return e.sorted[i]
}

// Min returns the smallest sample.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[0]
}

// Max returns the largest sample.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[len(e.sorted)-1]
}

// ChiSquareUniform returns the chi-square statistic of counts against the
// uniform distribution over len(counts) categories. Large values indicate
// non-uniformity; the degrees of freedom are len(counts)−1.
//
//lint:allow no-orphan membership's TestSampleUniformity judges partner sampling with it
func ChiSquareUniform(counts []int) float64 {
	k := len(counts)
	if k == 0 {
		return 0
	}
	var n float64
	for _, c := range counts {
		n += float64(c)
	}
	if n == 0 {
		return 0
	}
	expected := n / float64(k)
	var chi float64
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
//
//lint:allow no-orphan Std and Mean are the batch reference TestMomentsMatchesBatch holds Moments to
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
