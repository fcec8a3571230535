// Package rng provides deterministic, splittable randomness for simulations.
//
// All randomness in the repository flows from a single root seed through
// named sub-streams, which makes every experiment bit-reproducible: the same
// seed always yields the same partner selections, message losses and
// latencies, regardless of scheduling.
//
// Streams are split with Derive (by name) or ForNode (by node id); splitting
// hashes the parent seed together with the label so sibling streams are
// statistically independent.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"
)

// Stream is a deterministic pseudo-random stream. It wraps a PCG generator
// seeded from a root seed and a derivation path.
//
// A Stream is not safe for concurrent use; derive one stream per goroutine
// or per simulated node instead of sharing.
type Stream struct {
	seed uint64
	r    *rand.Rand
}

// New returns a root stream for the given seed.
func New(seed uint64) *Stream {
	return &Stream{
		seed: seed,
		r:    rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Derive returns a new independent stream identified by name. Deriving the
// same name from the same parent always yields the same stream.
func (s *Stream) Derive(name string) *Stream {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], s.seed)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(name))
	return New(h.Sum64())
}

// ForNode returns a per-node sub-stream. Equivalent to Derive("node/<id>").
func (s *Stream) ForNode(id uint32) *Stream {
	return s.Derive("node/" + strconv.FormatUint(uint64(id), 10))
}

// Seed reports the seed this stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.r.Uint64() }

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// SampleK returns a uniform random k-subset of [0, n) using Floyd's
// algorithm. The result is in random order. It panics if k > n or k < 0.
func (s *Stream) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK: k out of range")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.r.IntN(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	s.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. It panics if the total weight is not positive.
//
//lint:allow no-orphan TestQueueMatchesSortedReference draws each schedule's operation mix with it
func (s *Stream) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: WeightedChoice: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: WeightedChoice: total weight must be positive")
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Poisson returns a sample from Poisson(lambda) using Knuth's method for
// small rates and a normal approximation beyond lambda = 64.
func (s *Stream) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		k := int(lambda + s.r.NormFloat64()*math.Sqrt(lambda) + 0.5)
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}
