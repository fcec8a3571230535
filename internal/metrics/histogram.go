package metrics

import (
	"sync/atomic"
	"time"
)

// HistogramBuckets is the default propose→serve latency bucket layout: upper
// bounds chosen to resolve both simulated latencies (milliseconds) and real
// WAN deployments (seconds).
var HistogramBuckets = []time.Duration{
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2 * time.Second,
	5 * time.Second,
}

// Histogram is a fixed-bucket duration histogram. Observe is lock-free. The
// running sum is kept in integer nanoseconds, not floating point: float
// addition is order-dependent, and the sum must come out byte-identical no
// matter which shard goroutine observed which sample first.
type Histogram struct {
	bounds  []time.Duration
	buckets []atomic.Uint64 // non-cumulative; bucket i counts obs <= bounds[i]
	inf     atomic.Uint64   // observations above the last bound
	count   atomic.Uint64
	sumNs   atomic.Int64
}

// NewHistogram returns a histogram with the given ascending upper bounds.
func NewHistogram(bounds []time.Duration) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds))}
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	for i, b := range h.bounds {
		if d <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.inf.Add(1)
}

// SumNanos returns the integer-nanosecond sum of all observations.
func (h *Histogram) SumNanos() int64 { return h.sumNs.Load() }

// HistogramSnapshot is a deterministic dump of a histogram: cumulative
// bucket counts keyed by upper bound in milliseconds, plus count and the
// integer nanosecond sum. No floats — safe for byte-identical JSON.
type HistogramSnapshot struct {
	BoundsMs []int64  `json:"bounds_ms"`
	Counts   []uint64 `json:"counts"` // cumulative, one per bound, then +Inf last
	Count    uint64   `json:"count"`
	SumNs    int64    `json:"sum_ns"`
}

// Snapshot returns a deterministic copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		BoundsMs: make([]int64, len(h.bounds)),
		Counts:   make([]uint64, len(h.bounds)+1),
		Count:    h.count.Load(),
		SumNs:    h.sumNs.Load(),
	}
	var cum uint64
	for i := range h.bounds {
		s.BoundsMs[i] = h.bounds[i].Milliseconds()
		cum += h.buckets[i].Load()
		s.Counts[i] = cum
	}
	s.Counts[len(h.bounds)] = cum + h.inf.Load()
	return s
}
