package metrics

import (
	"sync/atomic"
	"testing"
	"time"

	"lifting/internal/msg"
)

func TestHistogramSnapshotDeterministic(t *testing.T) {
	h := NewHistogram(HistogramBuckets)
	h.Observe(3 * time.Millisecond)
	h.Observe(700 * time.Millisecond)
	h.Observe(10 * time.Second)
	s := h.Snapshot()
	if s.Count != 3 || s.SumNs != int64(10*time.Second+703*time.Millisecond) {
		t.Fatalf("snapshot: %+v", s)
	}
	if len(s.Counts) != len(HistogramBuckets)+1 {
		t.Fatalf("bucket count: %+v", s)
	}
	if s.Counts[len(s.Counts)-1] != 3 {
		t.Fatalf("+Inf bucket not cumulative: %+v", s)
	}
	// Cumulative counts must be monotone.
	for i := 1; i < len(s.Counts); i++ {
		if s.Counts[i] < s.Counts[i-1] {
			t.Fatalf("non-monotone buckets: %+v", s.Counts)
		}
	}
}

// BenchmarkMetricsHotPath measures the record-side cost of the collector —
// the price every simulated or real message pays. Must stay 0 allocs/op.
func BenchmarkMetricsHotPath(b *testing.B) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1000}
	size := serve.WireSize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.OnSend(1, serve, size)
		c.OnDeliver(2, serve, size)
		c.OnUsefulChunk(10*time.Millisecond, 1316)
	}
}

// BenchmarkMetricsHotPathParallel exercises the striped counters from
// concurrent goroutines, the live/udp contention shape.
func BenchmarkMetricsHotPathParallel(b *testing.B) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1000}
	size := serve.WireSize()
	b.ReportAllocs()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := msg.NodeID(next.Add(1) * 7)
		for pb.Next() {
			c.OnSend(id, serve, size)
			c.OnDeliver(id, serve, size)
		}
	})
}
