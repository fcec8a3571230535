package metrics

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lifting/internal/msg"
)

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounterFunc("test_ops_total", "Operations.", func() uint64 { return 3 })
	reg.NewGaugeFunc("test_level", "Level.", func() float64 { return 0.5 })
	reg.NewGaugeFunc("test_live", "Live value.", func() float64 { return 2 })
	h := NewHistogram([]time.Duration{10 * time.Millisecond, 100 * time.Millisecond})
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(2 * time.Second)
	reg.NewHistogramMetric("test_latency_seconds", "Latency.", h)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# HELP test_ops_total Operations.\n",
		"# TYPE test_ops_total counter\n",
		"test_ops_total 3\n",
		"# TYPE test_level gauge\n",
		"test_level 0.5\n",
		"test_live 2\n",
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{le="0.01"} 1` + "\n",
		`test_latency_seconds_bucket{le="0.1"} 2` + "\n",
		`test_latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"test_latency_seconds_sum 2.055\n",
		"test_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionWellFormed runs a loose validator over a full collector
// exposition: every non-comment line must be `name[{labels}] value`, every
// family must carry a TYPE header first.
func TestExpositionWellFormed(t *testing.T) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1000}
	blame := &msg.Blame{Sender: 2, Target: 3, Value: 1}
	c.OnSend(1, serve, serve.WireSize())
	c.OnDeliver(2, serve, serve.WireSize())
	c.OnSend(2, blame, blame.WireSize())
	c.OnDrop(serve, serve.WireSize())
	c.OnUsefulChunk(2, 30*time.Millisecond, 1316)
	c.OnDuplicateChunk(2)
	c.OnBlameIssued(`weird "reason"` + "\nwith newline")
	c.OnAuditOutcome(true, false)
	c.OnExpel()

	reg := NewRegistry()
	c.Register(reg)
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()

	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "\\n") {
			// escaped newline inside a label value — fine
		} else if strings.Count(line, " ") < 1 {
			t.Fatalf("sample line without value: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no TYPE header:\n%s", name, out)
		}
	}
	for _, want := range []string{
		"lifting_verification_overhead_ratio ",
		`lifting_sent_messages_total{kind="serve"} 1`,
		"lifting_duplicate_chunks_total 1",
		"lifting_useful_chunks_total 1",
		`lifting_dropped_bytes_total{kind="serve"}`,
		"lifting_expulsions_total 1",
		`lifting_audit_outcomes_total{result="failed"} 1`,
		"lifting_serve_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `reason="weird \"reason\"\nwith newline"`) {
		t.Fatalf("label escaping broken:\n%s", out)
	}
}

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
	c.OnSend(1, serve, size)
	c.OnDeliver(2, serve, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnSend(1, serve, size)
		c.OnDeliver(2, serve, size)
		c.OnUsefulChunk(2, 10*time.Millisecond, 1316)
	}
}

// BenchmarkMetricsHotPathParallel exercises the striped counters from
// concurrent goroutines, the live/udp contention shape.
func BenchmarkMetricsHotPathParallel(b *testing.B) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1000}
	size := serve.WireSize()
	for id := msg.NodeID(0); id < 16; id++ {
		c.OnSend(id, serve, size)
	}
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
