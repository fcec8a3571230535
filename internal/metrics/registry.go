package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a minimal Prometheus-style metric registry. It is purely a
// presentation layer: primitives registered here are rendered on demand by
// WritePrometheus, and recording values never goes through the registry, so
// scraping cost is paid only by the scraper. Registration order is preserved
// in the exposition output.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
}

// entry is one metric family: a TYPE/HELP header plus a render function that
// emits the family's sample lines at scrape time.
type entry struct {
	name   string
	help   string
	typ    string
	render func(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

func (r *Registry) add(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.add(&entry{name: name, help: help, typ: "gauge", render: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	}})
}

// NewCounterFunc registers a counter whose value is read at scrape time —
// used to expose counters whose hot path lives elsewhere (the Collector's
// striped atomics) without routing records through the registry.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	r.add(&entry{name: name, help: help, typ: "counter", render: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	}})
}

// LabeledValue is one sample of a labeled family, produced at scrape time.
type LabeledValue struct {
	Labels [][2]string // label name/value pairs, in output order
	Value  uint64
}

// NewLabeledCounterFunc registers a counter family whose samples (label sets
// and values) are produced at scrape time.
func (r *Registry) NewLabeledCounterFunc(name, help string, fn func() []LabeledValue) {
	r.add(&entry{name: name, help: help, typ: "counter", render: func(w io.Writer, n string) {
		for _, lv := range fn() {
			fmt.Fprintf(w, "%s%s %d\n", n, renderLabels(lv.Labels), lv.Value)
		}
	}})
}

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

// NewHistogramMetric registers an existing histogram under name, rendering
// Prometheus _bucket/_sum/_count lines with le labels in seconds.
func (r *Registry) NewHistogramMetric(name, help string, h *Histogram) {
	r.add(&entry{name: name, help: help, typ: "histogram", render: func(w io.Writer, n string) {
		var cum uint64
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b.Seconds()), cum)
		}
		cum += h.inf.Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "%s_sum %s\n", n, formatFloat(float64(h.sumNs.Load())/1e9))
		fmt.Fprintf(w, "%s_count %d\n", n, h.count.Load())
	}})
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): HELP and TYPE headers followed by the
// family's samples, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", e.name, escapeHelp(e.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.typ)
		e.render(w, e.name)
	}
}

func renderLabels(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, kv := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[0])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(kv[1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients expect: %g is the
// shortest representation without trailing zeros.
func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
