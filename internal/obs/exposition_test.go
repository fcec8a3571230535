package obs

import (
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
)

// populated returns a collector with something in every family the
// exposition renders: traffic in several kinds, drops, a duplicate, an
// invalid serve, lag and jitter samples, two blame reasons, audit outcomes,
// an expulsion, and latency samples in a low, a middle and the +Inf bucket.
func populated() *metrics.Collector {
	c := metrics.NewCollector()
	propose := &msg.Propose{Sender: 1, Chunks: []msg.ChunkID{1, 2, 3}}
	request := &msg.Request{Sender: 2, Chunks: []msg.ChunkID{1, 2}}
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1316, Payload: make([]byte, 1316)}
	confirm := &msg.Confirm{Sender: 3, Suspect: 1, Chunks: []msg.ChunkID{1}}
	blame := &msg.Blame{Sender: 2, Target: 3, Value: 1}
	for _, m := range []msg.Message{propose, request, serve, serve, confirm, blame} {
		c.OnSend(m.From(), m, m.WireSize())
		c.OnDeliver(4, m, m.WireSize())
	}
	c.OnDrop(serve, serve.WireSize())
	c.OnDrop(confirm, confirm.WireSize())
	c.OnUsefulChunk(3*time.Millisecond, 1316)
	c.OnUsefulChunk(70*time.Millisecond, 1316)
	c.OnUsefulChunk(7*time.Second, 1316)
	c.OnDuplicateChunk()
	c.OnInvalidServe()
	c.OnStreamLag(850 * time.Millisecond)
	c.OnStreamLag(1250 * time.Millisecond)
	c.OnJitter(-4 * time.Millisecond)
	c.OnJitter(9 * time.Millisecond)
	c.OnBlameIssued(msg.ReasonPartialServe)
	c.OnBlameIssued(msg.ReasonPartialServe)
	c.OnBlameIssued(msg.ReasonFanoutDecrease)
	c.OnAuditOutcome(true, true)
	c.OnAuditOutcome(true, false)
	c.OnAuditOutcome(false, false)
	c.OnExpel()
	return c
}

// daemonGauges are lifting-node's two process gauges, at fixed values.
var daemonGauges = []Gauge{
	{Name: "lifting_process_heap_bytes", Help: "process heap in use (runtime.ReadMemStats HeapAlloc)", Value: 12345678},
	{Name: "lifting_period_drift_periods", Help: "local score-period clock minus wall-clock expectation, in periods", Value: -0.25},
}

// scrape renders one /metrics response through the server's handler.
func scrape(s *Server) string {
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestExpositionGolden pins the exposition byte for byte: testdata's golden
// is what the per-family registry this writer replaced rendered for the
// same collector state and the same two daemon gauges.
func TestExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	snap := populated().SnapshotAt(0)
	got := scrape(New(func() (metrics.Snapshot, []Gauge) { return snap, daemonGauges }, nil))
	if got != string(want) {
		t.Fatalf("exposition differs from testdata/metrics.golden:\n%s", got)
	}
}

// TestExpositionWellFormed runs a loose validator over a full exposition:
// every non-comment line must be `name[{labels}] value`, and every family
// must carry a TYPE header first.
func TestExpositionWellFormed(t *testing.T) {
	var sb strings.Builder
	writeMetrics(&sb, populated().SnapshotAt(0), daemonGauges)
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
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(value, " ") {
			t.Fatalf("sample line is not `series value`: %q", line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("sample %q: value %v", line, err)
		}
		name, _, _ := strings.Cut(series, "{")
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
		`lifting_sent_messages_total{kind="serve"} 2`,
		"lifting_duplicate_chunks_total 1",
		"lifting_useful_chunks_total 3",
		`lifting_dropped_bytes_total{kind="serve"}`,
		"lifting_expulsions_total 1",
		`lifting_blames_issued_total{reason="partial-serve"} 2`,
		`lifting_audit_outcomes_total{result="failed"} 2`,
		"lifting_serve_latency_seconds_count 3",
		"lifting_period_drift_periods -0.25",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestScrapeAddsUp scrapes /metrics while concurrent senders hammer one
// collector with protocol and verification traffic. Each scrape renders one
// snapshot, so within it the per-kind sent bytes sum to the protocol and
// verification totals, and the overhead ratio is their quotient.
func TestScrapeAddsUp(t *testing.T) {
	c := metrics.NewCollector()
	srv := New(func() (metrics.Snapshot, []Gauge) { return c.SnapshotAt(0), nil }, nil)
	traffic := []msg.Message{
		&msg.Propose{Sender: 1, Chunks: []msg.ChunkID{1, 2, 3}},
		&msg.Request{Sender: 2, Chunks: []msg.ChunkID{1}},
		&msg.Serve{Sender: 3, Chunk: 1, PayloadSize: 1316},
		&msg.Confirm{Sender: 4, Suspect: 1, Chunks: []msg.ChunkID{1}},
		&msg.Blame{Sender: 5, Target: 3, Value: 1},
		&msg.Ack{Sender: 6, Chunks: []msg.ChunkID{1}, Partners: []msg.NodeID{1, 2}},
	}

	var stop atomic.Bool
	var senders sync.WaitGroup
	for g := 0; g < 4; g++ {
		senders.Add(1)
		go func(g int) {
			defer senders.Done()
			for i := g; !stop.Load(); i++ {
				m := traffic[i%len(traffic)]
				c.OnSend(msg.NodeID(i), m, m.WireSize())
			}
		}(g)
	}
	defer func() {
		stop.Store(true)
		senders.Wait()
	}()

	const scrapes = 200
	for n := 0; n < scrapes; n++ {
		samples := map[string]string{}
		for _, line := range strings.Split(scrape(srv), "\n") {
			if series, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				samples[series] = value
			}
		}
		num := func(series string) float64 {
			v, ok := samples[series]
			if !ok {
				return 0 // a kind with no traffic yet renders no sample
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("scrape %d: %s = %q: %v", n, series, v, err)
			}
			return f
		}
		var protocol, verification float64
		for _, m := range traffic {
			sent := num(`lifting_sent_bytes_total{kind="` + m.Kind().String() + `"}`)
			if m.Kind().IsVerification() {
				verification += sent
			} else {
				protocol += sent
			}
		}
		if got := num("lifting_protocol_bytes_total"); got != protocol {
			t.Fatalf("scrape %d: lifting_protocol_bytes_total %v, per-kind sent bytes sum to %v", n, got, protocol)
		}
		if got := num("lifting_verification_bytes_total"); got != verification {
			t.Fatalf("scrape %d: lifting_verification_bytes_total %v, per-kind sent bytes sum to %v", n, got, verification)
		}
		var ratio float64
		if protocol > 0 {
			ratio = verification / protocol
		}
		if got := num("lifting_verification_overhead_ratio"); got != ratio {
			t.Fatalf("scrape %d: lifting_verification_overhead_ratio %v, want %v / %v = %v", n, got, verification, protocol, ratio)
		}
	}
}
