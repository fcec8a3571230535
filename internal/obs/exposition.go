package obs

import (
	"fmt"
	"io"

	"lifting/internal/metrics"
)

// Gauge is one process gauge rendered after the collector's families.
type Gauge struct {
	Name, Help string
	Value      float64
}

// writeMetrics renders one scrape in Prometheus text exposition format
// (version 0.0.4): a HELP and a TYPE header per family, then its samples.
// Every collector family comes from the one snapshot, so a scrape adds up:
// the per-kind sent bytes sum to the protocol and verification totals, and
// the overhead ratio is their quotient. Label values are kind, reason and
// result names, which need no escaping.
func writeMetrics(w io.Writer, s metrics.Snapshot, gauges []Gauge) {
	family := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	counter := func(name, help string, v uint64) { family(name, help, "counter"); fmt.Fprintf(w, "%s %d\n", name, v) }
	gauge := func(name, help string, v float64) { family(name, help, "gauge"); fmt.Fprintf(w, "%s %g\n", name, v) }
	// A kind missing from s.Kinds has no traffic: every sample of it is a
	// zero, and zeros are skipped.
	perKind := func(name, help string, pick func(metrics.KindCount) uint64) {
		family(name, help, "counter")
		for _, k := range s.Kinds {
			if v := pick(k); v > 0 {
				fmt.Fprintf(w, "%s{kind=%q} %d\n", name, k.Kind, v)
			}
		}
	}

	perKind("lifting_sent_messages_total", "Messages sent, by wire kind.", func(k metrics.KindCount) uint64 { return k.SentMsgs })
	perKind("lifting_sent_bytes_total", "Bytes sent on the wire, by kind.", func(k metrics.KindCount) uint64 { return k.SentBytes })
	perKind("lifting_recv_messages_total", "Messages delivered, by wire kind.", func(k metrics.KindCount) uint64 { return k.RecvMsgs })
	perKind("lifting_recv_bytes_total", "Bytes delivered, by kind.", func(k metrics.KindCount) uint64 { return k.RecvBytes })
	perKind("lifting_dropped_messages_total", "Messages lost in transit, by kind.", func(k metrics.KindCount) uint64 { return k.DropMsgs })
	perKind("lifting_dropped_bytes_total", "Bytes lost in transit, by kind.", func(k metrics.KindCount) uint64 { return k.DropBytes })
	counter("lifting_protocol_bytes_total", "Bytes sent by the dissemination protocol (propose/request/serve).", s.ProtocolBytes)
	counter("lifting_verification_bytes_total", "Bytes sent by LiFTinG verifications.", s.VerificationBytes)
	var overhead float64
	if s.ProtocolBytes > 0 {
		overhead = float64(s.VerificationBytes) / float64(s.ProtocolBytes)
	}
	gauge("lifting_verification_overhead_ratio", "Verification bytes divided by dissemination bytes (Table 5; paper claims <8%).", overhead)
	counter("lifting_duplicate_chunks_total", "Serves received for chunks the node already held.", s.DupChunks)
	counter("lifting_useful_chunks_total", "Serves that delivered a new chunk.", s.UsefulChunks)
	counter("lifting_goodput_bytes_total", "Payload bytes delivered as first copies (QoE goodput).", s.GoodputBytes)
	counter("lifting_invalid_serves_total", "Serves rejected by content hash verification.", s.InvalidServes)
	gauge("lifting_stream_lag_seconds", "Mean stream lag: chunk arrival minus source generation time.", float64(s.StreamLagMeanNs)/1e9)
	gauge("lifting_stream_jitter_seconds", "Mean inter-arrival jitter against the nominal chunk interval.", float64(s.StreamJitterMeanNs)/1e9)
	family("lifting_blames_issued_total", "Blames issued locally, by reason.", "counter")
	for _, rc := range s.BlamesIssued {
		fmt.Fprintf(w, "lifting_blames_issued_total{reason=%q} %d\n", rc.Reason, rc.Count)
	}
	counter("lifting_blames_received_total", "Blame messages delivered to this collector's nodes.", s.BlamesReceived)
	family("lifting_audit_outcomes_total", "Completed audits, by response and verdict.", "counter")
	a := s.Audits
	for _, r := range [...]struct {
		result string
		n      uint64
	}{{"failed", a.Failed}, {"passed", a.Passed}, {"responded", a.Responded}, {"unresponsive", a.Unresponsive}} {
		fmt.Fprintf(w, "lifting_audit_outcomes_total{result=%q} %d\n", r.result, r.n)
	}
	counter("lifting_expulsions_total", "Expulsion decisions recorded.", s.Expulsions)
	h := s.ServeLatency
	family("lifting_serve_latency_seconds", "Propose-to-serve latency: request sent to chunk delivered.", "histogram")
	for i, ms := range h.BoundsMs {
		fmt.Fprintf(w, "lifting_serve_latency_seconds_bucket{le=\"%g\"} %d\n", float64(ms)/1e3, h.Counts[i])
	}
	fmt.Fprintf(w, "lifting_serve_latency_seconds_bucket{le=\"+Inf\"} %d\n", h.Counts[len(h.BoundsMs)])
	fmt.Fprintf(w, "lifting_serve_latency_seconds_sum %g\nlifting_serve_latency_seconds_count %d\n", float64(h.SumNs)/1e9, h.Count)
	for _, g := range gauges {
		gauge(g.Name, g.Help, g.Value)
	}
}
