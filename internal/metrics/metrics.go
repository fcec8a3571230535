// Package metrics collects message and byte counters for the dissemination
// protocol and LiFTinG's verifications. It feeds the overhead accounting of
// Table 3 (message counts) and Table 5 (bandwidth overhead) of the paper.
// It holds data only: the Collector, its Snapshot and the Histogram. A
// Snapshot is the one record every reader takes — the deterministic metrics
// snapshots embedded in the lifting.experiments/v2 JSON document, and each
// scrape of lifting-node's /metrics, which internal/obs renders from one.
package metrics

import (
	"sort"
	"sync/atomic"
	"time"

	"lifting/internal/msg"
)

// kindSlots is the size of the per-kind counter arrays: kinds run 1..15
// (KindPropose..KindHandoff), slot 0 absorbs the zero Kind.
const kindSlots = int(msg.KindHandoff) + 1

// numStripes spreads the per-kind counters across sender-id stripes so
// concurrent senders (timer goroutines, UDP readers, engine shards) do not
// all contend on one cache line. Must be a power of two.
const numStripes = 8

// reasonSlots is the size of the per-reason blame counter array: one slot
// per named msg.BlameReason; an out-of-range reason lands in ReasonUnknown's,
// as its String does.
const reasonSlots = int(msg.ReasonInvalidPayload) + 1

// kindStripe holds one stripe of the global per-kind counters, padded to its
// own cache lines.
type kindStripe struct {
	sentMsgs  [kindSlots]atomic.Uint64
	sentBytes [kindSlots]atomic.Uint64
	recvMsgs  [kindSlots]atomic.Uint64
	recvBytes [kindSlots]atomic.Uint64
	dropMsgs  [kindSlots]atomic.Uint64
	dropBytes [kindSlots]atomic.Uint64
	_         [64]byte
}

// Collector accumulates global traffic statistics: totals per message kind
// and per blame reason, the accounting of the paper's Tables 3 and 5. The
// record path (OnSend/OnDeliver/OnDrop/OnDuplicateChunk/OnUsefulChunk) is
// allocation-free and lock-free: per-kind counters are striped atomics
// indexed by sender, everything else is one atomic each. It keeps nothing
// per node id, so no id — msg.NoNode included — makes it grow. Atomic adds
// commute, so cumulative counts read at a sharded-engine barrier are
// byte-identical regardless of shard or worker count.
//
// The zero value is not usable; create one with NewCollector.
type Collector struct {
	stripes [numStripes]kindStripe

	// Redundancy accounting (gossip plane).
	dupChunks    atomic.Uint64
	usefulChunks atomic.Uint64

	// Content-plane QoE accounting: payload bytes of useful chunks
	// (goodput), hash-verification rejections, and stream lag / inter-arrival
	// jitter as integer-nanosecond totals plus sample counts, so means come
	// from exact integer division instead of float accumulation.
	goodputBytes  atomic.Uint64
	invalidServes atomic.Uint64
	lagTotalNs    atomic.Uint64
	lagSamples    atomic.Uint64
	jitterTotalNs atomic.Uint64
	jitterSamples atomic.Uint64

	// ServeLatency observes propose→serve latency: the time from a node
	// requesting a chunk to the serve arriving.
	ServeLatency *Histogram

	// Verification-plane instrumentation.
	blamesIssued [reasonSlots]atomic.Uint64

	auditsResponded    atomic.Uint64
	auditsUnresponsive atomic.Uint64
	auditsPassed       atomic.Uint64
	auditsFailed       atomic.Uint64
	expulsions         atomic.Uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{ServeLatency: NewHistogram(HistogramBuckets)}
}

func kindIndex(k msg.Kind) int {
	i := int(k)
	if i >= kindSlots {
		return 0
	}
	return i
}

func (c *Collector) stripe(id msg.NodeID) *kindStripe {
	return &c.stripes[uint32(id)&(numStripes-1)]
}

// OnSend records that from sent m (size bytes on the wire).
func (c *Collector) OnSend(from msg.NodeID, m msg.Message, size int) {
	s := c.stripe(from)
	i := kindIndex(m.Kind())
	s.sentMsgs[i].Add(1)
	s.sentBytes[i].Add(uint64(size))
}

// OnDeliver records that to received m (size bytes on the wire).
func (c *Collector) OnDeliver(to msg.NodeID, m msg.Message, size int) {
	s := c.stripe(to)
	i := kindIndex(m.Kind())
	s.recvMsgs[i].Add(1)
	s.recvBytes[i].Add(uint64(size))
}

// OnDrop records that a message of the given kind (size bytes on the wire)
// was lost in transit.
func (c *Collector) OnDrop(m msg.Message, size int) {
	s := c.stripe(m.From())
	i := kindIndex(m.Kind())
	s.dropMsgs[i].Add(1)
	s.dropBytes[i].Add(uint64(size))
}

// OnDuplicateChunk records that a node received a serve for a chunk it
// already held — pure redundancy on the wire.
func (c *Collector) OnDuplicateChunk() { c.dupChunks.Add(1) }

// OnUsefulChunk records that a node received a new chunk of payloadBytes
// payload, latency after requesting it (propose→serve latency). The payload
// bytes accumulate into goodput — the QoE numerator.
func (c *Collector) OnUsefulChunk(latency time.Duration, payloadBytes int) {
	c.usefulChunks.Add(1)
	c.goodputBytes.Add(uint64(payloadBytes))
	c.ServeLatency.Observe(latency)
}

// OnInvalidServe records that a node rejected a serve whose payload was
// missing or failed hash verification.
func (c *Collector) OnInvalidServe() { c.invalidServes.Add(1) }

// OnStreamLag records one chunk's stream lag: arrival time minus the source's
// generation time. Negative lags (a chunk outracing its nominal schedule)
// clamp to zero.
func (c *Collector) OnStreamLag(lag time.Duration) {
	if lag < 0 {
		lag = 0
	}
	c.lagTotalNs.Add(uint64(lag))
	c.lagSamples.Add(1)
}

// OnJitter records one inter-arrival jitter sample: the absolute deviation of
// the gap between consecutive chunk arrivals from the nominal chunk interval.
func (c *Collector) OnJitter(dev time.Duration) {
	if dev < 0 {
		dev = -dev
	}
	c.jitterTotalNs.Add(uint64(dev))
	c.jitterSamples.Add(1)
}

// OnBlameIssued records a blame emitted locally, by reason.
func (c *Collector) OnBlameIssued(reason msg.BlameReason) {
	i := int(reason)
	if i >= reasonSlots {
		i = int(msg.ReasonUnknown)
	}
	c.blamesIssued[i].Add(1)
}

// OnAuditOutcome records one completed audit: whether the target responded
// and whether its history passed (no expulsion recommended).
func (c *Collector) OnAuditOutcome(responded, passed bool) {
	if responded {
		c.auditsResponded.Add(1)
	} else {
		c.auditsUnresponsive.Add(1)
	}
	if passed {
		c.auditsPassed.Add(1)
	} else {
		c.auditsFailed.Add(1)
	}
}

// OnExpel records one expulsion decision.
func (c *Collector) OnExpel() { c.expulsions.Add(1) }

// sum folds one counter class over every stripe.
func (c *Collector) sum(pick func(*kindStripe) *[kindSlots]atomic.Uint64, k msg.Kind) uint64 {
	i := kindIndex(k)
	var total uint64
	for s := range c.stripes {
		total += pick(&c.stripes[s])[i].Load()
	}
	return total
}

// SentMsgs returns the number of messages of the given kind sent.
func (c *Collector) SentMsgs(k msg.Kind) uint64 {
	return c.sum(func(s *kindStripe) *[kindSlots]atomic.Uint64 { return &s.sentMsgs }, k)
}

// SentBytes returns the number of bytes of the given kind sent.
func (c *Collector) SentBytes(k msg.Kind) uint64 {
	return c.sum(func(s *kindStripe) *[kindSlots]atomic.Uint64 { return &s.sentBytes }, k)
}

// RecvMsgs returns the number of messages of the given kind delivered.
func (c *Collector) RecvMsgs(k msg.Kind) uint64 {
	return c.sum(func(s *kindStripe) *[kindSlots]atomic.Uint64 { return &s.recvMsgs }, k)
}

// RecvBytes returns the number of bytes of the given kind delivered.
func (c *Collector) RecvBytes(k msg.Kind) uint64 {
	return c.sum(func(s *kindStripe) *[kindSlots]atomic.Uint64 { return &s.recvBytes }, k)
}

// Dropped returns the number of messages of the given kind lost in transit.
func (c *Collector) Dropped(k msg.Kind) uint64 {
	return c.sum(func(s *kindStripe) *[kindSlots]atomic.Uint64 { return &s.dropMsgs }, k)
}

// DroppedBytes returns the number of bytes of the given kind lost in
// transit.
func (c *Collector) DroppedBytes(k msg.Kind) uint64 {
	return c.sum(func(s *kindStripe) *[kindSlots]atomic.Uint64 { return &s.dropBytes }, k)
}

// DupChunks returns the total number of duplicate chunks received.
func (c *Collector) DupChunks() uint64 { return c.dupChunks.Load() }

// UsefulChunks returns the total number of useful (first-copy) chunks
// received.
func (c *Collector) UsefulChunks() uint64 { return c.usefulChunks.Load() }

// GoodputBytes returns the total payload bytes of useful chunks delivered.
func (c *Collector) GoodputBytes() uint64 { return c.goodputBytes.Load() }

// InvalidServes returns the number of serves rejected by hash verification.
func (c *Collector) InvalidServes() uint64 { return c.invalidServes.Load() }

// StreamLagMeanNs returns the mean stream lag in nanoseconds (0 without
// samples). Integer division keeps it deterministic.
func (c *Collector) StreamLagMeanNs() uint64 {
	if n := c.lagSamples.Load(); n > 0 {
		return c.lagTotalNs.Load() / n
	}
	return 0
}

// StreamJitterMeanNs returns the mean inter-arrival jitter in nanoseconds (0
// without samples).
func (c *Collector) StreamJitterMeanNs() uint64 {
	if n := c.jitterSamples.Load(); n > 0 {
		return c.jitterTotalNs.Load() / n
	}
	return 0
}

// BlamesIssued returns the locally issued blame counts keyed by reason name,
// zeros omitted.
func (c *Collector) BlamesIssued() map[string]uint64 {
	out := make(map[string]uint64)
	for _, rc := range c.blameCounts() {
		out[rc.Reason] = rc.Count
	}
	return out
}

// blameCounts returns the non-zero blame counts sorted by reason name.
func (c *Collector) blameCounts() []ReasonCount {
	var out []ReasonCount
	for r := range c.blamesIssued {
		if v := c.blamesIssued[r].Load(); v > 0 {
			out = append(out, ReasonCount{Reason: msg.BlameReason(r).String(), Count: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Reason < out[j].Reason })
	return out
}

// Totals sums sent counters over every kind for which include returns true
// and reports (messages, bytes).
func (c *Collector) Totals(include func(msg.Kind) bool) (msgs, bytes uint64) {
	for k := msg.Kind(1); int(k) < kindSlots; k++ {
		if include(k) {
			msgs += c.SentMsgs(k)
			bytes += c.SentBytes(k)
		}
	}
	return msgs, bytes
}

// VerificationTotals reports messages and bytes sent by LiFTinG
// verifications (everything except propose/request/serve).
func (c *Collector) VerificationTotals() (msgs, bytes uint64) {
	return c.Totals(func(k msg.Kind) bool { return k.IsVerification() })
}

// ProtocolTotals reports messages and bytes sent by the dissemination
// protocol itself (propose/request/serve).
func (c *Collector) ProtocolTotals() (msgs, bytes uint64) {
	return c.Totals(func(k msg.Kind) bool { return !k.IsVerification() })
}

// Overhead returns LiFTinG's relative bandwidth overhead: verification bytes
// divided by dissemination bytes (Table 5's metric). It returns 0 when no
// dissemination traffic was recorded.
func (c *Collector) Overhead() float64 {
	_, vb := c.VerificationTotals()
	_, pb := c.ProtocolTotals()
	if pb == 0 {
		return 0
	}
	return float64(vb) / float64(pb)
}

// KindCount is one message kind's traffic totals inside a Snapshot.
type KindCount struct {
	Kind      string `json:"kind"`
	SentMsgs  uint64 `json:"sent_msgs"`
	SentBytes uint64 `json:"sent_bytes"`
	RecvMsgs  uint64 `json:"recv_msgs"`
	RecvBytes uint64 `json:"recv_bytes"`
	DropMsgs  uint64 `json:"dropped_msgs,omitempty"`
	DropBytes uint64 `json:"dropped_bytes,omitempty"`
}

// ReasonCount is one blame reason's count inside a Snapshot.
type ReasonCount struct {
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

// AuditCounts summarizes audit outcomes inside a Snapshot.
type AuditCounts struct {
	Responded    uint64 `json:"responded"`
	Unresponsive uint64 `json:"unresponsive"`
	Passed       uint64 `json:"passed"`
	Failed       uint64 `json:"failed"`
}

// Snapshot is a deterministic dump of the collector's cumulative state:
// integer counts and one derived ratio, no wall-clock anywhere. Taken at a
// sim-time period boundary (all engine shards parked at the barrier) it is
// byte-identical across shard and worker counts, because every field is a
// sum of commuting atomic adds over a shard-independent event set.
type Snapshot struct {
	Period            uint64      `json:"period"`
	Kinds             []KindCount `json:"kinds"`
	ProtocolBytes     uint64      `json:"protocol_bytes"`
	VerificationBytes uint64      `json:"verification_bytes"`
	OverheadPpm       uint64      `json:"overhead_ppm"`
	DupChunks         uint64      `json:"dup_chunks"`
	UsefulChunks      uint64      `json:"useful_chunks"`
	// Content-plane QoE: payload bytes delivered as first copies, serves
	// rejected by hash verification, and integer-nanosecond means of stream
	// lag and inter-arrival jitter.
	GoodputBytes       uint64            `json:"goodput_bytes"`
	InvalidServes      uint64            `json:"invalid_serves"`
	StreamLagMeanNs    uint64            `json:"stream_lag_mean_ns"`
	StreamJitterMeanNs uint64            `json:"stream_jitter_mean_ns"`
	BlamesIssued       []ReasonCount     `json:"blames_issued,omitempty"`
	BlamesReceived     uint64            `json:"blames_received"`
	Audits             AuditCounts       `json:"audits"`
	Expulsions         uint64            `json:"expulsions"`
	ServeLatency       HistogramSnapshot `json:"serve_latency"`
}

// SnapshotAt captures the collector's cumulative state, stamped with the
// given period number. Kinds with no traffic at all are omitted; the rest
// appear in wire-kind order.
func (c *Collector) SnapshotAt(period uint64) Snapshot {
	s := Snapshot{
		Period:             period,
		DupChunks:          c.dupChunks.Load(),
		UsefulChunks:       c.usefulChunks.Load(),
		GoodputBytes:       c.goodputBytes.Load(),
		InvalidServes:      c.invalidServes.Load(),
		StreamLagMeanNs:    c.StreamLagMeanNs(),
		StreamJitterMeanNs: c.StreamJitterMeanNs(),
		Expulsions:         c.expulsions.Load(),
		Audits: AuditCounts{
			Responded:    c.auditsResponded.Load(),
			Unresponsive: c.auditsUnresponsive.Load(),
			Passed:       c.auditsPassed.Load(),
			Failed:       c.auditsFailed.Load(),
		},
		ServeLatency:   c.ServeLatency.Snapshot(),
		BlamesIssued:   c.blameCounts(),
		BlamesReceived: c.RecvMsgs(msg.KindBlame),
	}
	for k := msg.Kind(1); int(k) < kindSlots; k++ {
		kc := KindCount{
			Kind:      k.String(),
			SentMsgs:  c.SentMsgs(k),
			SentBytes: c.SentBytes(k),
			RecvMsgs:  c.RecvMsgs(k),
			RecvBytes: c.RecvBytes(k),
			DropMsgs:  c.Dropped(k),
			DropBytes: c.DroppedBytes(k),
		}
		if kc.SentMsgs == 0 && kc.RecvMsgs == 0 && kc.DropMsgs == 0 {
			continue
		}
		if k.IsVerification() {
			s.VerificationBytes += kc.SentBytes
		} else {
			s.ProtocolBytes += kc.SentBytes
		}
		s.Kinds = append(s.Kinds, kc)
	}
	if s.ProtocolBytes > 0 {
		// Parts-per-million keeps the ratio integral: integer division is
		// exact and deterministic where float formatting invites drift.
		s.OverheadPpm = s.VerificationBytes * 1_000_000 / s.ProtocolBytes
	}
	return s
}
