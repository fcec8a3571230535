package metrics

import (
	"math"
	"sync"
	"testing"
	"time"

	"lifting/internal/msg"
)

func TestCounters(t *testing.T) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1000}
	ack := &msg.Ack{Sender: 2, Chunks: []msg.ChunkID{1}}
	c.OnSend(1, serve, serve.WireSize())
	c.OnSend(1, serve, serve.WireSize())
	c.OnSend(2, ack, ack.WireSize())
	c.OnDeliver(3, serve, serve.WireSize())
	c.OnDrop(serve, serve.WireSize())

	if got := c.SentMsgs(msg.KindServe); got != 2 {
		t.Fatalf("SentMsgs(serve) = %d, want 2", got)
	}
	if got := c.SentBytes(msg.KindServe); got != uint64(2*serve.WireSize()) {
		t.Fatalf("SentBytes(serve) = %d", got)
	}
	if got := c.RecvMsgs(msg.KindServe); got != 1 {
		t.Fatalf("RecvMsgs(serve) = %d, want 1", got)
	}
	if got := c.RecvBytes(msg.KindServe); got != uint64(serve.WireSize()) {
		t.Fatalf("RecvBytes(serve) = %d", got)
	}
	if got := c.Dropped(msg.KindServe); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	if got := c.DroppedBytes(msg.KindServe); got != uint64(serve.WireSize()) {
		t.Fatalf("DroppedBytes = %d", got)
	}
}

// TestSendRecvDropSymmetry pins the accounting identity the transports
// maintain: every sent message is either delivered or dropped, in both
// message and byte units.
func TestSendRecvDropSymmetry(t *testing.T) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 500}
	for i := 0; i < 10; i++ {
		c.OnSend(1, serve, serve.WireSize())
		if i%3 == 0 {
			c.OnDrop(serve, serve.WireSize())
		} else {
			c.OnDeliver(2, serve, serve.WireSize())
		}
	}
	k := msg.KindServe
	if c.SentMsgs(k) != c.RecvMsgs(k)+c.Dropped(k) {
		t.Fatalf("msgs: sent %d != recv %d + dropped %d",
			c.SentMsgs(k), c.RecvMsgs(k), c.Dropped(k))
	}
	if c.SentBytes(k) != c.RecvBytes(k)+c.DroppedBytes(k) {
		t.Fatalf("bytes: sent %d != recv %d + dropped %d",
			c.SentBytes(k), c.RecvBytes(k), c.DroppedBytes(k))
	}
}

func TestOverheadRatio(t *testing.T) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 10000, Payload: make([]byte, 10000)}
	blame := &msg.Blame{Sender: 2, Target: 3, Value: 1}
	c.OnSend(1, serve, serve.WireSize())
	c.OnSend(2, blame, blame.WireSize())

	vm, vb := c.VerificationTotals()
	pm, pb := c.ProtocolTotals()
	if vm != 1 || pm != 1 {
		t.Fatalf("message totals = %d/%d", vm, pm)
	}
	want := float64(vb) / float64(pb)
	if got := c.Overhead(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Overhead = %v, want %v", got, want)
	}
	if want > 0.02 {
		t.Fatalf("verification bytes should be tiny next to a 10 kB serve: %v", want)
	}
}

func TestOverheadZeroWithoutProtocolTraffic(t *testing.T) {
	c := NewCollector()
	blame := &msg.Blame{Sender: 2, Target: 3, Value: 1}
	c.OnSend(2, blame, blame.WireSize())
	if got := c.Overhead(); got != 0 {
		t.Fatalf("Overhead without protocol bytes = %v, want 0", got)
	}
}

func TestChunkAccounting(t *testing.T) {
	c := NewCollector()
	c.OnUsefulChunk(20*time.Millisecond, 1316)
	c.OnUsefulChunk(40*time.Millisecond, 1316)
	c.OnDuplicateChunk()
	c.OnDuplicateChunk()
	if c.UsefulChunks() != 2 || c.DupChunks() != 2 || c.GoodputBytes() != 2*1316 {
		t.Fatalf("chunk totals = %d useful / %d dup / %d goodput bytes", c.UsefulChunks(), c.DupChunks(), c.GoodputBytes())
	}
	if got := c.ServeLatency.Snapshot().Count; got != 2 {
		t.Fatalf("latency observations = %d, want 2", got)
	}
	if got := c.ServeLatency.SumNanos(); got != int64(60*time.Millisecond) {
		t.Fatalf("latency sum = %d", got)
	}
}

func TestVerificationCounters(t *testing.T) {
	c := NewCollector()
	c.OnBlameIssued(msg.ReasonPartialServe)
	c.OnBlameIssued(msg.ReasonPartialServe)
	c.OnBlameIssued(msg.ReasonFanoutDecrease)
	c.OnAuditOutcome(true, true)
	c.OnAuditOutcome(false, false)
	c.OnExpel()

	blames := c.BlamesIssued()
	if len(blames) != 2 || blames["partial-serve"] != 2 || blames["fanout-decrease"] != 1 {
		t.Fatalf("blame counts: %+v", blames)
	}
	s := c.SnapshotAt(7)
	if s.Expulsions != 1 {
		t.Fatalf("expulsions = %d", s.Expulsions)
	}
	if s.Period != 7 {
		t.Fatalf("snapshot period = %d", s.Period)
	}
	if s.Audits.Responded != 1 || s.Audits.Unresponsive != 1 ||
		s.Audits.Passed != 1 || s.Audits.Failed != 1 {
		t.Fatalf("audit counts: %+v", s.Audits)
	}
	if len(s.BlamesIssued) != 2 || s.BlamesIssued[0].Reason != "fanout-decrease" {
		t.Fatalf("snapshot blames (want sorted by reason): %+v", s.BlamesIssued)
	}
}

func TestSnapshotKindsOrderedAndFiltered(t *testing.T) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 100}
	blame := &msg.Blame{Sender: 2, Target: 3, Value: 1}
	c.OnSend(2, blame, blame.WireSize())
	c.OnSend(1, serve, serve.WireSize())
	c.OnDeliver(3, serve, serve.WireSize())

	s := c.SnapshotAt(1)
	if len(s.Kinds) != 2 {
		t.Fatalf("kinds = %+v, want serve and blame only", s.Kinds)
	}
	if s.Kinds[0].Kind != "serve" || s.Kinds[1].Kind != "blame" {
		t.Fatalf("kind order: %+v", s.Kinds)
	}
	if s.ProtocolBytes != uint64(serve.WireSize()) ||
		s.VerificationBytes != uint64(blame.WireSize()) {
		t.Fatalf("byte split: %d/%d", s.ProtocolBytes, s.VerificationBytes)
	}
	wantPpm := s.VerificationBytes * 1_000_000 / s.ProtocolBytes
	if s.OverheadPpm != wantPpm {
		t.Fatalf("overhead ppm = %d, want %d", s.OverheadPpm, wantPpm)
	}
	if s.BlamesReceived != 0 {
		t.Fatalf("blames received = %d (blame was sent, not delivered)", s.BlamesReceived)
	}
}

func TestConcurrentAccess(t *testing.T) {
	// The live runtime records from many goroutines; readers (snapshots,
	// one per /metrics scrape) run concurrently with writers.
	c := NewCollector()
	m := &msg.ScoreReq{Sender: 1, Target: 2}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := msg.NodeID(g)
			for i := 0; i < 1000; i++ {
				c.OnSend(id, m, m.WireSize())
				c.OnDeliver(id, m, m.WireSize())
				c.OnDrop(m, m.WireSize())
				c.OnUsefulChunk(time.Millisecond, 1316)
				c.OnDuplicateChunk()
				c.OnBlameIssued(msg.ReasonFanoutDecrease)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			c.SnapshotAt(uint64(i))
		}
	}()
	wg.Wait()
	<-done
	if got := c.SentMsgs(msg.KindScoreReq); got != 8000 {
		t.Fatalf("concurrent sends = %d, want 8000", got)
	}
	if got := c.Dropped(msg.KindScoreReq); got != 8000 {
		t.Fatalf("concurrent drops = %d, want 8000", got)
	}
	if c.UsefulChunks() != 8000 || c.DupChunks() != 8000 {
		t.Fatalf("chunk totals = %d/%d", c.UsefulChunks(), c.DupChunks())
	}
	if got := c.BlamesIssued()["fanout-decrease"]; got != 8000 {
		t.Fatalf("blames = %d", got)
	}
}

func TestTotalsFilter(t *testing.T) {
	c := NewCollector()
	c.OnSend(1, &msg.Propose{Sender: 1}, 100)
	c.OnSend(1, &msg.Request{Sender: 1}, 50)
	c.OnSend(1, &msg.Confirm{Sender: 1}, 40)
	msgs, bytes := c.Totals(func(k msg.Kind) bool { return k == msg.KindPropose })
	if msgs != 1 || bytes != 100 {
		t.Fatalf("filtered totals = %d/%d", msgs, bytes)
	}
}

// TestMetricsHotPathAllocs pins the record path at zero allocations — the
// property that lets the collector sit inside the sharded engine's event
// loop.
func TestMetricsHotPathAllocs(t *testing.T) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1000}
	size := serve.WireSize()
	allocs := testing.AllocsPerRun(1000, func() {
		c.OnSend(1, serve, size)
		c.OnDeliver(2, serve, size)
		c.OnDrop(serve, size)
		c.OnUsefulChunk(10*time.Millisecond, 1316)
		c.OnDuplicateChunk()
		c.OnInvalidServe()
		c.OnBlameIssued(msg.ReasonNoAck)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates: %v allocs/run", allocs)
	}
}

// TestSparseNodeIDs pins that the collector keeps nothing per node id: a
// hostile id such as msg.NoNode, or one far past any real membership, is
// counted like any other and costs no allocation.
func TestSparseNodeIDs(t *testing.T) {
	c := NewCollector()
	m := &msg.ScoreReq{Sender: 1, Target: 2}
	size := m.WireSize()
	allocs := testing.AllocsPerRun(100, func() {
		c.OnSend(msg.NoNode, m, size)
		c.OnDeliver(msg.NoNode, m, size)
		c.OnSend(1<<30+17, m, size)
		c.OnDeliver(1<<30+17, m, size)
	})
	if allocs != 0 {
		t.Fatalf("recording sparse ids allocates: %v allocs/run", allocs)
	}
	// AllocsPerRun makes one warm-up call before its 100 measured ones.
	if got := c.SentMsgs(msg.KindScoreReq); got != 2*101 {
		t.Fatalf("sent score requests = %d, want %d", got, 2*101)
	}
	if got := c.RecvMsgs(msg.KindScoreReq); got != 2*101 {
		t.Fatalf("delivered score requests = %d, want %d", got, 2*101)
	}
}

// TestBlamesIssuedReadersAgree pins the two readers of the per-reason blame
// counters to one answer for every msg.BlameReason, an out-of-range reason
// included: the snapshot's list (which the /metrics exposition renders) and
// BlamesIssued's map — sorted by name, zeros omitted, and an out-of-range
// reason counted as "unknown", as its String names it.
func TestBlamesIssuedReadersAgree(t *testing.T) {
	c := NewCollector()
	for r := msg.ReasonUnknown; r <= msg.ReasonInvalidPayload; r++ {
		if r == msg.ReasonNoAck {
			continue // never issued: omitted everywhere
		}
		for i := 0; i <= int(r); i++ {
			c.OnBlameIssued(r)
		}
	}
	c.OnBlameIssued(msg.ReasonInvalidPayload + 1)

	snap := c.SnapshotAt(1).BlamesIssued
	if len(snap) != int(msg.ReasonInvalidPayload) {
		t.Fatalf("snapshot blames = %+v, want every reason but no-ack", snap)
	}
	byName := c.BlamesIssued()
	if len(byName) != len(snap) {
		t.Fatalf("BlamesIssued() = %v, snapshot = %+v", byName, snap)
	}
	for i, rc := range snap {
		if i > 0 && snap[i-1].Reason >= rc.Reason {
			t.Fatalf("snapshot blames not sorted by name: %+v", snap)
		}
		if byName[rc.Reason] != rc.Count {
			t.Fatalf("BlamesIssued()[%q] = %d, snapshot says %d", rc.Reason, byName[rc.Reason], rc.Count)
		}
	}
	if byName["unknown"] != 2 || byName["invalid-payload"] != uint64(msg.ReasonInvalidPayload)+1 {
		t.Fatalf("unknown = %d (want 2: the zero reason and the out-of-range one), invalid-payload = %d",
			byName["unknown"], byName["invalid-payload"])
	}
}
