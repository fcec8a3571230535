package metrics

import (
	"math"
	"runtime"
	"strings"
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
	n1 := c.Node(1)
	if n1.SentMsgs != 2 || n1.SentBytes != uint64(2*serve.WireSize()) {
		t.Fatalf("node 1 counters: %+v", n1)
	}
	n3 := c.Node(3)
	if n3.RecvMsgs != 1 {
		t.Fatalf("node 3 counters: %+v", n3)
	}
	if got := c.Node(99); got != (PerNode{}) {
		t.Fatalf("unknown node counters: %+v", got)
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
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 10000}
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
	c.OnUsefulChunk(4, 20*time.Millisecond, 1316)
	c.OnUsefulChunk(4, 40*time.Millisecond, 1316)
	c.OnDuplicateChunk(4)
	c.OnDuplicateChunk(5)
	if c.UsefulChunks() != 2 || c.DupChunks() != 2 {
		t.Fatalf("chunk totals = %d useful / %d dup", c.UsefulChunks(), c.DupChunks())
	}
	n4 := c.Node(4)
	if n4.UsefulChunks != 2 || n4.DupChunks != 1 {
		t.Fatalf("node 4 chunk counters: %+v", n4)
	}
	if got := c.ServeLatency.Count(); got != 2 {
		t.Fatalf("latency observations = %d, want 2", got)
	}
	if got := c.ServeLatency.SumNanos(); got != int64(60*time.Millisecond) {
		t.Fatalf("latency sum = %d", got)
	}
}

func TestVerificationCounters(t *testing.T) {
	c := NewCollector()
	c.OnBlameIssued("fanout")
	c.OnBlameIssued("fanout")
	c.OnBlameIssued("direct")
	c.OnAuditOutcome(true, true)
	c.OnAuditOutcome(false, false)
	c.OnExpel()

	blames := c.BlamesIssued()
	if blames["fanout"] != 2 || blames["direct"] != 1 {
		t.Fatalf("blame counts: %+v", blames)
	}
	if c.Expulsions() != 1 {
		t.Fatalf("expulsions = %d", c.Expulsions())
	}
	s := c.SnapshotAt(7)
	if s.Period != 7 {
		t.Fatalf("snapshot period = %d", s.Period)
	}
	if s.Audits.Responded != 1 || s.Audits.Unresponsive != 1 ||
		s.Audits.Passed != 1 || s.Audits.Failed != 1 {
		t.Fatalf("audit counts: %+v", s.Audits)
	}
	if len(s.BlamesIssued) != 2 || s.BlamesIssued[0].Reason != "direct" {
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

func TestSparseNodeIDs(t *testing.T) {
	c := NewCollector()
	m := &msg.ScoreReq{Sender: 1, Target: 2}
	// msg.NoNode and friends must not blow up the dense table.
	c.OnDeliver(msg.NoNode, m, m.WireSize())
	c.OnDeliver(maxDense+17, m, m.WireSize())
	if got := c.Node(msg.NoNode); got.RecvMsgs != 1 {
		t.Fatalf("NoNode counters: %+v", got)
	}
	if got := c.Node(maxDense + 17); got.RecvMsgs != 1 {
		t.Fatalf("sparse counters: %+v", got)
	}
	if got := c.Node(maxDense + 18); got != (PerNode{}) {
		t.Fatalf("unseen sparse id: %+v", got)
	}
	tab := *c.nodes.Load()
	if len(tab) >= maxDense {
		t.Fatalf("dense table grew to %d entries", len(tab))
	}
}

func TestConcurrentAccess(t *testing.T) {
	// The live runtime records from many goroutines; readers (a /metrics
	// scrape, a snapshot) run concurrently with writers.
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
				c.OnUsefulChunk(id, time.Millisecond, 1316)
				c.OnDuplicateChunk(id)
				c.OnBlameIssued("fanout")
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg := NewRegistry()
		c.Register(reg)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			reg.WritePrometheus(&sb)
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
	if got := c.BlamesIssued()["fanout"]; got != 8000 {
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

// TestMetricsHotPathAllocs pins the record path at zero allocations once a
// node's counters exist — the property that lets the collector sit inside
// the sharded engine's event loop.
func TestMetricsHotPathAllocs(t *testing.T) {
	c := NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1000}
	size := serve.WireSize()
	c.OnSend(1, serve, size) // install node 1
	c.OnDeliver(2, serve, size)
	allocs := testing.AllocsPerRun(1000, func() {
		c.OnSend(1, serve, size)
		c.OnDeliver(2, serve, size)
		c.OnDrop(serve, size)
		c.OnUsefulChunk(2, 10*time.Millisecond, 1316)
		c.OnDuplicateChunk(2)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates: %v allocs/run", allocs)
	}
}

// Registering N nodes costs O(N) bytes: a first-seen node is installed in
// place and the table is reallocated only when it doubles. (Copying the table
// per node made this quadratic — ≈ 100 MB for the 4096 ids below.)
func TestNodeRegistrationBytesLinear(t *testing.T) {
	const n = 4096
	c := NewCollector()
	m := &msg.ScoreReq{Sender: 1, Target: 2}
	size := m.WireSize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := msg.NodeID(0); id < n; id++ {
		c.OnSend(id, m, size)
	}
	runtime.ReadMemStats(&after)
	// 64 B of counters and, summed over the doublings, 16 B of slots per node.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*256); got > limit {
		t.Fatalf("registering %d nodes allocated %d bytes, want at most %d", n, got, limit)
	}
	for id := msg.NodeID(0); id < n; id++ {
		if got := c.Node(id).SentMsgs; got != 1 {
			t.Fatalf("node %d sent = %d, want 1", id, got)
		}
	}
}

// Goroutines that meet the same unseen ids while the table doubles under them
// must all land on one set of counters per node: a slot is installed once, in
// place, and a reader holding a superseded table finds it through the lock.
func TestConcurrentNodeRegistration(t *testing.T) {
	const n, writers = 2048, 8
	c := NewCollector()
	m := &msg.ScoreReq{Sender: 1, Target: 2}
	size := m.WireSize()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				c.OnSend(msg.NodeID((i*(2*g+1)+g)%n), m, size) // a different walk of 0..n-1 each
			}
		}(g)
	}
	wg.Wait()
	for id := msg.NodeID(0); id < n; id++ {
		if got := c.Node(id).SentMsgs; got != writers {
			t.Fatalf("node %d sent = %d, want %d", id, got, writers)
		}
	}
}
