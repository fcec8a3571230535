package net

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

type capture struct {
	from []msg.NodeID
	msgs []msg.Message
	at   []time.Duration
	// clock, if set, is the receiving node's context: deliveries are
	// stamped with its event time.
	clock sim.Context
}

func (c *capture) HandleMessage(from msg.NodeID, m msg.Message) {
	c.from = append(c.from, from)
	c.msgs = append(c.msgs, m)
	if c.clock != nil {
		c.at = append(c.at, c.clock.Now())
	}
}

func newNet(t *testing.T, defaults Conditions) (*sim.Engine, *SimNet, *metrics.Collector) {
	t.Helper()
	eng := sim.NewEngine()
	col := metrics.NewCollector()
	n := NewSimNet(eng, rng.New(1), col, defaults)
	n.Attach(1, &capture{}) // every test sends from node 1
	return eng, n, col
}

func TestLosslessDelivery(t *testing.T) {
	eng, n, _ := newNet(t, Uniform(0, 10*time.Millisecond))
	rx := &capture{clock: eng.Domain(2)}
	n.Attach(2, rx)
	n.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 9}, Unreliable)
	eng.RunAll()
	if len(rx.msgs) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(rx.msgs))
	}
	if rx.from[0] != 1 {
		t.Fatalf("from = %d, want 1", rx.from[0])
	}
	if rx.at[0] != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", rx.at[0])
	}
}

func TestLossRate(t *testing.T) {
	eng, n, col := newNet(t, Uniform(0.07, time.Millisecond))
	rx := &capture{}
	n.Attach(2, rx)
	const total = 50000
	for i := 0; i < total; i++ {
		n.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, Unreliable)
	}
	eng.RunAll()
	got := float64(total-len(rx.msgs)) / total
	if math.Abs(got-0.07) > 0.01 {
		t.Fatalf("observed loss %v, want ~0.07", got)
	}
	if col.Dropped(msg.KindScoreReq) != uint64(total-len(rx.msgs)) {
		t.Fatal("drop counter does not match undelivered messages")
	}
}

func TestReliableNeverLoses(t *testing.T) {
	eng, n, _ := newNet(t, Uniform(0.5, time.Millisecond))
	rx := &capture{}
	n.Attach(2, rx)
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send(1, 2, &msg.AuditReq{Sender: 1, Horizon: time.Second}, Reliable)
	}
	eng.RunAll()
	if len(rx.msgs) != total {
		t.Fatalf("reliable mode delivered %d/%d", len(rx.msgs), total)
	}
}

func TestReliableSlowerThanUnreliable(t *testing.T) {
	eng, n, _ := newNet(t, Uniform(0, 10*time.Millisecond))
	rx := &capture{clock: eng.Domain(2)}
	n.Attach(2, rx)
	n.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, Unreliable)
	n.Send(1, 2, &msg.AuditReq{Sender: 1, Horizon: time.Second}, Reliable)
	eng.RunAll()
	if len(rx.at) != 2 {
		t.Fatal("expected two deliveries")
	}
	if rx.at[1] <= rx.at[0] {
		t.Fatalf("reliable delivery (%v) should be slower than unreliable (%v)", rx.at[1], rx.at[0])
	}
}

func TestDownNodeDropsBothDirections(t *testing.T) {
	eng, n, _ := newNet(t, Uniform(0, time.Millisecond))
	rx := &capture{}
	n.Attach(2, rx)
	n.SetDown(1, true)
	n.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, Unreliable)
	n.SetDown(1, false)
	n.SetDown(2, true)
	n.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, Unreliable)
	eng.RunAll()
	if len(rx.msgs) != 0 {
		t.Fatalf("down node received %d messages", len(rx.msgs))
	}
}

func TestDownAtDeliveryTime(t *testing.T) {
	// A node that goes down while a message is in flight must not receive it.
	eng, n, _ := newNet(t, Uniform(0, 10*time.Millisecond))
	rx := &capture{}
	n.Attach(2, rx)
	n.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, Unreliable)
	eng.After(time.Millisecond, func() { n.SetDown(2, true) })
	eng.RunAll()
	if len(rx.msgs) != 0 {
		t.Fatal("message delivered to a node that went down in flight")
	}
}

func TestUnattachedDestinationDrops(t *testing.T) {
	eng, n, col := newNet(t, Uniform(0, time.Millisecond))
	n.Send(1, 99, &msg.ScoreReq{Sender: 1, Target: 2}, Unreliable)
	eng.RunAll()
	if col.Dropped(msg.KindScoreReq) != 1 {
		t.Fatal("message to unattached node was not counted as dropped")
	}
}

func TestUplinkSerialization(t *testing.T) {
	// Two 1000-byte-ish messages over a 10 kB/s uplink must be ~0.1 s apart.
	eng, n, _ := newNet(t, Conditions{UplinkBps: 10000, LatencyBase: 0})
	rx := &capture{clock: eng.Domain(2)}
	n.Attach(2, rx)
	size := 1000 - (&msg.Serve{Sender: 1, Chunk: 1}).WireSize()
	big := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: size, Payload: make([]byte, size)}
	n.Send(1, 2, big, Unreliable)
	n.Send(1, 2, big, Unreliable)
	eng.RunAll()
	if len(rx.at) != 2 {
		t.Fatalf("delivered %d, want 2", len(rx.at))
	}
	gap := rx.at[1] - rx.at[0]
	if math.Abs(gap.Seconds()-0.1) > 0.001 {
		t.Fatalf("uplink gap = %v, want ~100ms", gap)
	}
}

func TestUplinkUnlimitedWhenZero(t *testing.T) {
	eng, n, _ := newNet(t, Conditions{LatencyBase: time.Millisecond})
	rx := &capture{clock: eng.Domain(2)}
	n.Attach(2, rx)
	n.Send(1, 2, &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1 << 20, Payload: make([]byte, 1<<20)}, Unreliable)
	eng.RunAll()
	if rx.at[0] != time.Millisecond {
		t.Fatalf("unlimited uplink delivery at %v, want 1ms", rx.at[0])
	}
}

func TestPerNodeConditionsOverride(t *testing.T) {
	eng, n, _ := newNet(t, Uniform(0, time.Millisecond))
	n.SetConditions(3, Conditions{LossIn: 1})
	rx := &capture{}
	n.Attach(3, rx)
	for i := 0; i < 100; i++ {
		n.Send(1, 3, &msg.ScoreReq{Sender: 1, Target: 3}, Unreliable)
	}
	eng.RunAll()
	if len(rx.msgs) != 0 {
		t.Fatal("LossIn=1 node still received messages")
	}
	if got := n.ConditionsOf(3).LossIn; got != 1 {
		t.Fatalf("ConditionsOf(3).LossIn = %v, want 1", got)
	}
}

func TestLatencyJitterRange(t *testing.T) {
	eng, n, _ := newNet(t, Conditions{LatencyBase: 10 * time.Millisecond, LatencyJitter: 10 * time.Millisecond})
	rx := &capture{clock: eng.Domain(2)}
	n.Attach(2, rx)
	for i := 0; i < 500; i++ {
		n.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, Unreliable)
	}
	eng.RunAll()
	var minAt, maxAt = rx.at[0], rx.at[0]
	for _, a := range rx.at {
		if a < minAt {
			minAt = a
		}
		if a > maxAt {
			maxAt = a
		}
	}
	if minAt < 10*time.Millisecond {
		t.Fatalf("delivery before base latency: %v", minAt)
	}
	if maxAt >= 20*time.Millisecond {
		t.Fatalf("delivery beyond base+jitter: %v", maxAt)
	}
	if maxAt-minAt < time.Millisecond {
		t.Fatal("jitter appears inactive")
	}
}

func TestMetricsAccounting(t *testing.T) {
	eng, n, col := newNet(t, Uniform(0, time.Millisecond))
	rx := &capture{}
	n.Attach(2, rx)
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1000}
	blame := &msg.Blame{Sender: 1, Target: 5, Value: 2}
	n.Send(1, 2, serve, Unreliable)
	n.Send(1, 2, blame, Unreliable)
	eng.RunAll()
	if col.SentMsgs(msg.KindServe) != 1 || col.SentMsgs(msg.KindBlame) != 1 {
		t.Fatal("sent counters wrong")
	}
	_, vb := col.VerificationTotals()
	_, pb := col.ProtocolTotals()
	if vb != uint64(blame.WireSize()) {
		t.Fatalf("verification bytes = %d, want %d", vb, blame.WireSize())
	}
	if pb != uint64(serve.WireSize()) {
		t.Fatalf("protocol bytes = %d, want %d", pb, serve.WireSize())
	}
	if ov := col.Overhead(); math.Abs(ov-float64(vb)/float64(pb)) > 1e-12 {
		t.Fatalf("overhead = %v", ov)
	}
	if col.RecvMsgs(msg.KindServe) != 1 || col.RecvMsgs(msg.KindBlame) != 1 ||
		col.RecvBytes(msg.KindServe)+col.RecvBytes(msg.KindBlame) != pb+vb {
		t.Fatal("receiver counters wrong: every lossless send must be delivered, bytes included")
	}
}

// Attach is the one registration point: a send from a node that never
// attached is a harness bug, reported with the node's id.
func TestSendFromUnattachedNodePanics(t *testing.T) {
	_, n, _ := newNet(t, Uniform(0, time.Millisecond))
	defer func() {
		got, _ := recover().(string)
		if !strings.Contains(got, "node 5") || !strings.Contains(got, "attach the node first") {
			t.Fatalf("panic = %q, want one naming node 5 and saying to attach it first", got)
		}
	}()
	n.Send(5, 1, &msg.ScoreReq{Sender: 5, Target: 1}, Unreliable)
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() []time.Duration {
		eng := sim.NewEngine()
		n := NewSimNet(eng, rng.New(99), metrics.NewCollector(), Conditions{LatencyBase: time.Millisecond, LatencyJitter: 5 * time.Millisecond, LossIn: 0.1})
		n.Attach(1, &capture{})
		rx := &capture{clock: eng.Domain(2)}
		n.Attach(2, rx)
		for i := 0; i < 200; i++ {
			n.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, Unreliable)
		}
		eng.RunAll()
		return rx.at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("deliveries differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("delivery times diverged between identical runs")
		}
	}
}

// TestTrafficConservation pins the collector symmetry PR 7 fixed: on the
// sim backend every sent message (and byte) is delivered or recorded as a
// drop — exactly one of the two — once the engine drains. Lossless runs
// must show zero drops; lossy runs must balance to the message.
func TestTrafficConservation(t *testing.T) {
	for _, loss := range []float64{0, 0.2} {
		eng, n, col := newNet(t, Uniform(loss, time.Millisecond))
		rx := &capture{}
		n.Attach(2, rx)
		const total = 5000
		for i := 0; i < total; i++ {
			n.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, Unreliable)
		}
		eng.RunAll()
		k := msg.KindScoreReq
		if col.SentMsgs(k) != total {
			t.Fatalf("loss=%v: sent %d, want %d", loss, col.SentMsgs(k), total)
		}
		if got := col.RecvMsgs(k) + col.Dropped(k); got != total {
			t.Fatalf("loss=%v: delivered %d + dropped %d != sent %d",
				loss, col.RecvMsgs(k), col.Dropped(k), total)
		}
		if got := col.RecvBytes(k) + col.DroppedBytes(k); got != col.SentBytes(k) {
			t.Fatalf("loss=%v: byte accounting unbalanced: %d + %d != %d",
				loss, col.RecvBytes(k), col.DroppedBytes(k), col.SentBytes(k))
		}
		if loss == 0 && col.Dropped(k) != 0 {
			t.Fatalf("lossless run recorded %d drops", col.Dropped(k))
		}
		if loss > 0 && col.Dropped(k) == 0 {
			t.Fatal("lossy run recorded no drops")
		}
	}
}

// The per-node tables are indexed by id and grown by whoever mentions an id
// first; a detached node keeps its slot, empty, and its conditions.
func TestDetachAndConditionsBeforeAttach(t *testing.T) {
	eng, n, col := newNet(t, Uniform(0, time.Millisecond))
	n.SetConditions(40, Conditions{LatencyBase: 8 * time.Millisecond})
	if got := n.ConditionsOf(40).LatencyBase; got != 8*time.Millisecond {
		t.Fatalf("conditions set before attach read back as %v", got)
	}
	if got := n.ConditionsOf(41).LatencyBase; got != time.Millisecond {
		t.Fatalf("a node in the grown range without conditions of its own has %v, want the default", got)
	}
	rx := &capture{}
	n.Attach(40, rx)
	n.Send(1, 40, &msg.ScoreReq{Sender: 1, Target: 40}, Unreliable)
	eng.RunAll()
	if len(rx.msgs) != 1 {
		t.Fatalf("attached node received %d messages, want 1", len(rx.msgs))
	}
	n.Attach(40, nil)
	n.Attach(1000, nil) // detaching a node never heard of is a no-op
	n.Send(1, 40, &msg.ScoreReq{Sender: 1, Target: 40}, Unreliable)
	eng.RunAll()
	if len(rx.msgs) != 1 || col.Dropped(msg.KindScoreReq) != 1 {
		t.Fatalf("detached node: %d received, %d dropped; want 1, 1", len(rx.msgs), col.Dropped(msg.KindScoreReq))
	}
	// A detached node may still send: it stays registered.
	n.Send(40, 1, &msg.ScoreReq{Sender: 40, Target: 1}, Unreliable)
	n.SetDown(40, true)
	if c := n.ConditionsOf(40); !c.Down || c.LatencyBase != 8*time.Millisecond {
		t.Fatalf("SetDown lost the node's other conditions: %+v", c)
	}
}

// eventLog records what a node receives, one entry per delivery event: the
// first message of an event arms a timer of the node at the same instant
// that closes the entry. The nodes that log have ids below every sender's,
// so that timer runs before any other delivery of the instant — a
// delivery event is ordered by its sender's id.
type eventLog struct {
	ctx    sim.Context
	open   bool
	end    func()
	events [][]msg.Message
}

func newEventLog(ctx sim.Context) *eventLog {
	l := &eventLog{ctx: ctx}
	l.end = func() { l.open = false }
	return l
}

func (l *eventLog) HandleMessage(_ msg.NodeID, m msg.Message) {
	if !l.open {
		l.open = true
		l.events = append(l.events, nil)
		l.ctx.After(0, l.end)
	}
	l.events[len(l.events)-1] = append(l.events[len(l.events)-1], m)
}

// sizes returns how many messages each logged event carried, and forgets
// them.
func (l *eventLog) sizes() []int {
	var out []int
	for _, e := range l.events {
		out = append(out, len(e))
	}
	l.events = nil
	return out
}

// TestOneDeliveryPerDestinationPerNodeEvent is the sim's twin of the udp
// runtime's TestOneDatagramPerDestinationPerCallback, on one shard and on
// two: the 17 serves a node sends one peer during one node event arrive in
// one delivery event, a node event sending to 3 peers makes 3, and a
// delivery event's messages are dispatched as one callback, so the replies
// to them share a delivery too. A send from the global phase arrives alone,
// and so does a message that drew a modelled reorder or duplication — each
// copy of a duplicate, counted as two sends.
func TestOneDeliveryPerDestinationPerNodeEvent(t *testing.T) {
	for _, shards := range []int{1, 2} {
		eng := sim.NewSharded(shards, 5*time.Millisecond)
		col := metrics.NewCollector()
		n := NewSimNet(eng, rng.New(1), col, Uniform(0, 10*time.Millisecond))
		const sender, replier = 10, 11
		n.Attach(sender, &capture{})
		n.Attach(replier, handlerFunc(func(_ msg.NodeID, m msg.Message) {
			n.Send(replier, 1, &msg.ScoreResp{Sender: replier, Target: m.(*msg.ScoreReq).Target}, Unreliable)
		}))
		logs := make([]*eventLog, 4)
		for id := 1; id < 4; id++ {
			logs[id] = newEventLog(eng.Domain(id))
			n.Attach(msg.NodeID(id), logs[id])
		}
		step := func(what string, fn func(), want ...[]int) {
			t.Helper()
			if fn != nil {
				eng.Domain(sender).After(0, fn)
			}
			eng.RunAll()
			for id := 1; id < 4; id++ {
				if got := logs[id].sizes(); !slices.Equal(got, want[id-1]) {
					t.Errorf("S=%d, %s: node %d got deliveries of %v messages, want %v", shards, what, id, got, want[id-1])
				}
			}
		}
		serve := func(c int) msg.Message {
			return &msg.Serve{Sender: sender, Chunk: msg.ChunkID(c), PayloadSize: 1316, Payload: make([]byte, 1316)}
		}

		step("17 serves", func() {
			for c := 0; c < 17; c++ {
				n.Send(sender, 1, serve(c), Unreliable)
			}
		}, []int{17}, nil, nil)
		step("3 peers", func() {
			for c := 0; c < 4; c++ {
				for id := 1; id < 4; id++ {
					n.Send(sender, msg.NodeID(id), &msg.Blame{Sender: sender, Target: 3, Value: 1}, Unreliable)
				}
			}
			n.Send(sender, 1, &msg.AuditReq{Sender: sender, Horizon: time.Second}, Reliable) // a group of its own
		}, []int{4, 1}, []int{4}, []int{4})
		for c := 0; c < 3; c++ {
			n.Send(sender, 2, serve(c), Unreliable)
		}
		step("the global phase", nil, nil, []int{1, 1, 1}, nil)
		step("replies", func() {
			for c := 0; c < 3; c++ {
				n.Send(sender, replier, &msg.ScoreReq{Sender: sender, Target: msg.NodeID(c)}, Unreliable)
			}
		}, []int{3}, nil, nil)

		// A held message arrives alone, after ReorderDelay: the node
		// event's reliable delivery overtakes it.
		n.SetConditions(sender, Conditions{LatencyBase: 10 * time.Millisecond, ReorderProb: 1, ReorderDelay: 150 * time.Millisecond})
		step("a held message", func() {
			n.Send(sender, 1, &msg.Blame{Sender: sender, Target: 3, Value: 1}, Unreliable)
			n.Send(sender, 1, &msg.AuditReq{Sender: sender, Horizon: time.Second}, Reliable)
			n.Send(sender, 1, &msg.AuditReq{Sender: sender, Horizon: time.Second}, Reliable)
		}, []int{2, 1}, nil, nil)

		n.SetConditions(sender, Conditions{LatencyBase: 10 * time.Millisecond, DupProb: 1})
		sent := col.SentMsgs(msg.KindBlame)
		step("duplicates", func() {
			for c := 0; c < 2; c++ {
				n.Send(sender, 2, &msg.Blame{Sender: sender, Target: 3, Value: 1}, Unreliable)
			}
		}, nil, []int{1, 1, 1, 1}, nil)
		if got := col.SentMsgs(msg.KindBlame) - sent; got != 4 {
			t.Errorf("S=%d: 2 duplicated blames counted as %d sends, want 4", shards, got)
		}
	}
}

// handlerFunc adapts a function to Handler.
type handlerFunc func(msg.NodeID, msg.Message)

func (f handlerFunc) HandleMessage(from msg.NodeID, m msg.Message) { f(from, m) }

// TestGroupedTrafficAllocatesNothing runs 64 nodes on two shards, each
// sending three messages to each of two peers every 10 ms, from a timer
// re-armed with a func value made once. Once warm, a window of grouped
// sends and deliveries allocates nothing, on the shard goroutines too: the
// outboxes keep their slots and each slot its message slice, a group's
// messages travel as engine events, and each shard gathers the group it
// receives in a slice it keeps.
func TestGroupedTrafficAllocatesNothing(t *testing.T) {
	const nodes, every = 64, 10 * time.Millisecond
	eng := sim.NewSharded(2, 5*time.Millisecond)
	n := NewSimNet(eng, rng.New(1), metrics.NewCollector(), Uniform(0.01, 5*time.Millisecond))
	delivered := make([]int, nodes)
	for id := range nodes {
		ctx := eng.Domain(id)
		n.Attach(msg.NodeID(id), handlerFunc(func(msg.NodeID, msg.Message) { delivered[id]++ }))
		ms := []msg.Message{
			&msg.Blame{Sender: msg.NodeID(id), Target: 1, Value: 1},
			&msg.ScoreReq{Sender: msg.NodeID(id), Target: 2},
			&msg.Propose{Sender: msg.NodeID(id), Chunks: []msg.ChunkID{1, 2, 3}},
		}
		var fire func()
		fire = func() {
			for _, peer := range []int{(id + 1) % nodes, (id + 7) % nodes} {
				for _, m := range ms {
					n.Send(msg.NodeID(id), msg.NodeID(peer), m, Unreliable)
				}
			}
			ctx.After(every, fire)
		}
		ctx.After(time.Duration(id)*every/nodes, fire)
	}
	// Rounds of whole windows, and rounds that end inside one, as a
	// cluster's Run does at every call: its final window's cross-shard
	// traffic may run one way only, and the merge must not move a page
	// from one shard's queue to the other's for it.
	for _, r := range []struct {
		name  string
		round func()
	}{
		{"RunChunk", func() { eng.RunChunk(time.Duration(1<<62), 2000) }},
		{"Run(now + 50 ms)", func() { eng.Run(eng.Now() + 50*time.Millisecond) }},
	} {
		for range 20 {
			r.round()
		}
		before := delivered[5]
		sites := siteAllocs(t, 20, r.round)
		if got := delivered[5] - before; got < 20*2*3 {
			t.Fatalf("%s: node 5 got %d messages in 20 rounds, want at least %d", r.name, got, 20*2*3)
		}
		if len(sites) != 0 {
			t.Fatalf("%s: 20 rounds of grouped traffic allocate, want nothing; by site: %v", r.name, sites)
		}
	}
}

// siteAllocs runs f runs times with every allocation profiled
// (runtime.MemProfileRate = 1) and returns how many objects the runs
// allocated in all, by site: the innermost frame of this module on the
// allocating stack, shard goroutines' stacks included. (The sim package's
// tests hold the same helper, and say which runtime caches it leaves out.)
func siteAllocs(t *testing.T, runs int, f func()) map[string]int64 {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocsByStack()
	for i := 0; i < runs; i++ {
		f()
	}
	after := allocsByStack()
	sites := make(map[string]int64)
	for stk, n := range after {
		if n -= before[stk]; n > 0 {
			if site := moduleSite(stk); site != "" {
				sites[site] += n
			}
		}
	}
	return sites
}

// allocsByStack returns the objects allocated so far per allocating stack,
// as of a collection it forces: the profile publishes an allocation once
// the cycle it was made in has been swept.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	by := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		by[r.Stack0] += r.AllocObjects
	}
	return by
}

// moduleSite names the innermost frame of this module on stk, or "" if
// there is none, if it is the profiling itself, or if the allocation refills
// one of the runtime's own caches from inside it (a type-assertion cache, or
// the wait record of the sharded windows' join; see the sim package's copy).
func moduleSite(stk [32]uintptr) string {
	frames := runtime.CallersFrames(stk[:])
	for {
		fr, more := frames.Next()
		switch fr.Function {
		case "runtime.typeAssert", "runtime.interfaceSwitch", "runtime.acquireSudog":
			return ""
		}
		if strings.HasPrefix(fr.Function, "lifting/") {
			if strings.HasSuffix(fr.Function, ".allocsByStack") || strings.HasSuffix(fr.Function, ".siteAllocs") {
				return ""
			}
			return fmt.Sprintf("%s %s:%d", fr.Function, fr.File, fr.Line)
		}
		if !more {
			return ""
		}
	}
}
