package transport

import (
	gonet "net"
	"net/netip"
	"testing"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
)

// FuzzClockOrder drives a jobHeap with a fuzzer-written schedule and checks
// every pop against the model of a clock: the pending job with the least
// due, ties to the one pushed first, whichever node each belongs to. Dues
// come from a small range, so ties are the common case. Each job carries
// one of four nodes (the harness's nil among them), and no node's own jobs
// may ever reorder: one pushed after another with a due no earlier pops
// after it — what sim.Deadlines needs of a node's equal delays. The
// committed corpus under testdata/fuzz replays on every plain `go test`.
//
// The schedule is two bytes per step, an operation with its node and the
// operation's argument: push one job (arg = due), push a run of jobs with
// one due, or pop a few.
func FuzzClockOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 2, 0, 1, 3, 0})
	f.Add([]byte{1, 0x47, 0, 7, 2, 1, 1, 0x27, 2, 7})
	f.Add([]byte{3, 2, 6, 2, 0, 2, 9, 2, 4, 0x32, 7, 0x12, 2, 3, 10, 0x22, 2, 7})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 4096 {
			t.Skip("long schedules only repeat short ones")
		}
		nodes := []*nodeCtx{nil, {id: 1}, {id: 2}, {id: 3}}
		var h jobHeap
		var model []job // pending, in push order, each with the seq push must give it
		pushed := uint64(0)
		push := func(node *nodeCtx, due time.Duration) {
			wantHead := true
			for _, p := range model {
				wantHead = wantHead && p.due > due
			}
			if head := h.push(job{due: due, node: node}); head != wantHead {
				t.Fatalf("push #%d (due %v) reported head=%v, the model says %v", pushed, due, head, wantHead)
			}
			model = append(model, job{due: due, node: node, seq: pushed})
			pushed++
		}
		var last job
		popped := 0
		pop := func() {
			if len(model) == 0 {
				return
			}
			k := 0
			for i, p := range model {
				if p.due < model[k].due {
					k = i
				}
			}
			want := model[k]
			model = append(model[:k], model[k+1:]...)
			got := h.pop()
			if got.seq != want.seq || got.due != want.due || got.node != want.node {
				t.Fatalf("pop #%d = push #%d (due %v), the model says push #%d (due %v)", popped, got.seq, got.due, want.seq, want.due)
			}
			if popped > 0 && got.due == last.due && got.seq < last.seq {
				t.Fatalf("equal dues %v popped out of push order: #%d after #%d", got.due, got.seq, last.seq)
			}
			for _, p := range model {
				if p.node == got.node && p.seq < got.seq && p.due <= got.due {
					t.Fatalf("a node's jobs reordered: #%d (due %v) popped before #%d (due %v)", got.seq, got.due, p.seq, p.due)
				}
			}
			last = got
			popped++
			if len(h.jobs) != len(model) {
				t.Fatalf("heap holds %d jobs, the model %d", len(h.jobs), len(model))
			}
		}
		for i := 0; i+1 < len(schedule); i += 2 {
			op, node, arg := schedule[i]%3, nodes[schedule[i]/3%4], schedule[i+1]
			switch op {
			case 0:
				push(node, time.Duration(arg%16))
			case 1:
				for k := byte(0); k <= arg>>4; k++ {
					push(node, time.Duration(arg%16))
				}
			case 2:
				for k := byte(0); k <= arg%8; k++ {
					pop()
				}
			}
		}
		for len(model) > 0 {
			pop()
		}
		for _, j := range h.jobs[:cap(h.jobs)] {
			if j.due != 0 || j.seq != 0 || j.node != nil {
				t.Fatalf("drained heap still holds push #%d (due %v)", j.seq, j.due)
			}
		}
	})
}

// TestWireAllocs pins the clock's promise: queuing a delay allocates
// nothing — a node timer with a shared func value and a delayed Send of a
// Propose (its frame from the pool) are each one by-value job. It pins the
// receive path's too: a Propose or a Serve datagram through a warmed
// Decoder, dispatched as one callback, costs a block refill every few dozen
// datagrams, 0 in AllocsPerRun's integer mean. And it pins the outbox's: a
// callback that sends k messages to each of d destinations ships d
// datagrams for nothing, whether they leave inline (a zero-latency link,
// what lifting-node runs) or wait on the clock. Every other delay is an
// hour, so nothing fires while measuring.
func TestWireAllocs(t *testing.T) {
	rt := New(Options{Seed: 1, Defaults: net.Conditions{LatencyBase: 2 * time.Hour}})
	defer rt.Close()
	rt.Attach(1, nil)
	rt.Attach(2, nil)
	const runs, k, d = 200, 4, 3
	n := rt.localNode(1)
	rt.clock.mu.Lock()
	rt.clock.heap.jobs = make([]job, 0, (2+d)*(runs+1)) // steady state: the heap has grown
	rt.clock.mu.Unlock()
	// Steady state: sent frames come back to the pool. Twice what the runs
	// take, because under -race sync.Pool drops a random quarter of Puts.
	for i := 0; i < 2*(1+d)*(runs+1); i++ {
		b := make([]byte, 0, smallFrame)
		rt.bufs.Put(&b)
	}

	// The callbacks' destinations: sockets nobody reads, so what the inline
	// ones write costs no receive loop anything while measuring, and with no
	// latency of their own, so a link to one is as slow as its sender.
	dests := make([]msg.NodeID, d)
	for i := range dests {
		sink, err := gonet.ListenUDP("udp", gonet.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		dests[i] = msg.NodeID(10 + i)
		rt.book.SetAddr(dests[i], sink.LocalAddr().(*gonet.UDPAddr).AddrPort())
		rt.SetConditions(dests[i], net.Conditions{})
	}
	sendAll := func(from msg.NodeID) func() {
		blame := &msg.Blame{Sender: from, Target: 5, Value: 1, Reason: msg.ReasonPartialServe}
		return func() {
			for i := 0; i < k; i++ {
				for _, to := range dests {
					rt.Send(from, to, blame, net.Unreliable)
				}
			}
		}
	}
	// Node 3 has no latency: what its handler sends to the destinations
	// leaves inline when the dispatch returns.
	rt.SetConditions(3, net.Conditions{})
	answer := sendAll(3)
	rt.Attach(3, handlerFunc(func(msg.NodeID, msg.Message) { answer() }))
	inline := rt.localNode(3)
	req := &msg.ScoreReq{Sender: 2, Target: 4}
	trigger := []net.Arrival{{M: req, Size: req.WireSize()}}
	timer := job{node: n, fn: sendAll(1)}

	noop := func() {}
	propose := &msg.Propose{Sender: 1, Period: 3, Chunks: []msg.ChunkID{7, 8}, Origins: []msg.NodeID{4, 5}}
	serve := &msg.Serve{Sender: 1, Period: 3, Chunk: 7, PayloadSize: 1316, Hash: 9, Payload: make([]byte, 1316)}
	datagram := func(m msg.Message) []byte {
		b, err := msg.AppendFrame(nil, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	proposeDatagram, serveDatagram := datagram(propose), datagram(serve)
	src, _ := rt.book.Lookup(1)
	in := &inbox{reasm: newReassembler()}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"nodeCtx.After", func() { n.After(time.Hour, noop) }},
		{"delayed Send", func() { rt.Send(1, 2, propose, net.Unreliable) }},
		{"decode a Propose datagram", func() { rt.receive(n, in, proposeDatagram, src) }},
		{"decode a Serve datagram", func() { rt.receive(n, in, serveDatagram, src) }},
		{"callback, datagrams inline", func() { rt.deliver(inline, trigger, 0) }},
		{"callback, datagrams delayed", func() { rt.clock.fire(&timer) }},
	} {
		if allocs := testing.AllocsPerRun(runs, c.f); allocs != 0 {
			t.Errorf("%s allocates %v objects, want 0", c.name, allocs)
		}
	}
	if jobs, datagrams := pending(rt.clock, n); jobs != (2+d)*(runs+1) || datagrams != (1+d)*(runs+1) {
		t.Fatalf("clock holds %d jobs of node 1, %d of them datagrams; want %d and %d", jobs, datagrams, (2+d)*(runs+1), (1+d)*(runs+1))
	}
	if jobs, _ := pending(rt.clock, inline); jobs != 0 {
		t.Fatalf("the zero-latency node queued %d jobs, want none", jobs)
	}
}

// handlerFunc adapts a function to net.Handler.
type handlerFunc func(from msg.NodeID, m msg.Message)

func (f handlerFunc) HandleMessage(from msg.NodeID, m msg.Message) { f(from, m) }

// TestCloseDropsPendingWork: a callback, a harness callback and a delayed
// send an hour out are neither run nor waited for.
func TestCloseDropsPendingWork(t *testing.T) {
	rt := New(Options{Seed: 1})
	rt.Attach(1, nil)
	rt.Attach(2, &collect{})
	rt.SetConditions(1, net.Conditions{LatencyBase: 2 * time.Hour})
	rt.Context(1).After(time.Hour, func() { t.Error("node callback ran after Close") })
	rt.After(time.Hour, func() { t.Error("harness callback ran after Close") })
	rt.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 4}, net.Unreliable)
	n := rt.localNode(1)
	if jobs, datagrams := pending(rt.clock, n); jobs != 2 || datagrams != 1 {
		t.Fatalf("clock holds %d jobs of node 1 (%d datagrams), want 2 (1)", jobs, datagrams)
	}
	if jobs, _ := pending(rt.clock, nil); jobs != 1 {
		t.Fatalf("clock holds %d harness jobs, want 1", jobs)
	}

	start := time.Now()
	rt.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with an hour of work pending, want < 100ms", took)
	}
	for _, n := range []*nodeCtx{nil, n} {
		if jobs, datagrams := pending(rt.clock, n); jobs != 0 || datagrams != 0 {
			t.Errorf("closed clock still holds %d jobs (%d datagrams) of %v", jobs, datagrams, n)
		}
	}
}

// TestDelayedDatagramsAreBounded floods one node with sends, each waiting
// out a 1 s link, past maxDelayedDatagrams: the clock holds exactly the
// bound for it, every datagram past it is an accounted drop — every message
// of it — and a callback still gets in.
func TestDelayedDatagramsAreBounded(t *testing.T) {
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll, Defaults: net.Conditions{LatencyBase: time.Second}})
	defer rt.Close()
	rt.Attach(1, nil)
	rt.Attach(2, nil)
	n := rt.localNode(1)

	// Reliable-class traffic: the link is 3 × 1 s, far longer than the
	// flood takes.
	const extra = 100
	start := time.Now()
	m := &msg.AuditReq{Sender: 1, Horizon: time.Second}
	for i := 0; i < maxDelayedDatagrams+extra; i++ {
		rt.Send(1, 2, m, net.Reliable)
	}
	if time.Since(start) > time.Second {
		t.Skip("the flood outlasted the modelled latency on this machine")
	}
	if _, datagrams := pending(rt.clock, n); datagrams != maxDelayedDatagrams {
		t.Fatalf("clock holds %d delayed datagrams, want the bound %d", datagrams, maxDelayedDatagrams)
	}
	if got := coll.Dropped(msg.KindAuditReq); got != extra {
		t.Fatalf("%d drops accounted, want the %d datagrams past the bound", got, extra)
	}
	// One callback's three sends to one peer are one datagram: refused
	// whole, each of its messages an accounted drop.
	rt.clock.fire(&job{node: n, fn: func() {
		for i := 0; i < 3; i++ {
			rt.Send(1, 2, m, net.Reliable)
		}
	}})
	if got := coll.Dropped(msg.KindAuditReq); got != extra+3 {
		t.Fatalf("%d drops accounted, want %d: the 3 messages of a refused datagram count one each", got, extra+3)
	}
	n.After(time.Hour, func() {})
	if jobs, datagrams := pending(rt.clock, n); jobs != maxDelayedDatagrams+1 || datagrams != maxDelayedDatagrams {
		t.Fatalf("a callback on a full clock: %d jobs, %d datagrams; want %d and %d", jobs, datagrams, maxDelayedDatagrams+1, maxDelayedDatagrams)
	}
}

// TestFloodedNodeCostsOthersNothing: the bound is per node. With node 1 at
// maxDelayedDatagrams on the shared clock, node 3's delayed sends are all
// queued — not one of them dropped — and count against node 3 alone.
func TestFloodedNodeCostsOthersNothing(t *testing.T) {
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll, Defaults: net.Conditions{LatencyBase: time.Second}})
	defer rt.Close()
	for _, id := range []msg.NodeID{1, 2, 3} {
		rt.Attach(id, nil)
	}
	flooded, other := rt.localNode(1), rt.localNode(3)

	const extra, sent = 10, 50
	start := time.Now()
	for i := 0; i < maxDelayedDatagrams+extra; i++ {
		rt.Send(1, 2, &msg.AuditReq{Sender: 1, Horizon: time.Second}, net.Reliable)
	}
	for i := 0; i < sent; i++ {
		rt.Send(3, 2, &msg.AuditReq{Sender: 3, Horizon: time.Second}, net.Reliable)
	}
	if time.Since(start) > time.Second {
		t.Skip("the flood outlasted the modelled latency on this machine")
	}
	if got := coll.Dropped(msg.KindAuditReq); got != extra {
		t.Fatalf("%d drops accounted, want only the flooded node's %d", got, extra)
	}
	if _, datagrams := pending(rt.clock, flooded); datagrams != maxDelayedDatagrams {
		t.Fatalf("the flooded node holds %d delayed datagrams, want the bound %d", datagrams, maxDelayedDatagrams)
	}
	if jobs, datagrams := pending(rt.clock, other); jobs != sent || datagrams != sent {
		t.Fatalf("node 3 holds %d jobs (%d datagrams), want %d (%d)", jobs, datagrams, sent, sent)
	}
}

// pending returns the number of c's queued jobs of node n (of the harness,
// for n nil) and n's count of delayed datagrams.
func pending(c *clock, n *nodeCtx) (jobs, datagrams int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.heap.jobs {
		if c.heap.jobs[i].node == n {
			jobs++
		}
	}
	if n != nil {
		datagrams = n.delayed
	}
	return jobs, datagrams
}
