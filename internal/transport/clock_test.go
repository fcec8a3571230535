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
// due, ties to the one pushed first. Dues come from a small range, so ties
// are the common case. The committed corpus under testdata/fuzz replays on
// every plain `go test`.
//
// The schedule is two bytes per step, an operation and its argument: push
// one job (arg = due), push a run of jobs with one due, or pop a few.
func FuzzClockOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 2, 0, 1, 3, 0})
	f.Add([]byte{1, 0x47, 0, 7, 2, 1, 1, 0x27, 2, 7})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 4096 {
			t.Skip("long schedules only repeat short ones")
		}
		var h jobHeap
		var model []job // pending, in push order; from numbers the pushes
		pushed := msg.NodeID(0)
		push := func(due time.Duration) {
			j := job{due: due, from: pushed}
			pushed++
			wantHead := true
			for _, p := range model {
				wantHead = wantHead && p.due > due
			}
			if head := h.push(j); head != wantHead {
				t.Fatalf("push #%d (due %v) reported head=%v, the model says %v", j.from, due, head, wantHead)
			}
			model = append(model, j)
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
			if got.from != want.from || got.due != want.due {
				t.Fatalf("pop #%d = push #%d (due %v), the model says push #%d (due %v)", popped, got.from, got.due, want.from, want.due)
			}
			if popped > 0 && got.due == last.due && got.from < last.from {
				t.Fatalf("equal dues %v popped out of push order: #%d after #%d", got.due, got.from, last.from)
			}
			last = got
			popped++
			if len(h.jobs) != len(model) {
				t.Fatalf("heap holds %d jobs, the model %d", len(h.jobs), len(model))
			}
		}
		for i := 0; i+1 < len(schedule); i += 2 {
			op, arg := schedule[i]%3, schedule[i+1]
			switch op {
			case 0:
				push(time.Duration(arg % 16))
			case 1:
				for k := byte(0); k <= arg>>4; k++ {
					push(time.Duration(arg % 16))
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
			if j.due != 0 || j.from != 0 || j.seq != 0 {
				t.Fatalf("drained heap still holds push #%d (due %v)", j.from, j.due)
			}
		}
	})
}

// TestWireAllocs pins the clock's promise: queuing a delay allocates
// nothing — a node timer with a shared func value, a delayed Send of a
// Propose (its frame from the pool) and a delayed dispatch are each one
// by-value job. It pins the receive path's too: a Propose or a Serve
// datagram through a warmed Decoder, then onto the clock, costs a block
// refill every few dozen datagrams, 0 in AllocsPerRun's integer mean. And
// it pins the outbox's: a callback that sends k messages to each of d
// destinations ships d datagrams for nothing, whether they leave inline
// (a zero-latency node, what lifting-node runs) or wait on the clock. Every
// other delay is an hour, so nothing fires while measuring.
func TestWireAllocs(t *testing.T) {
	rt := New(Options{Seed: 1, Defaults: net.Conditions{LatencyBase: 2 * time.Hour}})
	defer rt.Close()
	rt.Attach(1, nil)
	rt.Attach(2, nil)
	const runs, k, d = 200, 4, 3
	n := rt.localNode(1)
	n.clock.mu.Lock()
	n.clock.heap.jobs = make([]job, 0, (6+d)*runs) // steady state: the heap has grown
	n.clock.mu.Unlock()
	// Steady state: sent frames come back to the pool. Twice what the runs
	// take, because under -race sync.Pool drops a random quarter of Puts.
	for i := 0; i < 2*(1+d)*(runs+1); i++ {
		b := make([]byte, 0, msg.FrameHeaderSize+512)
		rt.bufs.Put(&b)
	}

	// The callbacks' destinations: sockets nobody reads, so what the inline
	// ones write costs no receive loop anything while measuring.
	dests := make([]msg.NodeID, d)
	for i := range dests {
		sink, err := gonet.ListenUDP("udp", gonet.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		dests[i] = msg.NodeID(10 + i)
		rt.book.SetAddr(dests[i], sink.LocalAddr().(*gonet.UDPAddr).AddrPort())
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
	// Node 3 has no latency: a datagram it receives is dispatched inline,
	// and what its handler sends leaves inline when the dispatch returns.
	rt.SetConditions(3, net.Conditions{})
	answer := sendAll(3)
	rt.Attach(3, handlerFunc(func(msg.NodeID, msg.Message) { answer() }))
	inline := rt.localNode(3)
	trigger := []msg.Message{&msg.ScoreReq{Sender: 2, Target: 4}}
	timer := job{fn: sendAll(1)}

	noop := func() {}
	propose := &msg.Propose{Sender: 1, Period: 3, Chunks: []msg.ChunkID{7, 8}, Origins: []msg.NodeID{4, 5}}
	proposes := []msg.Message{propose}
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
		{"delayed dispatch", func() { rt.deliver(n, proposes, 0) }},
		{"decode a Propose datagram", func() { rt.receive(n, in, proposeDatagram, src) }},
		{"decode a Serve datagram", func() { rt.receive(n, in, serveDatagram, src) }},
		{"callback, datagrams inline", func() { rt.deliver(inline, trigger, 0) }},
		{"callback, datagrams delayed", func() { n.clock.fire(&timer) }},
	} {
		if allocs := testing.AllocsPerRun(runs, c.f); allocs != 0 {
			t.Errorf("%s allocates %v objects, want 0", c.name, allocs)
		}
	}
	if jobs, datagrams := n.clock.pending(); jobs != (5+d)*(runs+1) || datagrams != (4+d)*(runs+1) {
		t.Fatalf("clock holds %d jobs, %d of them datagrams; want %d and %d", jobs, datagrams, (5+d)*(runs+1), (4+d)*(runs+1))
	}
	if jobs, _ := inline.clock.pending(); jobs != 0 {
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
	if jobs, datagrams := n.clock.pending(); jobs != 2 || datagrams != 1 {
		t.Fatalf("node clock holds %d jobs (%d datagrams), want 2 (1)", jobs, datagrams)
	}

	start := time.Now()
	rt.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with an hour of work pending, want < 100ms", took)
	}
	for _, c := range []*clock{rt.clock, n.clock} {
		if jobs, datagrams := c.pending(); jobs != 0 || datagrams != 0 {
			t.Errorf("closed clock still holds %d jobs (%d datagrams)", jobs, datagrams)
		}
	}
}

// TestDelayedDatagramsAreBounded floods one node's clock — its own sends and
// datagrams it receives, both waiting out its half of a 1 s link — past
// maxDelayedDatagrams: the clock holds exactly the bound, every datagram
// past it is an accounted drop — every message of it — and a callback
// still gets in.
func TestDelayedDatagramsAreBounded(t *testing.T) {
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll, Defaults: net.Conditions{LatencyBase: time.Second}})
	defer rt.Close()
	rt.Attach(1, nil)
	rt.Attach(2, nil)
	n := rt.localNode(1)

	// Reliable-class traffic: each half of the link is 3 × 0.5 s, far longer
	// than the flood takes.
	const extra = 100
	start := time.Now()
	m := &msg.AuditReq{Sender: 2, Horizon: time.Second}
	for i := 0; i < maxDelayedDatagrams/2; i++ {
		rt.Send(1, 2, m, net.Reliable)
	}
	for i := 0; i < maxDelayedDatagrams/2+extra; i++ {
		rt.deliver(n, []msg.Message{m}, msg.FlagReliable)
	}
	if time.Since(start) > time.Second {
		t.Skip("the flood outlasted the modelled latency on this machine")
	}
	if _, datagrams := n.clock.pending(); datagrams != maxDelayedDatagrams {
		t.Fatalf("clock holds %d delayed datagrams, want the bound %d", datagrams, maxDelayedDatagrams)
	}
	if got := coll.Dropped(msg.KindAuditReq); got != extra {
		t.Fatalf("%d drops accounted, want the %d datagrams past the bound", got, extra)
	}
	// One callback's three sends to one peer are one datagram: refused
	// whole, each of its messages an accounted drop.
	n.clock.fire(&job{fn: func() {
		for i := 0; i < 3; i++ {
			rt.Send(1, 2, m, net.Reliable)
		}
	}})
	if got := coll.Dropped(msg.KindAuditReq); got != extra+3 {
		t.Fatalf("%d drops accounted, want %d: the 3 messages of a refused datagram count one each", got, extra+3)
	}
	n.After(time.Hour, func() {})
	if jobs, datagrams := n.clock.pending(); jobs != maxDelayedDatagrams+1 || datagrams != maxDelayedDatagrams {
		t.Fatalf("a callback on a full clock: %d jobs, %d datagrams; want %d and %d", jobs, datagrams, maxDelayedDatagrams+1, maxDelayedDatagrams)
	}
}
