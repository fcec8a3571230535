package gossip

import (
	"testing"
	"time"
	"unsafe"

	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

func TestWantTableRecyclesEvictsAndExpires(t *testing.T) {
	tab := newWantTable(4)
	for c := msg.ChunkID(10); c < 14; c++ {
		tab.obtain(c, msg.Period(c-9)) // born in periods 1..4
	}
	if w := tab.obtain(11, 9); w.born != 2 {
		t.Fatalf("obtain of a known chunk made a new record (born %d, want 2)", w.born)
	}
	// A chunk that arrives frees its record for the next want.
	tab.release(tab.get(12))
	if tab.get(12) != nil || len(tab.index) != 3 {
		t.Fatalf("released record still found (%d live)", len(tab.index))
	}
	tab.obtain(20, 5)
	if len(tab.slab) != 4 {
		t.Fatalf("slab grew to %d records with a free one at hand", len(tab.slab))
	}
	// Full: the oldest want (10, born 1) makes room, not a newer one.
	tab.obtain(21, 5)
	if tab.get(10) != nil || tab.get(11) == nil || tab.get(13) == nil || tab.get(20) == nil {
		t.Fatal("a full table did not evict its oldest record")
	}
	if len(tab.index) != 4 || len(tab.slab) != 4 {
		t.Fatalf("table holds %d live in %d records, want 4 in 4", len(tab.index), len(tab.slab))
	}
	// Retention 3 at period 5 drops what was born at or before period 2.
	tab.expire(5, 3)
	if tab.get(11) != nil || tab.get(13) == nil {
		t.Fatal("expire did not drop exactly the records of age >= retention")
	}
	tab.expire(100, 3)
	if len(tab.index) != 0 || tab.oldest != -1 || tab.newest != -1 {
		t.Fatalf("expired table still lists records: %d live, ends %d..%d", len(tab.index), tab.oldest, tab.newest)
	}
	if w := tab.obtain(30, 100); w.nOffers != 0 || len(w.askedOf()) != 0 || w.requested || w.retries != 0 {
		t.Fatalf("recycled record was not reset: %+v", *w)
	}
}

func TestWantRemembersWhomItAsked(t *testing.T) {
	const limit = 2*maxAsked + 3
	var w want
	for s := msg.NodeID(1); s <= maxAsked; s++ {
		w.ask(s, time.Duration(s), limit)
		w.ask(s, time.Duration(s), limit) // asking again changes nothing
	}
	if w.spill != nil || len(w.askedOf()) != maxAsked {
		t.Fatalf("%d servers asked: %v (spill %v), want them inline", maxAsked, w.askedOf(), w.spill)
	}
	// More than the record holds inline: all of them are kept, up to limit.
	for s := msg.NodeID(maxAsked + 1); s <= limit; s++ {
		w.ask(s, time.Duration(s), limit)
	}
	if len(w.askedOf()) != limit || !w.askedFrom(1) || !w.askedFrom(maxAsked) || !w.askedFrom(limit) {
		t.Fatalf("asked = %v, want servers 1..%d", w.askedOf(), limit)
	}
	// Beyond the limit the earliest goes.
	w.ask(limit+1, 0, limit)
	w.ask(limit+2, 0, limit)
	if len(w.askedOf()) != limit || w.askedFrom(1) || w.askedFrom(2) || !w.askedFrom(3) || !w.askedFrom(limit+2) {
		t.Fatalf("asked = %v, want the last %d servers", w.askedOf(), limit)
	}
	for i := 0; i < maxOffers+3; i++ {
		w.offer(msg.NodeID(i), 1)
	}
	if w.nOffers != maxOffers || w.offers[maxOffers-1].from != maxOffers-1 {
		t.Fatalf("offers = %v, want the first %d", w.offers[:w.nOffers], maxOffers)
	}
}

func TestHaveSetGrowsWithinHorizonOnly(t *testing.T) {
	h := haveSet{horizon: 4} // words: ids up to 4·64 beyond the end
	for _, c := range []msg.ChunkID{0, 63, 64, 300} {
		if h.has(c) {
			t.Fatalf("empty set has %d", c)
		}
		h.add(c)
	}
	if len(h.bits) != 300/64+1 || len(h.far) != 0 {
		t.Fatalf("ids within the horizon: %d words, %d sparse; want %d, 0", len(h.bits), len(h.far), 300/64+1)
	}
	// Beyond the horizon the bitset stays as it is.
	far := []msg.ChunkID{msg.ChunkID(64 * (len(h.bits) + 4)), 1 << 20, ^msg.ChunkID(0)}
	for _, c := range far {
		h.add(c)
	}
	if len(h.bits) != 300/64+1 || len(h.far) != len(far) {
		t.Fatalf("ids beyond the horizon: %d words, %d sparse; want %d, %d", len(h.bits), len(h.far), 300/64+1, len(far))
	}
	// The stream catching up with a sparse id leaves it held.
	h.add(msg.ChunkID(64*(len(h.bits)+3) + 1))
	h.add(far[0] + 1)
	for _, c := range append(far, 0, 63, 64, 300, far[0]+1) {
		if !h.has(c) {
			t.Fatalf("set lost chunk %d", c)
		}
	}
	if h.has(1) || h.has(far[0]+2) || h.count != 9 {
		t.Fatalf("set has chunks never added, or count %d != 9", h.count)
	}
}

// soloNode is one node on an engine, everyone else being the test.
func soloNode(t *testing.T, cfg Config, peers int) (*sim.Engine, *net.SimNet, *Node) {
	t.Helper()
	eng := sim.NewEngine()
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	node := NewNode(0, cfg, shipped(cfg, Deps{Ctx: eng.Domain(0), Net: netw, Dir: membership.Sequential(peers + 1), Rand: rng.New(3)}))
	netw.Attach(0, node)
	return eng, netw, node
}

func TestWideProposalServedOncePerPartner(t *testing.T) {
	// 100 chunks to 3 partners: the consumed marks span several words.
	cfg := testConfig()
	cfg.F = 3
	eng, netw, node := soloNode(t, cfg, 3)
	served := make(map[msg.NodeID][]msg.ChunkID)
	var proposal *msg.Propose
	for p := msg.NodeID(1); p <= 3; p++ {
		p := p
		netw.Attach(p, handlerFunc(func(_ msg.NodeID, m msg.Message) {
			switch v := m.(type) {
			case *msg.Propose:
				proposal = v
			case *msg.Serve:
				served[p] = append(served[p], v.Chunk)
			}
		}))
	}
	for c := msg.ChunkID(0); c < 100; c++ {
		inject(node, c)
	}
	node.Start()
	eng.Run(10 * time.Millisecond)
	if proposal == nil || len(proposal.Chunks) != 100 {
		t.Fatalf("no 100-chunk proposal: %+v", proposal)
	}
	request := func(from msg.NodeID, chunks []msg.ChunkID) {
		netw.Send(from, 0, &msg.Request{Sender: from, Period: proposal.Period, Chunks: chunks}, net.Unreliable)
	}
	request(1, proposal.Chunks[60:])
	request(2, proposal.Chunks)
	request(1, proposal.Chunks) // the first 60 are still to be had, the rest not
	request(3, []msg.ChunkID{99, 99, 7})
	eng.Run(20 * time.Millisecond)
	if len(served[1]) != 100 || len(served[2]) != 100 || len(served[3]) != 2 {
		t.Fatalf("served %d/%d/%d chunks, want 100/100/2", len(served[1]), len(served[2]), len(served[3]))
	}
	seen := make(map[msg.ChunkID]bool)
	for _, c := range served[1] {
		if seen[c] {
			t.Fatalf("chunk %d served twice to one partner", c)
		}
		seen[c] = true
	}
}

func TestRequestForSupersededOrForgottenProposalIgnored(t *testing.T) {
	cfg := testConfig()
	cfg.F = 1
	cfg.HistoryPeriods = 5
	eng, netw, node := soloNode(t, cfg, 1)
	serves := 0
	netw.Attach(1, handlerFunc(func(_ msg.NodeID, m msg.Message) {
		if _, ok := m.(*msg.Serve); ok {
			serves++
		}
	}))
	request := func(period msg.Period, c msg.ChunkID) int {
		before := serves
		netw.Send(1, 0, &msg.Request{Sender: 1, Period: period, Chunks: []msg.ChunkID{c}}, net.Unreliable)
		eng.Run(eng.Now() + 10*time.Millisecond)
		return serves - before
	}
	inject(node, 1)
	node.Start()
	eng.Run(10 * time.Millisecond) // period 1 proposes chunk 1
	inject(node, 2)
	eng.Run(110 * time.Millisecond) // period 2 proposes chunk 2
	if got := request(1, 1); got != 0 {
		t.Fatal("a request naming a proposal that a later one superseded was served")
	}
	if got := request(2, 1); got != 0 {
		t.Fatal("a chunk of an earlier proposal was served under the later one")
	}
	if got := request(2, 2); got != 1 {
		t.Fatalf("the last proposal was served %d times, want 1", got)
	}
	// Nothing more is proposed; period 2 leaves the ring after nh periods.
	inject(node, 3)
	eng.Run(610 * time.Millisecond) // period 7 is running: 7 − 3 < nh, 7 − 2 = nh
	if got := request(3, 3); got != 1 {
		t.Fatalf("a proposal inside the retention window was served %d times, want 1", got)
	}
	inject(node, 4)
	eng.Run(1210 * time.Millisecond) // period 8 proposed chunk 4; period 13 is running
	if got := request(8, 4); got != 0 {
		t.Fatal("a proposal nh periods old was still served")
	}
}

// proposalsHeld counts the (phase, partner) records a node keeps, and the
// most chunks one of them advertised. They are its log's fanout entries: the
// serve rule reads the proposals there.
func proposalsHeld(n *Node) (held, widest int) {
	for _, r := range n.deps.History.Proposals(0) {
		held++
		widest = max(widest, len(r.Chunks))
	}
	return held, widest
}

// TestFloodOfUnservedIdsIsBounded has a hostile proposer advertise 50 000
// distinct chunk ids it never serves, 500 a period: the victim's want table
// stays within its cap, its have set does not grow at all, and a chunk
// honestly proposed in the middle of the flood is still requested and taken.
func TestFloodOfUnservedIdsIsBounded(t *testing.T) {
	cfg := testConfig()
	eng, netw, victim := soloNode(t, cfg, 2)
	limit := wantCapFor(cfg)
	if limit != 4*4*50 {
		t.Fatalf("want cap = %d, want f·|R|·nh = 800", limit)
	}
	netw.Attach(1, handlerFunc(func(msg.NodeID, msg.Message) {})) // never serves
	const legit = msg.ChunkID(77)
	netw.Attach(2, handlerFunc(func(_ msg.NodeID, m msg.Message) {
		if r, ok := m.(*msg.Request); ok {
			for _, c := range r.Chunks {
				netw.Send(2, 0, serveOf(2, r.Period, c), net.Unreliable)
			}
		}
	}))
	victim.Start()
	const periods, perPeriod = 100, 500
	next := msg.ChunkID(1 << 20)
	maxLive := 0
	for p := 1; p <= periods; p++ {
		ids := make([]msg.ChunkID, perPeriod)
		for i := range ids {
			ids[i], next = next, next+1
		}
		if p == 1 {
			ids[0] = ^msg.ChunkID(0)
		}
		netw.Send(1, 0, &msg.Propose{Sender: 1, Period: msg.Period(p), Chunks: ids}, net.Unreliable)
		if p == periods/2 {
			netw.Send(2, 0, &msg.Propose{Sender: 2, Period: msg.Period(p), Chunks: []msg.ChunkID{legit}}, net.Unreliable)
		}
		eng.Run(time.Duration(p) * cfg.Period)
		maxLive = max(maxLive, len(victim.wants.index))
		if len(victim.wants.index) > limit || len(victim.wants.slab) > limit {
			t.Fatalf("period %d: %d wants in %d records, cap %d", p, len(victim.wants.index), len(victim.wants.slab), limit)
		}
	}
	if maxLive != limit {
		t.Fatalf("the flood filled the table to %d of %d: not a flood", maxLive, limit)
	}
	if !victim.Have(legit) {
		t.Fatal("the chunk honestly proposed during the flood was not taken")
	}
	if victim.ChunkCount() != 1 || victim.Have(^msg.ChunkID(0)) {
		t.Fatalf("victim holds %d chunks, want the honest one only", victim.ChunkCount())
	}
	// One word covers chunk 77 and its neighbours; nothing advertised and
	// never served may grow the set.
	if bytes := 8 * len(victim.have.bits); bytes > 8*(int(legit)/64+1) || len(victim.have.far) != 0 {
		t.Fatalf("have set takes %d bytes and %d sparse ids", bytes, len(victim.have.far))
	}
	// Once the flood stops the table drains by age.
	eng.Run(time.Duration(periods+cfg.HistoryPeriods+1) * cfg.Period)
	if len(victim.wants.index) != 0 {
		t.Fatalf("%d wants left nh periods after the flood", len(victim.wants.index))
	}
}

// TestSteadyStateIsBoundedByProtocolParameters streams 800 chunks through a
// lossy 200-period run and checks that what a node keeps is bounded by f, nh
// and |R| — all far below the number of chunks streamed.
func TestSteadyStateIsBoundedByProtocolParameters(t *testing.T) {
	cfg := testConfig()
	cfg.HistoryPeriods = 10
	const periods, perPeriod = 200, 4
	w := newWorld(t, 20, cfg, 0.05)
	for c := 0; c < periods*perPeriod; c++ {
		c := msg.ChunkID(c)
		w.eng.After(time.Duration(c)*cfg.Period/perPeriod, func() { inject(w.nodes[0], c) })
	}
	w.eng.Run(time.Duration(periods+5) * cfg.Period)
	limit := wantCapFor(cfg) // 4·4·10 = 160
	for id, n := range w.nodes {
		if got := n.ChunkCount(); got < periods*perPeriod*95/100 {
			t.Fatalf("node %d holds %d of %d chunks: dissemination broke", id, got, periods*perPeriod)
		}
		live, records := len(n.wants.index), len(n.wants.slab)
		if live > limit || records-live > limit {
			t.Errorf("node %d: %d wants and %d free records, bound f·|R|·nh = %d", id, live, records-live, limit)
		}
		held, widest := proposalsHeld(n)
		if held > cfg.F*cfg.HistoryPeriods {
			t.Errorf("node %d remembers %d proposals, bound f·nh = %d", id, held, cfg.F*cfg.HistoryPeriods)
		}
		if len(n.phases) != cfg.HistoryPeriods {
			t.Errorf("node %d: ring of %d phases, want nh = %d", id, len(n.phases), cfg.HistoryPeriods)
		}
		// The ring holds serve-once bits only: a slot is one bitset of
		// ⌈f·|advertised|/64⌉ words, however many proposals went through it.
		for i := range n.phases {
			if words := len(n.phases[i].consumed); words > (cfg.F*widest+63)/64 {
				t.Errorf("node %d: ring slot %d holds %d words, bound ⌈f·%d/64⌉", id, i, words, widest)
			}
		}
		if len(n.have.far) != 0 || 64*len(n.have.bits) > periods*perPeriod+64 {
			t.Errorf("node %d: have set of %d words and %d sparse ids for %d dense ids", id, len(n.have.bits), len(n.have.far), periods*perPeriod)
		}
		if cap(n.pendingFrom) > 64 || cap(n.fanin) > 64 || cap(n.servers) > 64 {
			t.Errorf("node %d: per-period scratch grew to %d/%d/%d entries", id, cap(n.pendingFrom), cap(n.fanin), cap(n.servers))
		}
	}
}

// requestTimes is a Monitor that notes when each request was sent.
type requestTimes struct {
	NopMonitor
	now func() time.Duration
	at  []time.Duration
}

func (r *requestTimes) OnRequestSent(msg.NodeID, msg.Period, []msg.ChunkID) {
	r.at = append(r.at, r.now())
}

// TestRetryQueueHoldsTheRequestsOfOneRetryTimeout floods a node for one
// period with proposals of ids nobody serves — 400 of them, each answered
// with a request — and checks the bound of the retry queue: it holds exactly
// the requests sent in the last RequestRetry, one 32-byte record each
// whatever the request's size, is empty one RequestRetry after the flood, and
// is let go of, ring and all, by Stop. (That a lapsed record's place pins
// nothing, and that the ring — which never shrinks — ends within a quarter of
// the most records ever open, are sim.Deadlines' own tests: this flood leaves
// the node some 220 places, 7 KB.)
func TestRetryQueueHoldsTheRequestsOfOneRetryTimeout(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	sent := &requestTimes{now: func() time.Duration { return eng.NodeNow(0) }}
	victim := NewNode(0, cfg, shipped(cfg, Deps{Ctx: eng.Domain(0), Net: netw, Dir: membership.Sequential(2), Rand: rng.New(3), Monitor: sent}))
	netw.Attach(0, victim)
	netw.Attach(1, handlerFunc(func(msg.NodeID, msg.Message) {})) // never serves
	victim.Start()

	const proposals = 400
	next := msg.ChunkID(1 << 20)
	flood := func() { // one period of it, from now
		for i := 0; i < proposals; i++ {
			ids := []msg.ChunkID{next, next + 1, next + 2}
			next += 3
			eng.After(time.Duration(i)*cfg.Period/proposals, func() {
				netw.Send(1, 0, &msg.Propose{Sender: 1, Period: 1, Chunks: ids}, net.Unreliable)
			})
		}
	}
	retry := cfg.Period / 2 // the default RequestRetry
	flood()
	for _, probe := range []time.Duration{cfg.Period / 4, cfg.Period * 3 / 4, cfg.Period} {
		eng.Run(probe)
		open := 0
		for _, at := range sent.at {
			if at+retry > probe {
				open++
			}
		}
		if got := victim.retries.Pending(); got != open || open < proposals/5 {
			t.Fatalf("at %v the retry queue holds %d requests, want the %d sent since %v (at least %d)", probe, got, open, probe-retry, proposals/5)
		}
	}
	eng.Run(cfg.Period + retry + 2*time.Millisecond)
	if len(sent.at) != proposals || victim.retries.Pending() != 0 {
		t.Fatalf("%d requests sent for %d proposals, %d still queued one RequestRetry after the last", len(sent.at), proposals, victim.retries.Pending())
	}
	if size := unsafe.Sizeof(sentRequest{}); size != 32 {
		t.Fatalf("a queued request takes %d bytes, DESIGN.md says 32", size)
	}

	// Stopped in mid-flood, the node forgets its requests at once, and the
	// timers armed for them find nothing.
	flood()
	eng.Run(eng.Now() + cfg.Period/4)
	if victim.retries.Pending() == 0 {
		t.Fatal("no request queued in mid-flood")
	}
	victim.Stop()
	if victim.retries.Pending() != 0 {
		t.Fatalf("%d requests queued after Stop", victim.retries.Pending())
	}
	before := len(sent.at)
	eng.Run(eng.Now() + 2*cfg.Period)
	if len(sent.at) != before {
		t.Fatalf("a stopped node sent %d requests", len(sent.at)-before)
	}
}
