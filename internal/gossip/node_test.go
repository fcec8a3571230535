package gossip

import (
	"slices"
	"testing"
	"time"

	"lifting/internal/content"
	"lifting/internal/history"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

func testConfig() Config {
	return Config{
		F:              4,
		Period:         100 * time.Millisecond,
		ChunkPayload:   1000,
		HistoryPeriods: 50,
	}
}

// testSource is the stream every node of this package's tests injects and
// serves: its payloads are what a chunk store holds and a receiver verifies.
var testSource = content.NewSource(7, testConfig().ChunkPayload)

// shipped completes d with what cluster.New gives every node and these tests
// have no reason to vary — an honest behaviour, an accountability log of
// cfg's retention, a chunk store, a set of send blocks, a collector and an
// arrival callback — keeping whatever d already sets.
func shipped(cfg Config, d Deps) Deps {
	if d.Behavior == nil {
		d.Behavior = Honest{}
	}
	if d.History == nil {
		d.History = history.NewLog(cfg.HistoryPeriods)
	}
	if d.Store == nil {
		d.Store = content.NewStore(0)
	}
	if d.Sends == nil {
		d.Sends = new(msg.Sends)
	}
	if d.Metrics == nil {
		d.Metrics = metrics.NewCollector()
	}
	if d.OnChunk == nil {
		d.OnChunk = func(msg.ChunkID, time.Duration) {}
	}
	return d
}

// inject hands n chunk c of testSource, as the stream source does.
func inject(n *Node, c msg.ChunkID) {
	payload, hash := testSource.Chunk(c)
	n.InjectChunkData(c, payload, hash)
}

// serveOf is a serve of chunk c of testSource, payload and hash included.
func serveOf(sender msg.NodeID, period msg.Period, c msg.ChunkID) *msg.Serve {
	payload, hash := testSource.Chunk(c)
	return &msg.Serve{Sender: sender, Period: period, Chunk: c, PayloadSize: len(payload), Hash: hash, Payload: payload}
}

// world is a small deterministic gossip system for tests.
type world struct {
	eng   *sim.Engine
	netw  *net.SimNet
	dir   *membership.Directory
	nodes map[msg.NodeID]*Node
	col   *metrics.Collector
}

func newWorld(t *testing.T, n int, cfg Config, loss float64) *world {
	t.Helper()
	w := &world{
		eng:   sim.NewEngine(),
		dir:   membership.Sequential(n),
		nodes: make(map[msg.NodeID]*Node, n),
		col:   metrics.NewCollector(),
	}
	root := rng.New(42)
	w.netw = net.NewSimNet(w.eng, root.Derive("net"), w.col, net.Uniform(loss, time.Millisecond))
	for i := 0; i < n; i++ {
		id := msg.NodeID(i)
		node := NewNode(id, cfg, shipped(cfg, Deps{
			Ctx:     w.eng.Domain(i),
			Net:     w.netw,
			Dir:     w.dir,
			Rand:    root.ForNode(uint32(i)),
			Metrics: w.col,
		}))
		w.nodes[id] = node
		w.netw.Attach(id, node)
		node.Start()
	}
	return w
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
	bad := []Config{
		{F: 0, Period: time.Second, HistoryPeriods: 1},
		{F: 1, Period: 0, HistoryPeriods: 1},
		{F: 1, Period: time.Second, HistoryPeriods: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewNodePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNode with invalid config did not panic")
		}
	}()
	NewNode(1, Config{}, Deps{})
}

func TestDisseminationReachesEveryone(t *testing.T) {
	w := newWorld(t, 40, testConfig(), 0)
	inject(w.nodes[0], 7)
	w.eng.Run(3 * time.Second)
	for id, n := range w.nodes {
		if !n.Have(7) {
			t.Fatalf("node %d never received the chunk", id)
		}
	}
}

func TestDisseminationUnderLoss(t *testing.T) {
	// With 7% loss and fanout 6 (≈ ln 60 + margin), a single chunk still
	// reaches nearly all of the system thanks to gossip redundancy.
	cfg := testConfig()
	cfg.F = 6
	w := newWorld(t, 60, cfg, 0.07)
	inject(w.nodes[0], 1)
	w.eng.Run(4 * time.Second)
	got := 0
	for _, n := range w.nodes {
		if n.Have(1) {
			got++
		}
	}
	if got < 55 {
		t.Fatalf("only %d/60 nodes received the chunk under 7%% loss", got)
	}
}

func TestInfectAndDie(t *testing.T) {
	// A chunk is proposed exactly once by each node: once the whole system
	// has it, propose traffic for it stops.
	w := newWorld(t, 10, testConfig(), 0)
	inject(w.nodes[0], 3)
	w.eng.Run(2 * time.Second)
	sent := w.col.SentMsgs(msg.KindPropose)
	w.eng.Run(4 * time.Second)
	if more := w.col.SentMsgs(msg.KindPropose); more != sent {
		t.Fatalf("proposals kept flowing after quiescence: %d → %d", sent, more)
	}
	// Every node proposed the chunk at most once: at most n·f proposals.
	if sent > 10*4 {
		t.Fatalf("more proposals (%d) than infect-and-die allows (%d)", sent, 40)
	}
}

func TestInjectDuplicateIgnored(t *testing.T) {
	w := newWorld(t, 5, testConfig(), 0)
	inject(w.nodes[0], 1)
	inject(w.nodes[0], 1)
	if w.nodes[0].ChunkCount() != 1 {
		t.Fatal("duplicate injection created a second chunk")
	}
}

func TestRequestOnlyMissingChunks(t *testing.T) {
	// A node that already has a chunk must not request it again.
	cfg := testConfig()
	w := newWorld(t, 6, cfg, 0)
	for id := range w.nodes {
		inject(w.nodes[id], 5) // everyone already has it
	}
	w.eng.Run(time.Second)
	if w.col.SentMsgs(msg.KindRequest) != 0 {
		t.Fatalf("nodes requested a chunk everyone already has (%d requests)", w.col.SentMsgs(msg.KindRequest))
	}
}

// A proposal's missing chunks are requested in one request, however many
// there are: |R| is the proposal's, not a setting.
func TestRequestEveryMissingChunk(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	dir := membership.Sequential(2)
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	var requested []msg.ChunkID
	receiver := NewNode(1, cfg, shipped(cfg, Deps{Ctx: eng.Domain(1), Net: netw, Dir: dir, Rand: rng.New(2)}))
	netw.Attach(1, receiver)
	netw.Attach(0, handlerFunc(func(from msg.NodeID, m msg.Message) {
		if r, ok := m.(*msg.Request); ok {
			requested = r.Chunks
		}
	}))
	netw.Send(0, 1, &msg.Propose{Sender: 0, Period: 1, Chunks: []msg.ChunkID{1, 2, 3, 4, 5}}, net.Unreliable)
	eng.RunAll()
	if !slices.Equal(requested, []msg.ChunkID{1, 2, 3, 4, 5}) {
		t.Fatalf("requested %v, want all five proposed chunks", requested)
	}
}

type handlerFunc func(from msg.NodeID, m msg.Message)

func (f handlerFunc) HandleMessage(from msg.NodeID, m msg.Message) { f(from, m) }

func TestServeOnlyProposedAndRequested(t *testing.T) {
	// A request not matching a proposal is ignored; a request for chunks
	// outside P ∩ R serves only the intersection.
	cfg := testConfig()
	eng := sim.NewEngine()
	dir := membership.Sequential(2)
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	var served []msg.ChunkID
	server := NewNode(0, cfg, shipped(cfg, Deps{Ctx: eng.Domain(0), Net: netw, Dir: dir, Rand: rng.New(3)}))
	netw.Attach(0, server)
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		if s, ok := m.(*msg.Serve); ok {
			served = append(served, s.Chunk)
		}
	}))
	// No proposal was ever sent: the request must be dropped (§4.2).
	netw.Send(1, 0, &msg.Request{Sender: 1, Period: 1, Chunks: []msg.ChunkID{9}}, net.Unreliable)
	eng.RunAll()
	if len(served) != 0 {
		t.Fatalf("server honored a request without a proposal: %v", served)
	}
}

func TestServeIntersectionOnly(t *testing.T) {
	// Build a 2-node world where node 0 proposes {1,2} and node 1 requests
	// {1,2,99}: only {1,2} may be served.
	cfg := testConfig()
	cfg.F = 1
	eng := sim.NewEngine()
	dir := membership.Sequential(2)
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	server := NewNode(0, cfg, shipped(cfg, Deps{Ctx: eng.Domain(0), Net: netw, Dir: dir, Rand: rng.New(3)}))
	netw.Attach(0, server)
	var served []msg.ChunkID
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		switch v := m.(type) {
		case *msg.Propose:
			// Request more than proposed.
			netw.Send(1, 0, &msg.Request{Sender: 1, Period: v.Period, Chunks: append(v.Chunks, 99)}, net.Unreliable)
		case *msg.Serve:
			served = append(served, v.Chunk)
		}
	}))
	inject(server, 1)
	inject(server, 2)
	server.Start()
	eng.Run(time.Second)
	if len(served) != 2 {
		t.Fatalf("served %v, want exactly chunks 1 and 2", served)
	}
	for _, c := range served {
		if c != 1 && c != 2 {
			t.Fatalf("served unproposed chunk %d", c)
		}
	}
}

func TestDuplicateRequestIgnored(t *testing.T) {
	cfg := testConfig()
	cfg.F = 1
	eng := sim.NewEngine()
	dir := membership.Sequential(2)
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	server := NewNode(0, cfg, shipped(cfg, Deps{Ctx: eng.Domain(0), Net: netw, Dir: dir, Rand: rng.New(3)}))
	netw.Attach(0, server)
	serves := 0
	netw.Attach(1, handlerFunc(func(from msg.NodeID, m msg.Message) {
		switch v := m.(type) {
		case *msg.Propose:
			netw.Send(1, 0, &msg.Request{Sender: 1, Period: v.Period, Chunks: v.Chunks}, net.Unreliable)
			netw.Send(1, 0, &msg.Request{Sender: 1, Period: v.Period, Chunks: v.Chunks}, net.Unreliable)
		case *msg.Serve:
			serves++
		}
	}))
	inject(server, 1)
	server.Start()
	eng.Run(time.Second)
	if serves != 1 {
		t.Fatalf("duplicate request served %d times, want 1", serves)
	}
}

func TestUnsolicitedServeRejected(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	dir := membership.Sequential(2)
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	node := NewNode(0, cfg, shipped(cfg, Deps{Ctx: eng.Domain(0), Net: netw, Dir: dir, Rand: rng.New(3)}))
	netw.Attach(0, node)
	netw.Attach(1, handlerFunc(func(msg.NodeID, msg.Message) {}))
	netw.Send(1, 0, serveOf(1, 1, 77), net.Unreliable)
	eng.RunAll()
	if node.Have(77) {
		t.Fatal("node accepted an unsolicited chunk")
	}
}

func TestStopHaltsNode(t *testing.T) {
	w := newWorld(t, 10, testConfig(), 0)
	w.nodes[3].Stop()
	inject(w.nodes[0], 1)
	w.eng.Run(3 * time.Second)
	if w.nodes[3].Have(1) {
		t.Fatal("stopped node still received a chunk")
	}
	if !w.nodes[3].Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestHistoryRecordsFanoutAndFanin(t *testing.T) {
	w := newWorld(t, 20, testConfig(), 0)
	inject(w.nodes[0], 1)
	w.eng.Run(2 * time.Second)
	// Node 0 proposed to F partners in its first phase.
	if got := len(w.nodes[0].History().Proposals(0)); got != testConfig().F {
		t.Fatalf("source fanout history has %d entries, want %d", got, testConfig().F)
	}
	// Some node received the chunk and has a fanin record naming a server.
	found := false
	for id, n := range w.nodes {
		if id == 0 {
			continue
		}
		if len(n.History().Serves(0)) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no node recorded a fanin entry")
	}
}

func TestOnChunkCallback(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	dir := membership.Sequential(2)
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	var gotChunk msg.ChunkID
	var gotAt time.Duration
	node := NewNode(1, cfg, shipped(cfg, Deps{
		Ctx: eng.Domain(1), Net: netw, Dir: dir, Rand: rng.New(2),
		OnChunk: func(c msg.ChunkID, at time.Duration) { gotChunk, gotAt = c, at },
	}))
	netw.Attach(1, node)
	netw.Attach(0, handlerFunc(func(msg.NodeID, msg.Message) {}))
	netw.Send(0, 1, &msg.Propose{Sender: 0, Period: 1, Chunks: []msg.ChunkID{5}}, net.Unreliable)
	eng.After(10*time.Millisecond, func() {
		netw.Send(0, 1, serveOf(0, 1, 5), net.Unreliable)
	})
	eng.RunAll()
	if gotChunk != 5 {
		t.Fatalf("OnChunk chunk = %d, want 5", gotChunk)
	}
	if gotAt < 10*time.Millisecond {
		t.Fatalf("OnChunk time = %v, want >= 10ms", gotAt)
	}
}

type recordingMonitor struct {
	proposePhases int
	requests      int
	servesSeen    int
	servesInvalid int
	served        int
	stops         int
}

func (r *recordingMonitor) OnProposePhase(msg.Period, []msg.NodeID, []msg.ChunkID, []msg.ServeRecord) {
	r.proposePhases++
}
func (r *recordingMonitor) OnRequestSent(msg.NodeID, msg.Period, []msg.ChunkID) { r.requests++ }
func (r *recordingMonitor) OnServeReceived(msg.NodeID, msg.ChunkID)             { r.servesSeen++ }
func (r *recordingMonitor) OnServeInvalid(msg.NodeID, msg.ChunkID)              { r.servesInvalid++ }
func (r *recordingMonitor) OnServed(msg.NodeID, msg.Period, []msg.ChunkID)      { r.served++ }
func (r *recordingMonitor) OnStop()                                             { r.stops++ }

func TestMonitorHooksFire(t *testing.T) {
	cfg := testConfig()
	cfg.F = 1
	eng := sim.NewEngine()
	dir := membership.Sequential(2)
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	mon0 := &recordingMonitor{}
	mon1 := &recordingMonitor{}
	n0 := NewNode(0, cfg, shipped(cfg, Deps{Ctx: eng.Domain(0), Net: netw, Dir: dir, Rand: rng.New(2), Monitor: mon0}))
	n1 := NewNode(1, cfg, shipped(cfg, Deps{Ctx: eng.Domain(1), Net: netw, Dir: dir, Rand: rng.New(3), Monitor: mon1}))
	netw.Attach(0, n0)
	netw.Attach(1, n1)
	inject(n0, 9)
	n0.Start()
	n1.Start()
	eng.Run(500 * time.Millisecond)
	if mon0.proposePhases == 0 {
		t.Fatal("OnProposePhase never fired on the proposer")
	}
	if mon0.served == 0 {
		t.Fatal("OnServed never fired on the server")
	}
	if mon1.requests == 0 {
		t.Fatal("OnRequestSent never fired on the requester")
	}
	if mon1.servesSeen == 0 {
		t.Fatal("OnServeReceived never fired on the receiver")
	}
	if mon0.stops != 0 {
		t.Fatal("OnStop fired on a running node")
	}
	n0.Stop()
	if mon0.stops != 1 || mon1.stops != 0 {
		t.Fatalf("OnStop fired %d times on the stopped node and %d on the running one; want 1 and 0", mon0.stops, mon1.stops)
	}
}

func TestPeriodStretchBehavior(t *testing.T) {
	// A behavior with PeriodFactor 2 halves the number of propose phases.
	cfg := testConfig()
	eng := sim.NewEngine()
	dir := membership.Sequential(2)
	netw := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	monH := &recordingMonitor{}
	monS := &recordingMonitor{}
	honest := NewNode(0, cfg, shipped(cfg, Deps{Ctx: eng.Domain(0), Net: netw, Dir: dir, Rand: rng.New(2), Monitor: monH}))
	stretch := NewNode(1, cfg, shipped(cfg, Deps{Ctx: eng.Domain(1), Net: netw, Dir: dir, Rand: rng.New(3), Monitor: monS, Behavior: stretchBehavior{}}))
	netw.Attach(0, honest)
	netw.Attach(1, stretch)
	honest.Start()
	stretch.Start()
	eng.Run(2 * time.Second)
	if monS.proposePhases >= monH.proposePhases {
		t.Fatalf("stretched node ran %d phases, honest %d", monS.proposePhases, monH.proposePhases)
	}
}

type stretchBehavior struct{ Honest }

func (stretchBehavior) PeriodFactor() float64 { return 2 }

func TestDeterministicDissemination(t *testing.T) {
	run := func() uint64 {
		w := newWorld(t, 30, testConfig(), 0.05)
		inject(w.nodes[0], 1)
		w.eng.Run(2 * time.Second)
		return w.col.SentMsgs(msg.KindPropose) + w.col.SentMsgs(msg.KindServe)*1000
	}
	if run() != run() {
		t.Fatal("two identical runs diverged")
	}
}

func TestContentPlaneDissemination(t *testing.T) {
	// Real payload bytes reach every node and verify against the source's
	// hashes; goodput accounts for each first copy.
	w := newWorld(t, 20, testConfig(), 0)
	inject(w.nodes[0], 9)
	payload, hash := testSource.Chunk(9)
	w.eng.Run(3 * time.Second)
	for id, n := range w.nodes {
		got, gotHash, ok := n.Store().Get(9)
		if !ok {
			t.Fatalf("node %d has no stored payload for chunk 9", id)
		}
		if gotHash != hash || !content.Verify(got, hash) {
			t.Fatalf("node %d stored an invalid payload", id)
		}
	}
	if g := w.col.GoodputBytes(); g != uint64(len(payload))*19 {
		t.Fatalf("goodput = %d, want %d", g, uint64(len(payload))*19)
	}
	if w.col.InvalidServes() != 0 {
		t.Fatalf("invalid serves = %d, want 0", w.col.InvalidServes())
	}
}

func TestInvalidServeRejectedAndBlamed(t *testing.T) {
	// A serve with a corrupted (or missing) payload must be rejected — the
	// chunk stays missing, the monitor hears about it, and the outstanding
	// request survives so the retry path can recover from another proposer —
	// whether the node hashes every payload or shares a verified-once table
	// in which a neighbour already holds the canonical slice.
	t.Run("hash every payload", func(t *testing.T) { invalidServeRejectedAndBlamed(t, nil) })
	t.Run("verified-once table", func(t *testing.T) { invalidServeRejectedAndBlamed(t, content.NewStore(0)) })
}

func invalidServeRejectedAndBlamed(t *testing.T, verified *content.Store) {
	cfg := testConfig()
	eng := sim.NewEngine()
	col := metrics.NewCollector()
	netw := net.NewSimNet(eng, rng.New(1), col, net.Uniform(0, time.Millisecond))
	mon := &recordingMonitor{}
	r := NewNode(0, cfg, shipped(cfg, Deps{
		Ctx:          eng.Domain(0),
		Net:          netw,
		Dir:          membership.Sequential(3),
		Rand:         rng.New(2),
		Monitor:      mon,
		Metrics:      col,
		VerifiedOnce: verified,
	}))
	netw.Attach(0, r)

	payload, hash := testSource.Chunk(5)
	if !verified.Verified(5, payload, hash) {
		t.Fatal("the canonical payload fails its own hash")
	}
	r.HandleMessage(1, &msg.Propose{Sender: 1, Period: 1, Chunks: []msg.ChunkID{5}, Origins: []msg.NodeID{1}})

	// Corrupted bytes under the right hash.
	corrupt := append([]byte(nil), payload...)
	corrupt[0] ^= 0xFF
	r.HandleMessage(1, &msg.Serve{Sender: 1, Period: 1, Chunk: 5, PayloadSize: len(corrupt), Hash: hash, Payload: corrupt})
	// A payload-less serve (store miss on the server side).
	r.HandleMessage(1, &msg.Serve{Sender: 1, Period: 1, Chunk: 5, PayloadSize: cfg.ChunkPayload})
	if r.Have(5) {
		t.Fatal("node accepted an invalid payload")
	}
	if mon.servesInvalid != 2 {
		t.Fatalf("OnServeInvalid fired %d times, want 2", mon.servesInvalid)
	}
	if col.InvalidServes() != 2 {
		t.Fatalf("invalid serves = %d, want 2", col.InvalidServes())
	}

	// The request record must survive rejection: the same server can redeem
	// itself (or a retry can go elsewhere) and the chunk is then accepted.
	r.HandleMessage(1, &msg.Serve{Sender: 1, Period: 1, Chunk: 5, PayloadSize: len(payload), Hash: hash, Payload: payload})
	if !r.Have(5) {
		t.Fatal("node rejected a valid payload after an invalid one")
	}
	if got, _, ok := r.Store().Get(5); !ok || !content.Verify(got, hash) {
		t.Fatal("accepted payload not stored")
	}
	if mon.servesSeen != 1 {
		t.Fatalf("OnServeReceived fired %d times, want 1", mon.servesSeen)
	}
	if col.GoodputBytes() != uint64(len(payload)) {
		t.Fatalf("goodput = %d, want %d", col.GoodputBytes(), len(payload))
	}
}
