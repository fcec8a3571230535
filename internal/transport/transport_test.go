package transport

import (
	gonet "net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
)

// collect is a handler that records everything delivered to a node.
type collect struct {
	mu   sync.Mutex
	got  []msg.Message
	from []msg.NodeID
}

func (c *collect) HandleMessage(from msg.NodeID, m msg.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, m)
	c.from = append(c.from, from)
}

func (c *collect) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSendReceiveOverRealSockets(t *testing.T) {
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll})
	defer rt.Close()

	sink := &collect{}
	rt.Attach(1, nil) // binds node 1's socket
	rt.Attach(2, sink)

	sent := &msg.Propose{Sender: 1, Period: 3, Chunks: []msg.ChunkID{7, 8}}
	rt.Send(1, 2, sent, net.Unreliable)
	waitFor(t, "delivery", func() bool { return sink.count() > 0 })

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.from[0] != 1 {
		t.Errorf("delivered from %d, want 1", sink.from[0])
	}
	got, ok := sink.got[0].(*msg.Propose)
	if !ok || got.Period != sent.Period || len(got.Chunks) != 2 {
		t.Errorf("delivered %#v, want %#v", sink.got[0], sent)
	}
	if coll.SentMsgs(msg.KindPropose) != 1 {
		t.Errorf("collector counted %d proposes", coll.SentMsgs(msg.KindPropose))
	}
}

// A receiver counts each message at the size its sender did — its
// WireSize — taken from the bytes it decoded, not from walking the message
// again: two messages sharing one callback's datagram, and a message too
// big for any frame, which travels as a fragment train.
func TestReceivedBytesAreWireSizes(t *testing.T) {
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll})
	defer rt.Close()
	sink := &collect{}
	rt.Attach(1, nil)
	rt.Attach(2, sink)

	propose := &msg.Propose{Sender: 1, Period: 3, Chunks: []msg.ChunkID{7, 8, 9}, Origins: []msg.NodeID{4, 5, 6}}
	blame := &msg.Blame{Sender: 1, Target: 5, Value: 2.5, Reason: msg.ReasonPartialServe}
	audit := &msg.AuditResp{Sender: 1}
	for p := range 400 {
		audit.Proposals = append(audit.Proposals, msg.ProposalRecord{Period: msg.Period(p), Partner: 3, Chunks: make([]msg.ChunkID, 40)})
	}
	if audit.WireSize() <= msg.MaxFramePayload {
		t.Fatalf("the audit response is %d bytes, want one past a frame", audit.WireSize())
	}
	rt.Exec(1, func() {
		rt.Send(1, 2, propose, net.Unreliable)
		rt.Send(1, 2, blame, net.Unreliable)
	})
	rt.Send(1, 2, audit, net.Reliable)
	waitFor(t, "delivery", func() bool { return sink.count() == 3 })
	for _, m := range []msg.Message{propose, blame, audit} {
		if got, want := coll.RecvBytes(m.Kind()), uint64(m.WireSize()); got != want || coll.SentBytes(m.Kind()) != want {
			t.Errorf("%v: sent %d bytes, received %d, want %d each", m.Kind(), coll.SentBytes(m.Kind()), got, want)
		}
	}
}

// TestCrossRuntimeDelivery is the daemon shape: two runtimes in this process
// (standing in for two OS processes), each knowing the other only through
// a bootstrap seed.
func TestCrossRuntimeDelivery(t *testing.T) {
	bookA, bookB := NewBook(), NewBook()
	a := New(Options{Seed: 1, Book: bookA})
	b := New(Options{Seed: 2, Book: bookB})
	defer a.Close()
	defer b.Close()

	addrB, err := b.AddNode(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, err := a.AddNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bookA.SetAddr(2, addrB)
	bookB.SetAddr(1, addrA)

	sinkA, sinkB := &collect{}, &collect{}
	a.Attach(1, sinkA)
	b.Attach(2, sinkB)

	a.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 9}, net.Unreliable)
	waitFor(t, "forward delivery", func() bool { return sinkB.count() > 0 })

	b.Send(2, 1, &msg.ScoreResp{Sender: 2, Target: 9, Score: -1.5}, net.Unreliable)
	waitFor(t, "reply", func() bool { return sinkA.count() > 0 })
}

// TestSharedBook is the single-process cluster shape: many runtimes (or one)
// sharing an address book discover each other with no explicit seeding.
func TestSharedBook(t *testing.T) {
	book := NewBook()
	a := New(Options{Seed: 1, Book: book})
	b := New(Options{Seed: 2, Book: book})
	defer a.Close()
	defer b.Close()

	sink := &collect{}
	a.Attach(1, nil)
	b.Attach(2, sink)

	a.Send(1, 2, &msg.Blame{Sender: 1, Target: 3, Value: 2}, net.Unreliable)
	waitFor(t, "delivery through shared book", func() bool { return sink.count() > 0 })
}

// TestMalformedDatagramsIgnored blasts garbage at a node's socket: nothing
// may crash, and real traffic must keep flowing afterwards.
func TestMalformedDatagramsIgnored(t *testing.T) {
	book := NewBook()
	rt := New(Options{Seed: 1, Book: book})
	defer rt.Close()
	sink := &collect{}
	rt.Attach(1, nil)
	rt.Attach(2, sink)
	addr, _ := book.Lookup(2)

	raw, err := gonet.DialUDP("udp", nil, gonet.UDPAddrFromAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	payloads := [][]byte{
		{},
		{0x00},
		[]byte("not a frame at all, definitely longer than a header"),
		{'L', 'F', 99, 0, 0, 0, 0, 0, 0, 0},                    // bad version
		{'L', 'F', 1, 0, 0xFF, 0xFF, 0, 0, 0, 0},               // length lies
		{'L', 'F', 1, 0, 0, 1, 0, 0, 0, 0, 0xEE},               // checksum lies
		append([]byte{'L', 'F', 1, 0, 0, 2, 0, 0, 0, 0}, 1, 2), // valid-ish frame, garbage payload
	}
	for _, p := range payloads {
		if _, err := raw.Write(p); err != nil {
			t.Fatal(err)
		}
	}

	rt.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 4}, net.Unreliable)
	waitFor(t, "valid message after garbage", func() bool { return sink.count() > 0 })
	if got := sink.count(); got != 1 {
		t.Errorf("delivered %d messages, want exactly the valid one", got)
	}
}

func TestSetDownDropsTraffic(t *testing.T) {
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll})
	defer rt.Close()
	sink := &collect{}
	rt.Attach(1, nil)
	rt.Attach(2, sink)

	// Send decides the drop itself: nothing reaches the socket, so there is
	// nothing to wait for.
	rt.SetDown(2, true)
	rt.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 4}, net.Unreliable)
	if got := coll.Dropped(msg.KindScoreReq); got != 1 {
		t.Fatalf("%d drops accounted, want 1", got)
	}

	rt.SetDown(2, false)
	rt.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 4}, net.Unreliable)
	waitFor(t, "delivery after coming back up", func() bool { return sink.count() > 0 })
	if got := sink.count(); got != 1 {
		t.Fatalf("%d deliveries, want only the one sent after coming back up", got)
	}
}

// TestInboundLossAppliedAtReceiver pins the cross-process loss contract:
// LossIn is drawn by the receiving runtime, so a node's conditions take
// effect even when the sender is another process that knows nothing about
// them. Reliable-class traffic is exempt, as in the other backends.
func TestInboundLossAppliedAtReceiver(t *testing.T) {
	book := NewBook()
	a := New(Options{Seed: 1, Book: book})
	b := New(Options{Seed: 2, Book: book})
	defer a.Close()
	defer b.Close()

	sink := &collect{}
	a.Attach(1, nil)
	b.Attach(2, sink)
	// Only the receiving process knows node 2 is fully lossy inbound.
	b.SetConditions(2, net.Conditions{LossIn: 1})

	for i := 0; i < 20; i++ {
		a.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 4}, net.Unreliable)
	}
	// The reliable marker leaves the same socket behind them, and one receive
	// loop handles a socket's datagrams in order: once it is delivered, all 20
	// have met the receiver's loss draw.
	a.Send(1, 2, &msg.AuditReq{Sender: 1, Horizon: time.Second}, net.Reliable)
	waitFor(t, "reliable-class delivery through inbound loss", func() bool { return sink.count() > 0 })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.got) != 1 || sink.got[0].Kind() != msg.KindAuditReq {
		t.Fatalf("lossy receiver delivered %d messages (first %T), want only the reliable marker", len(sink.got), sink.got[0])
	}
}

func TestModelledLatency(t *testing.T) {
	rt := New(Options{Seed: 1, Defaults: net.Conditions{LatencyBase: 80 * time.Millisecond}})
	defer rt.Close()
	sink := &collect{}
	rt.Attach(1, nil)
	rt.Attach(2, sink)

	start := time.Now()
	rt.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 4}, net.Unreliable)
	waitFor(t, "delayed delivery", func() bool { return sink.count() > 0 })
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("delivered after %v, want the modelled ~80ms latency", elapsed)
	}

	// Reliable-class traffic pays the 3x connection-setup factor, as under
	// the sim backend.
	start = time.Now()
	rt.Send(1, 2, &msg.AuditReq{Sender: 1, Horizon: time.Second}, net.Reliable)
	waitFor(t, "reliable delayed delivery", func() bool { return sink.count() > 1 })
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("reliable delivered after %v, want the modelled ~240ms (3x) latency", elapsed)
	}
}

func TestTimersAndExecSerialized(t *testing.T) {
	rt := New(Options{Seed: 1})
	defer rt.Close()
	ctx := rt.Context(5)

	var mu sync.Mutex
	var order []int
	fired := make(chan struct{})
	ctx.After(20*time.Millisecond, func() {
		mu.Lock()
		order = append(order, 2)
		mu.Unlock()
		close(fired)
	})
	rt.Exec(5, func() {
		mu.Lock()
		order = append(order, 1)
		mu.Unlock()
	})
	<-fired
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("callback order %v, want [1 2]", order)
	}
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	rt := New(Options{Seed: 1})
	rt.Attach(1, &collect{})
	rt.Attach(2, &collect{})
	for i := 0; i < 50; i++ {
		rt.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 4}, net.Unreliable)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Close()
		}()
	}
	wg.Wait()
	rt.Close() // and once more after the drain

	// Post-close operations are safe no-ops: nothing is queued to run later.
	rt.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 4}, net.Unreliable)
	rt.After(time.Millisecond, func() { t.Error("callback ran after Close") })
	rt.Context(1).After(time.Millisecond, func() { t.Error("node callback ran after Close") })
	if jobs, _ := pending(rt.clock, nil); jobs != 0 {
		t.Errorf("a closed runtime queued %d harness callbacks", jobs)
	}
	if jobs, _ := pending(rt.clock, rt.localNode(1)); jobs != 0 {
		t.Errorf("a closed runtime queued %d node jobs", jobs)
	}
	if _, err := rt.AddNode(9, "127.0.0.1:0"); err == nil {
		t.Error("AddNode succeeded on a closed runtime")
	}
}

func TestAddNodeRejectsDuplicate(t *testing.T) {
	rt := New(Options{Seed: 1})
	defer rt.Close()
	if _, err := rt.AddNode(1, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddNode(1, "127.0.0.1:0"); err == nil {
		t.Fatal("duplicate AddNode succeeded")
	}
}

func TestOversizedMessageFragmentedAndReassembled(t *testing.T) {
	// A message too large for one datagram (a long audit history) ships as a
	// fragment train and arrives intact — v2 dropped it silently.
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll})
	defer rt.Close()
	sink := &collect{}
	rt.Attach(1, nil)
	rt.Attach(2, sink)

	huge := &msg.AuditResp{Sender: 1}
	for i := 0; i < 5000; i++ {
		huge.Proposals = append(huge.Proposals, msg.ProposalRecord{
			Period: msg.Period(i), Partner: 2, Chunks: []msg.ChunkID{1, 2, 3, 4},
		})
	}
	rt.Send(1, 2, huge, net.Reliable)
	waitFor(t, "fragmented message delivery", func() bool { return sink.count() > 0 })
	sink.mu.Lock()
	got, ok := sink.got[0].(*msg.AuditResp)
	sink.mu.Unlock()
	if !ok {
		t.Fatalf("delivered %T, want *msg.AuditResp", got)
	}
	if len(got.Proposals) != 5000 || got.Proposals[4999].Period != 4999 {
		t.Fatalf("reassembled audit history mangled: %d proposals", len(got.Proposals))
	}
	if coll.Dropped(msg.KindAuditResp) != 0 {
		t.Fatal("fragmented message counted as dropped")
	}
}

// TestFailedFragmentTrainDropsEveryCopy: a duplicated fragment train whose
// first write fails loses both copies of its message, and both are
// accounted, as both were accounted sent.
func TestFailedFragmentTrainDropsEveryCopy(t *testing.T) {
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll})
	defer rt.Close()
	rt.Attach(1, nil)
	rt.Attach(2, nil)
	rt.SetConditions(1, net.Conditions{DupProb: 1})
	rt.localNode(1).conn.Close()

	huge := &msg.AuditResp{Sender: 1}
	for i := 0; i < 5000; i++ {
		huge.Proposals = append(huge.Proposals, msg.ProposalRecord{Period: msg.Period(i), Partner: 2, Chunks: []msg.ChunkID{1, 2, 3, 4}})
	}
	rt.Send(1, 2, huge, net.Unreliable)
	if got := coll.Dropped(msg.KindAuditResp); got != 2 {
		t.Fatalf("%d drops accounted for a duplicated train that never left, want 2", got)
	}
}

// TestUnshippedSendDropsEveryCopy: a send that never leaves is dropped once
// for each copy counted as sent — one to an id with no address, before any
// duplicate is drawn, and both copies of a duplicated fragment train longer
// than maxFragments.
func TestUnshippedSendDropsEveryCopy(t *testing.T) {
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll, Defaults: net.Conditions{DupProb: 1}})
	defer rt.Close()
	rt.Attach(1, nil)
	rt.Attach(2, nil)

	rt.Send(1, 99, &msg.ScoreReq{Sender: 1, Target: 4}, net.Unreliable)
	huge := &msg.AuditResp{Sender: 1, Proposals: make([]msg.ProposalRecord, 50000)}
	for i := range huge.Proposals {
		huge.Proposals[i] = msg.ProposalRecord{Period: msg.Period(i), Partner: 2, Chunks: []msg.ChunkID{1, 2, 3, 4}}
	}
	if body, err := msg.Encode(huge); err != nil || fragments(body) <= maxFragments {
		t.Fatalf("the oversized message must take more than %d fragments: %v", maxFragments, err)
	}
	rt.Send(1, 2, huge, net.Unreliable)
	for _, c := range []struct {
		kind msg.Kind
		sent uint64
	}{{msg.KindScoreReq, 1}, {msg.KindAuditResp, 2}} {
		if sent, dropped := coll.SentMsgs(c.kind), coll.Dropped(c.kind); sent != c.sent || dropped != sent {
			t.Errorf("%v: sent %d, dropped %d; want %d of each", c.kind, sent, dropped, c.sent)
		}
	}
}

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers("0=127.0.0.1:9000, 3=host.example:9003,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "127.0.0.1:9000" || got[3] != "host.example:9003" {
		t.Fatalf("ParsePeers = %v", got)
	}
	for _, bad := range []string{"nope", "x=1:2", "1=a:1,1=b:2"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) succeeded", bad)
		}
	}
}

func TestBookStoresUnmappedAddresses(t *testing.T) {
	b := NewBook()
	if err := b.Set(1, "127.0.0.1:9000"); err != nil {
		t.Fatal(err)
	}
	// A dual-stack socket reports an IPv4 address in its mapped form; the
	// book keeps the 4-byte one, which every socket family can write to.
	b.SetAddr(2, netip.MustParseAddrPort("[::ffff:127.0.0.1]:1234"))
	if a, ok := b.Lookup(2); !ok || a != netip.MustParseAddrPort("127.0.0.1:1234") {
		t.Fatalf("SetAddr recorded %v %v, want the unmapped 127.0.0.1:1234", a, ok)
	}
	if a, _ := b.Lookup(1); a.Port() != 9000 {
		t.Fatalf("SetAddr of one id moved another's: %v", a)
	}
	if ids := b.IDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("IDs = %v", ids)
	}
}

// TestMetricsConcurrentSendersScrape hammers one shared collector from
// concurrent sender goroutines over real UDP sockets while a scraper takes
// snapshots — the daemon's /metrics access pattern (one snapshot per
// scrape), run under -race by CI and `make race`.
func TestMetricsConcurrentSendersScrape(t *testing.T) {
	coll := metrics.NewCollector()
	rt := New(Options{Seed: 1, Collector: coll})
	defer rt.Close()

	const nodes = 4
	sinks := make([]*collect, nodes)
	for i := 0; i < nodes; i++ {
		sinks[i] = &collect{}
		rt.Attach(msg.NodeID(i), sinks[i])
	}

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = coll.SnapshotAt(0)
			}
		}
	}()

	var senders sync.WaitGroup
	for i := 0; i < nodes; i++ {
		senders.Add(1)
		go func(from msg.NodeID) {
			defer senders.Done()
			for j := 0; j < 500; j++ {
				to := msg.NodeID((int(from) + 1 + j%(nodes-1)) % nodes)
				rt.Send(from, to, &msg.Propose{Sender: from, Period: msg.Period(j), Chunks: []msg.ChunkID{msg.ChunkID(j)}}, net.Unreliable)
				if j%50 == 49 {
					time.Sleep(time.Millisecond) // don't outrun loopback socket buffers
				}
			}
		}(msg.NodeID(i))
	}
	senders.Wait()
	// UDP offers no delivery guarantee even on loopback (bursts can overrun
	// socket buffers), so wait for a solid majority, not all 2000.
	waitFor(t, "deliveries", func() bool {
		n := 0
		for _, s := range sinks {
			n += s.count()
		}
		return n >= nodes*250
	})
	close(stop)
	scraper.Wait()

	if got := coll.SentMsgs(msg.KindPropose); got != nodes*500 {
		t.Fatalf("sent counter = %d, want %d", got, nodes*500)
	}
	if coll.RecvMsgs(msg.KindPropose) == 0 {
		t.Fatal("no deliveries counted")
	}
	snap := coll.SnapshotAt(0)
	if snap.ProtocolBytes == 0 {
		t.Fatal("no protocol bytes accounted")
	}
}

func TestServePayloadSurvivesBufferReuse(t *testing.T) {
	// The receive loop reads every datagram into one reused buffer; the
	// decoder must have copied each serve's payload out of it before the next
	// datagram lands on top.
	rt := New(Options{Seed: 1})
	defer rt.Close()
	sink := &collect{}
	rt.Attach(1, nil)
	rt.Attach(2, sink)

	payloads := make([][]byte, 10)
	for i := range payloads {
		p := make([]byte, 1316)
		for j := range p {
			p[j] = byte(i)
		}
		payloads[i] = p
		rt.Send(1, 2, &msg.Serve{
			Sender: 1, Period: 1, Chunk: msg.ChunkID(i),
			PayloadSize: len(p), Hash: uint64(i), Payload: p,
		}, net.Unreliable)
	}
	waitFor(t, "all serves delivered", func() bool { return sink.count() == len(payloads) })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, m := range sink.got {
		s := m.(*msg.Serve)
		want := payloads[s.Chunk]
		for j := range want {
			if s.Payload[j] != want[j] {
				t.Fatalf("chunk %d payload corrupted at byte %d (buffer reuse)", s.Chunk, j)
			}
		}
	}
}

// peer is a raw UDP socket standing in for a remote node: it counts the
// datagrams a runtime sends it and the messages they carry.
type peer struct {
	t    *testing.T
	conn *gonet.UDPConn
}

func listenPeer(t *testing.T) *peer {
	conn, err := gonet.ListenUDP("udp", gonet.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &peer{t: t, conn: conn}
}

func (p *peer) addr() netip.AddrPort { return p.conn.LocalAddr().(*gonet.UDPAddr).AddrPort() }

// next reads one datagram and returns its messages and its flags.
func (p *peer) next() ([]msg.Message, uint8) {
	p.t.Helper()
	buf := make([]byte, 1<<16)
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	sz, err := p.conn.Read(buf)
	if err != nil {
		p.t.Fatalf("waiting for a datagram: %v", err)
	}
	payload, flags, err := msg.RawFrame(buf[:sz])
	if err != nil {
		p.t.Fatal(err)
	}
	batch, err := msg.ParseBatch(payload)
	if err != nil {
		p.t.Fatal(err)
	}
	var ms []msg.Message
	for e := batch.Next(); e != nil; e = batch.Next() {
		m, err := msg.Decode(e)
		if err != nil {
			p.t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms, flags
}

// quiet checks that no datagram arrives within 50 ms.
func (p *peer) quiet() {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := p.conn.Read(make([]byte, 1<<16)); err == nil {
		p.t.Fatal("an unexpected datagram")
	}
}

// datagrams reads until want messages have arrived and returns how many
// datagrams carried them, checking that each carries one sender's
// messages and that nothing else follows.
func (p *peer) datagrams(want int) int {
	p.t.Helper()
	got, n := 0, 0
	for got < want {
		ms, _ := p.next()
		got, n = got+len(ms), n+1
	}
	p.quiet()
	return n
}

// TestOneDatagramPerDestinationPerCallback counts datagrams at raw sockets:
// the 17 serves a node sends one peer during one callback arrive in one
// datagram, a callback sending to 3 peers sends 3, and so it is whether the
// datagrams leave inline (latency 0, what lifting-node runs) or wait out
// the modelled latency on the sender's clock. A datagram is dispatched as
// one callback, so the replies to its messages share a datagram too. Sends
// made outside any callback ship one datagram each, as they did before
// frame v4, and so does a message that drew a modelled reorder or
// duplication, inside a callback or not. A send from an id the runtime does
// not host ships nothing.
func TestOneDatagramPerDestinationPerCallback(t *testing.T) {
	for _, latency := range []time.Duration{0, 40 * time.Millisecond} {
		book := NewBook()
		rt := New(Options{Seed: 1, Book: book, Defaults: net.Conditions{LatencyBase: latency}})
		defer rt.Close()
		rt.Attach(1, nil)
		peers := []*peer{listenPeer(t), listenPeer(t), listenPeer(t)}
		for i, p := range peers {
			book.SetAddr(msg.NodeID(10+i), p.addr())
		}
		serve := func(chunk int) msg.Message {
			return &msg.Serve{Sender: 1, Chunk: msg.ChunkID(chunk), PayloadSize: 1316, Hash: 7, Payload: make([]byte, 1316)}
		}

		start := time.Now()
		rt.Exec(1, func() {
			for c := 0; c < 17; c++ {
				rt.Send(1, 10, serve(c), net.Unreliable)
			}
		})
		if n := peers[0].datagrams(17); n != 1 {
			t.Errorf("latency %v: 17 serves in one callback arrived in %d datagrams, want 1", latency, n)
		}
		if took := time.Since(start); took < latency {
			t.Errorf("latency %v: the datagram left after %v, before the modelled latency", latency, took)
		}

		rt.Exec(1, func() {
			for c := 0; c < 4; c++ {
				for i := range peers {
					rt.Send(1, msg.NodeID(10+i), &msg.Blame{Sender: 1, Target: 3, Value: 1}, net.Unreliable)
				}
			}
			rt.Send(1, 10, &msg.AuditReq{Sender: 1, Horizon: time.Second}, net.Reliable)
		})
		for i, p := range peers {
			want, datagrams := 4, 1
			if i == 0 {
				want, datagrams = 5, 2 // the reliable-class audit is its own datagram
			}
			if n := p.datagrams(want); n != datagrams {
				t.Errorf("latency %v: peer %d got its %d messages in %d datagrams, want %d", latency, i, want, n, datagrams)
			}
		}

		for c := 0; c < 3; c++ {
			rt.Send(1, 11, serve(c), net.Unreliable)
		}
		if n := peers[1].datagrams(3); n != 3 {
			t.Errorf("latency %v: 3 serves sent outside any callback arrived in %d datagrams, want 3", latency, n)
		}

		// Node 2 answers each of the 3 messages one callback sends it, to
		// peer 0: dispatched as one callback, the datagram's 3 messages get
		// their 3 answers in one datagram.
		rt.Attach(2, handlerFunc(func(_ msg.NodeID, m msg.Message) {
			rt.Send(2, 10, &msg.ScoreResp{Sender: 2, Target: m.(*msg.ScoreReq).Target}, net.Unreliable)
		}))
		rt.Exec(1, func() {
			for c := 0; c < 3; c++ {
				rt.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: msg.NodeID(c)}, net.Unreliable)
			}
		})
		if n := peers[0].datagrams(3); n != 1 {
			t.Errorf("latency %v: the answers to one datagram's 3 messages arrived in %d datagrams, want 1", latency, n)
		}

		// A message held back by the modelled reorder leaves alone, after
		// ReorderDelay: the callback's datagram to the same peer (reliable
		// class, never reordered) overtakes it.
		const hold = 150 * time.Millisecond
		rt.SetConditions(1, net.Conditions{LatencyBase: latency, ReorderProb: 1, ReorderDelay: hold})
		start = time.Now()
		rt.Exec(1, func() {
			rt.Send(1, 10, &msg.Blame{Sender: 1, Target: 3, Value: 1}, net.Unreliable)
			rt.Send(1, 10, &msg.AuditReq{Sender: 1, Horizon: time.Second}, net.Reliable)
		})
		if ms, flags := peers[0].next(); len(ms) != 1 || flags&msg.FlagReliable == 0 {
			t.Errorf("latency %v: the first datagram carries %d messages, flags %#x; want the callback's reliable audit alone", latency, len(ms), flags)
		}
		if ms, _ := peers[0].next(); len(ms) != 1 || ms[0].Kind() != msg.KindBlame {
			t.Errorf("latency %v: the second datagram carries %v, want the held blame alone", latency, ms)
		}
		if took := time.Since(start); took < hold {
			t.Errorf("latency %v: the held blame arrived after %v, before ReorderDelay %v", latency, took, hold)
		}
		peers[0].quiet()

		// Each message that drew the modelled duplication leaves alone,
		// twice, and counts as two sends.
		rt.SetConditions(1, net.Conditions{LatencyBase: latency, DupProb: 1})
		sent := rt.collector.SentMsgs(msg.KindBlame)
		rt.Exec(1, func() {
			for c := 0; c < 2; c++ {
				rt.Send(1, 11, &msg.Blame{Sender: 1, Target: 3, Value: 1}, net.Unreliable)
			}
		})
		if n := peers[1].datagrams(4); n != 4 {
			t.Errorf("latency %v: 2 duplicated blames arrived in %d datagrams, want 4", latency, n)
		}
		if got := rt.collector.SentMsgs(msg.KindBlame) - sent; got != 4 {
			t.Errorf("latency %v: 2 duplicated blames counted as %d sends, want 4", latency, got)
		}

		// An id this runtime does not host has no socket to send from.
		rt.SetConditions(1, net.Conditions{LatencyBase: latency})
		drops := rt.collector.Dropped(msg.KindScoreReq)
		rt.Send(99, 12, &msg.ScoreReq{Sender: 99, Target: 4}, net.Unreliable)
		if got := rt.collector.Dropped(msg.KindScoreReq) - drops; got != 1 {
			t.Errorf("latency %v: a send from an unhosted id counted %d drops, want 1", latency, got)
		}
		peers[2].quiet()
	}
}

// TestSmallPoolStaysSmall: a frame about to outgrow a small buffer moves to
// a full one, a message sent alone as much as a callback's datagram, so no
// buffer the small pool hands back has grown past smallFrame.
func TestSmallPoolStaysSmall(t *testing.T) {
	book := NewBook()
	rt := New(Options{Seed: 1, Book: book})
	defer rt.Close()
	rt.Attach(1, nil)
	p := listenPeer(t)
	book.SetAddr(10, p.addr())
	payload := make([]byte, 5000)
	for c := 0; c < 4; c++ {
		rt.Send(1, 10, &msg.Serve{Sender: 1, Chunk: msg.ChunkID(c), PayloadSize: len(payload), Hash: 7, Payload: payload}, net.Unreliable)
	}
	p.datagrams(4)
	for i := 0; i < 64; i++ {
		if b := rt.bufs.Get().(*[]byte); cap(*b) > smallFrame {
			t.Fatalf("buffer %d of the small pool holds %d bytes, over smallFrame's %d", i, cap(*b), smallFrame)
		}
	}
}

// TestDatagramFromMixedSendersDeliversNothing: every message in a v4
// datagram carries one sender. A hand-built datagram whose messages claim
// two senders is dropped whole — nothing delivered — and the next honest
// datagram of several messages is delivered in full, in order.
func TestDatagramFromMixedSendersDeliversNothing(t *testing.T) {
	book := NewBook()
	rt := New(Options{Seed: 1, Book: book})
	defer rt.Close()
	sink := &collect{}
	rt.Attach(2, sink)
	addr, _ := book.Lookup(2)
	raw, err := gonet.DialUDP("udp", nil, gonet.UDPAddrFromAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame := func(ms ...msg.Message) []byte {
		f := msg.StartFrame(nil, 0)
		for _, m := range ms {
			if f, err = msg.AppendMessage(f, m); err != nil {
				t.Fatal(err)
			}
		}
		msg.SealFrame(f)
		return f
	}
	// AppendMessage does not police senders; the receiver does.
	mixed := frame(&msg.ScoreReq{Sender: 7, Target: 4}, &msg.ScoreReq{Sender: 8, Target: 4})
	honest := frame(&msg.ScoreReq{Sender: 9, Target: 1}, &msg.ScoreReq{Sender: 9, Target: 2}, &msg.ScoreReq{Sender: 9, Target: 3})
	for _, d := range [][]byte{mixed, honest} {
		if _, err := raw.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the honest datagram", func() bool { return sink.count() >= 3 })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, m := range sink.got {
		if r, ok := m.(*msg.ScoreReq); !ok || r.Sender != 9 || r.Target != msg.NodeID(i+1) {
			t.Fatalf("delivery %d is %+v; want the honest datagram's messages alone, in order", i, m)
		}
	}
	if len(sink.got) != 3 {
		t.Fatalf("%d deliveries, want the honest datagram's 3", len(sink.got))
	}
}

// TestInboundLossPerMessage: coalescing is invisible to §6's Bernoulli
// model — the receiver draws LossIn for each message of a datagram, not
// once for the datagram.
func TestInboundLossPerMessage(t *testing.T) {
	book := NewBook()
	rt := New(Options{Seed: 3, Book: book})
	defer rt.Close()
	sink := &collect{}
	rt.Attach(1, nil)
	rt.Attach(2, sink)
	rt.SetConditions(2, net.Conditions{LossIn: 0.5})
	const n = 200
	rt.Exec(1, func() {
		for i := 0; i < n; i++ {
			rt.Send(1, 2, &msg.ScoreReq{Sender: 1, Target: msg.NodeID(i)}, net.Unreliable)
		}
	})
	// Reliable-class traffic is exempt from LossIn and leaves the same
	// socket after the batch; once it is in, the batch has been drawn.
	rt.Exec(1, func() { rt.Send(1, 2, &msg.AuditReq{Sender: 1, Horizon: time.Second}, net.Reliable) })
	waitFor(t, "the reliable marker", func() bool {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return len(sink.got) > 0 && sink.got[len(sink.got)-1].Kind() == msg.KindAuditReq
	})
	if got := sink.count() - 1; got < n/4 || got > 3*n/4 {
		t.Fatalf("%d of %d messages in one datagram survived a 50%% inbound loss; want each drawn on its own", got, n)
	}
}
