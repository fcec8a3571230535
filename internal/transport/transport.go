// Package transport is the deployment backend of the runtime seam, and the
// seam's only wall-clock implementation: the same protocol nodes that run
// under the discrete-event simulator here exchange real UDP datagrams
// through the binary codec and the datagram framing of internal/msg.
//
// Every locally hosted node owns one UDP socket; peers are found through an
// address Book seeded from bootstrap specs and extended passively from
// inbound traffic. A runtime may host a whole population on loopback (the
// single-process-many-sockets mode behind `lifting-sim -backend udp`) or a
// single node whose peers live in other OS processes or on other machines
// (the lifting-node daemon) — the paper's PlanetLab deployment shape (§7).
//
// The concurrency contract matches sim.Context: all callbacks for one node —
// inbound messages, timers, Exec functions — are serialized under that node's
// lock; callbacks for different nodes dispatched by different receive loops
// run concurrently. Every delay the runtime models — each node's timers, its
// half of each link's latency on both the send and the receive side, the
// harness's callbacks — is a job on the runtime's one clock (clock.go), so
// delayed work runs one job at a time, whichever node it belongs to.
package transport

import (
	"context"
	"errors"
	"fmt"
	gonet "net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/sim"
)

// implicitListen is the address an implicitly created local socket binds
// to: loopback, kernel-assigned port. Nodes added explicitly with AddNode
// choose their own address.
const implicitListen = "127.0.0.1:0"

// Options configures a UDP runtime.
type Options struct {
	// Seed roots the randomness used for modelled loss and latency jitter.
	Seed uint64
	// Collector receives traffic accounting; nil gives the runtime a
	// collector of its own.
	Collector *metrics.Collector
	// Defaults is the connection quality of nodes without an override. Loss
	// and latency are modelled on top of the real sockets, so loopback
	// scenarios can reproduce the lossy conditions of the simulations.
	Defaults net.Conditions
	// Book, if non-nil, is used as the address book — pass a shared Book to
	// let several runtimes in one process discover each other, or a
	// pre-seeded one for remote peers. Nil creates an empty private book.
	Book *Book
}

// Runtime hosts a set of nodes over real UDP sockets.
type Runtime struct {
	start     time.Time
	collector *metrics.Collector
	defaults  net.Conditions
	book      *Book

	// mu guards nodes, conds and closed. The wire hot paths (Send, one
	// recvLoop per socket) only read, so they share RLock and run
	// concurrently; writers (AddNode, SetConditions, churn, Close) are
	// rare.
	mu     sync.RWMutex
	nodes  map[msg.NodeID]*nodeCtx
	conds  map[msg.NodeID]net.Conditions
	closed bool

	// randMu guards the loss/jitter stream. Taken only when a draw is
	// actually needed (nonzero loss or jitter), so lossless scenarios pay
	// nothing.
	randMu sync.Mutex
	rand   *rng.Stream

	// Frame buffers on the send path: bufs for a frame of a few small
	// messages, full for one that outgrew that — a batch of serves. Kept
	// apart, the few full buffers in flight stay full and the many small
	// ones stay small; in one pool every buffer would in time grow to the
	// largest frame it ever carried, and be grown again after each GC. A
	// miss of bufs carves smallFrames buffers from one block: a blame flush
	// holds thousands of delayed frames at once, and each GC empties the
	// pools.
	bufs, full sync.Pool

	// fragID numbers outbound fragmented messages so receivers can group
	// their fragments. Uniqueness per (sender socket, recent window) is all
	// reassembly needs.
	fragID atomic.Uint32

	clock *clock         // every delay: node timers, Exec, latency, harness After
	loops sync.WaitGroup // receive loops and the clock goroutine
}

var (
	_ net.Network     = (*Runtime)(nil)
	_ runtime.Runtime = (*Runtime)(nil)
)

// New creates a UDP runtime with no sockets yet. Sockets appear as nodes are
// added — explicitly via AddNode, or implicitly on the first Context/Attach
// for an unknown id (bound to a kernel-assigned loopback port).
func New(o Options) *Runtime {
	book := o.Book
	if book == nil {
		book = NewBook()
	}
	collector := o.Collector
	if collector == nil {
		collector = metrics.NewCollector()
	}
	r := &Runtime{
		start:     time.Now(),
		collector: collector,
		defaults:  o.Defaults,
		book:      book,
		rand:      rng.New(o.Seed),
		nodes:     make(map[msg.NodeID]*nodeCtx),
		conds:     make(map[msg.NodeID]net.Conditions),
		full: sync.Pool{New: func() any {
			b := make([]byte, 0, fullFrame)
			return &b
		}},
	}
	r.bufs.New = func() any {
		mem, bs := make([]byte, smallFrames*smallFrame), make([][]byte, smallFrames)
		for i := range bs {
			bs[i] = mem[i*smallFrame : i*smallFrame : (i+1)*smallFrame]
			if i > 0 {
				r.bufs.Put(&bs[i])
			}
		}
		return &bs[0]
	}
	r.clock = &clock{rt: r, wake: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
	r.clock.timer.Stop()
	r.loops.Add(1)
	go r.clock.run()
	return r
}

// nodeCtx is one locally hosted node: its socket, the lock serializing all
// its callbacks, the outbox its callbacks send through, and the count of its
// delayed datagrams on the runtime's clock.
type nodeCtx struct {
	rt      *Runtime
	id      msg.NodeID
	conn    *gonet.UDPConn
	mu      sync.Mutex
	h       net.Handler
	out     outbox
	delayed int // guarded by the clock's mu; see maxDelayedDatagrams
}

var _ sim.Context = (*nodeCtx)(nil)

// Now implements sim.Context: time elapsed since the runtime started.
func (n *nodeCtx) Now() time.Duration { return time.Since(n.rt.start) }

// After implements sim.Context: fn runs on the runtime's clock under the
// node's lock, unless the runtime has been closed first.
func (n *nodeCtx) After(d time.Duration, fn func()) { n.rt.clock.push(d, job{node: n, fn: fn}) }

// AddNode binds a UDP socket for a locally hosted node and starts its
// receive loop. The bound address (with the kernel-assigned
// port when listen ends in ":0") is recorded in the address book and
// returned. Adding a node twice fails.
func (r *Runtime) AddNode(id msg.NodeID, listen string) (netip.AddrPort, error) {
	addr, err := gonet.ResolveUDPAddr("udp", listen)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("transport: resolving listen address %q: %w", listen, err)
	}
	conn, err := gonet.ListenUDP("udp", addr)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("transport: binding node %d to %q: %w", id, listen, err)
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return netip.AddrPort{}, errors.New("transport: runtime is closed")
	}
	if _, dup := r.nodes[id]; dup {
		r.mu.Unlock()
		conn.Close()
		return netip.AddrPort{}, fmt.Errorf("transport: node %d already hosted here", id)
	}
	n := &nodeCtx{rt: r, id: id, conn: conn}
	r.nodes[id] = n
	r.loops.Add(1)
	r.mu.Unlock()

	bound := unmap(conn.LocalAddr().(*gonet.UDPAddr).AddrPort())
	r.book.SetAddr(id, bound)
	go r.recvLoop(n)
	return bound, nil
}

// localNode returns the context for a locally hosted node, binding a socket
// on loopback the first time an id is seen. It panics if the bind
// fails (the runtime interface has no error path; use AddNode to handle bind
// errors gracefully).
func (r *Runtime) localNode(id msg.NodeID) *nodeCtx {
	r.mu.RLock()
	n, ok := r.nodes[id]
	r.mu.RUnlock()
	if ok {
		return n
	}
	if _, err := r.AddNode(id, implicitListen); err != nil {
		r.mu.RLock()
		n, ok = r.nodes[id] // lost a race to another implicit add?
		r.mu.RUnlock()
		if ok {
			return n
		}
		panic(err)
	}
	r.mu.RLock()
	n = r.nodes[id]
	r.mu.RUnlock()
	return n
}

// Context implements runtime.Runtime. For an id not hosted here yet it binds
// a loopback socket.
func (r *Runtime) Context(id msg.NodeID) sim.Context { return r.localNode(id) }

// Attach implements runtime.Runtime: it registers the message handler for a
// locally hosted node (binding its socket if needed); a nil handler detaches
// it.
func (r *Runtime) Attach(id msg.NodeID, h net.Handler) {
	n := r.localNode(id)
	n.mu.Lock()
	n.h = h
	n.mu.Unlock()
}

// Network implements runtime.Runtime: the runtime is its own network.
func (r *Runtime) Network() net.Network { return r }

// SetConditions implements runtime.Runtime.
func (r *Runtime) SetConditions(id msg.NodeID, c net.Conditions) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conds[id] = c
}

// SetDown implements runtime.Runtime.
func (r *Runtime) SetDown(id msg.NodeID, down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.conds[id]
	if !ok {
		c = r.defaults
	}
	c.Down = down
	r.conds[id] = c
}

// After implements runtime.Runtime: a harness callback on the runtime's
// clock, outside any node's serialization.
func (r *Runtime) After(d time.Duration, fn func()) { r.clock.push(d, job{fn: fn}) }

// Exec implements runtime.Runtime: fn runs on the runtime's clock, under node
// id's lock, behind every job already due.
func (r *Runtime) Exec(id msg.NodeID, fn func()) { r.localNode(id).After(0, fn) }

// Now implements runtime.Runtime.
func (r *Runtime) Now() time.Duration { return time.Since(r.start) }

// Run implements runtime.Runtime: it blocks until the runtime is `until`
// old; sockets keep delivering on their own goroutines meanwhile. Cancelling
// ctx wakes the sleep immediately and returns ctx.Err(); sockets stay open
// until Close.
func (r *Runtime) Run(ctx context.Context, until time.Duration) error {
	d := until - r.Now()
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Runtime) conditionsOf(id msg.NodeID) net.Conditions {
	if c, ok := r.conds[id]; ok {
		return c
	}
	return r.defaults
}

// bernoulli draws from the shared loss stream; p = 0 short-circuits without
// touching the stream.
func (r *Runtime) bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	r.randMu.Lock()
	defer r.randMu.Unlock()
	return r.rand.Bernoulli(p)
}

// jitter draws a uniform latency jitter in [0, j); j = 0 short-circuits.
func (r *Runtime) jitter(j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	r.randMu.Lock()
	defer r.randMu.Unlock()
	return time.Duration(r.rand.Float64() * float64(j))
}

// Send implements net.Network: the message is framed through the binary
// codec and shipped to the destination's address-book entry — in the one
// datagram that carries everything the sender sends that peer during the
// callback it runs in (see outbox), or alone when it runs in none. Loss and
// latency from the node conditions are modelled on top of the real socket
// (loopback is effectively lossless and instant, and scenarios still want
// the paper's 4%-loss PlanetLab links); messages to down or unknown
// destinations are dropped like any other network loss.
//
// Each side of a link applies its own conditions: the sender delays by its
// half of the latency, the receiver draws LossIn and delays by its half
// before dispatching. In a multi-process deployment a
// process only knows its own conditions, so this split is what makes -loss
// and per-node latency work there; in single-process mode it adds up to the
// same end-to-end link model as the other backends.
func (r *Runtime) Send(from, to msg.NodeID, m msg.Message, mode net.Mode) {
	size := m.WireSize()
	r.collector.OnSend(from, m, size)

	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return
	}
	src := r.conditionsOf(from)
	dst := r.conditionsOf(to)
	// Partition state is locally applied for every known id (the soak
	// schedule is replayed by each process), so the sender can cut
	// cross-partition traffic before it touches the wire.
	drop := src.Down || dst.Down || net.Partitioned(src.PartitionGroup, dst.PartitionGroup)
	sender := r.nodes[from]
	if sender == nil {
		// Harness traffic from an id not hosted here: use any local socket.
		for _, n := range r.nodes {
			sender = n
			break
		}
	}
	r.mu.RUnlock()
	latency := src.LatencyBase/2 + r.jitter(src.LatencyJitter/2)
	if mode == net.Reliable {
		// Connection-setup cost of the reliable transport; each side scales
		// its own half.
		latency *= net.ReliableSetupFactor
	}
	copies := uint8(1)
	held := false
	if !drop && mode == net.Unreliable {
		if held = r.bernoulli(src.ReorderProb); held {
			// Hold the datagram back so later sends overtake it.
			latency += src.ReorderDelay
		}
		if r.bernoulli(src.DupProb) {
			// In-network duplication: ship a second identical datagram,
			// accounted as a send of its own so the books balance.
			copies = 2
			r.collector.OnSend(from, m, size)
		}
	}

	addr, known := r.book.Lookup(to)
	if drop || !known || sender == nil {
		r.collector.OnDrop(m, size)
		return
	}

	j := job{node: sender, copies: copies, addr: addr}
	if mode == net.Reliable {
		j.flags = msg.FlagReliable
	}
	if copies == 1 && !held && sender.id == from && sender.out.add(r, addr, j.flags, m, latency) {
		return
	}
	j.frame = r.bufs.Get().(*[]byte)
	frame, err := msg.AppendFrame((*j.frame)[:0], m, j.flags)
	if err != nil {
		// Outbound messages are constructed by our own protocol code; an
		// encoding failure is a programming error — except for messages that
		// outgrew a datagram (big audit histories, oversized chunks), which
		// ship as a train of fragment frames instead.
		r.bufs.Put(j.frame)
		if !errors.Is(err, msg.ErrPayloadTooLarge) {
			panic(fmt.Sprintf("transport: encoding %T: %v", m, err))
		}
		body, err := msg.Encode(m)
		if err != nil {
			panic(fmt.Sprintf("transport: encoding %T: %v", m, err))
		}
		if fragments(body) > maxFragments {
			r.collector.OnDrop(m, size)
			return
		}
		j.frame, j.flags = &body, j.flags|msg.FlagFragment
	} else {
		*j.frame = frame
	}
	if latency <= 0 {
		r.write(&j)
		r.release(&j)
		return
	}
	r.clock.push(latency, j)
}

// write ships a send job's datagrams from its node's socket; a failed write
// is a drop of every message the datagram carries. The frame stays the
// caller's.
func (r *Runtime) write(j *job) {
	if j.flags&msg.FlagFragment != 0 {
		r.writeFragments(j)
		return
	}
	for i := 0; i < int(j.copies); i++ {
		if _, err := j.node.conn.WriteToUDPAddrPort(*j.frame, j.addr); err != nil {
			r.lost(j, 1)
		}
	}
}

// fragments is the length of the train that carries an encoding.
func fragments(body []byte) int {
	return (len(body) + msg.MaxFragmentBody - 1) / msg.MaxFragmentBody
}

// writeFragments ships a message too large for one datagram as a train of
// fragment frames cut from its encoding; the receiver's reassembler rebuilds
// the encoding before dispatch. The fragments leave one socket back-to-back.
// copies > 1 replays the whole train (fault-injected duplication); a failed
// write ends the run of trains, every copy not yet whole lost.
func (r *Runtime) writeFragments(j *job) {
	body := *j.frame
	count := fragments(body)
	msgID := r.fragID.Add(1)
	frames := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		start, end := i*msg.MaxFragmentBody, min((i+1)*msg.MaxFragmentBody, len(body))
		f, err := msg.AppendFragment(nil, msgID, uint16(i), uint16(count), body[start:end], j.flags)
		if err != nil {
			panic(fmt.Sprintf("transport: fragmenting a %d-byte message: %v", len(body), err))
		}
		frames = append(frames, f)
	}
	for i := 0; i < int(j.copies); i++ {
		for _, f := range frames {
			if _, err := j.node.conn.WriteToUDPAddrPort(f, j.addr); err != nil {
				r.lost(j, int(j.copies)-i)
				return
			}
		}
	}
}

// smallFrame is the capacity of a small buffer, carved smallFrames to a
// block; fullFrame, of a full one: the largest datagram.
const (
	smallFrame  = msg.FrameHeaderSize + 512
	smallFrames = 16
	fullFrame   = msg.FrameHeaderSize + msg.MaxFramePayload
)

// release returns a job's pooled frame, if it holds one.
func (r *Runtime) release(j *job) {
	if j.frame != nil && j.flags&msg.FlagFragment == 0 {
		r.put(j.frame)
	}
}

// put returns a frame buffer to the pool of its size.
func (r *Runtime) put(frame *[]byte) {
	if cap(*frame) == fullFrame {
		r.full.Put(frame)
	} else {
		r.bufs.Put(frame)
	}
}

// drop accounts a delayed datagram its node had no room for as lost — each
// message of a dispatch, each message of each copy of a send — and releases
// it.
func (r *Runtime) drop(j *job) {
	if j.copies == 0 {
		r.collector.OnDrop(j.m, j.m.WireSize())
	} else {
		r.lost(j, int(j.copies))
	}
	r.release(j)
}

// lost accounts every message a send job carries as dropped, times times.
// The job keeps only its encoding, so the messages are decoded back: a
// failure path, rare enough to pay for what the send path saves.
func (r *Runtime) lost(j *job, times int) {
	if j.flags&msg.FlagFragment != 0 {
		r.lostEncoding(*j.frame, times)
		return
	}
	batch, err := msg.ParseBatch((*j.frame)[msg.FrameHeaderSize:])
	if err != nil {
		return
	}
	for e := batch.Next(); e != nil; e = batch.Next() {
		r.lostEncoding(e, times)
	}
}

// lostEncoding accounts the message encoded in e as dropped, times times.
func (r *Runtime) lostEncoding(e []byte, times int) {
	m, err := msg.Decode(e)
	if err != nil {
		return
	}
	for i := 0; i < times; i++ {
		r.collector.OnDrop(m, m.WireSize())
	}
}

// maxReassembly bounds the half-built messages a socket keeps, and
// maxReassemblyPerSource the share of them one source address may hold. A
// new message from a source at its quota evicts that source's half-built
// messages; one arriving at a table filled by many sources, each under its
// quota, evicts the heaviest source's. Nobody else's are touched: losing
// half-built state is a retry, keeping it unbounded is a memory hole, and
// one spammer must not cost every other peer its trains.
const (
	maxReassembly          = 256
	maxReassemblyPerSource = maxReassembly / 8
)

// maxFragments is the longest fragment train a peer may announce — and the
// longest Send ships. The largest message the protocol sends is a Serve of
// msg.MaxChunkPayload bytes: that many fragments carry it with most of a
// fragment to spare for its fixed fields (17 at today's constants). A
// header announcing more is not part of any message worth a parts table:
// without the bound one ≈ 30-byte datagram claiming 65 535 fragments made
// the receiver allocate 1.5 MB of slice headers.
const maxFragments = msg.MaxChunkPayload/msg.MaxFragmentBody + 1

// maxReassemblyBytes bounds the fragment bytes a socket holds in half-built
// messages: four full trains, each room for a Serve of msg.MaxChunkPayload
// (≈ 4.5 MB). A fragment that would take the table past it evicts the
// source holding the most bytes, repeatedly, the way a full table evicts the
// source holding the most entries. Without it one source could park 32
// trains of 16 full fragments, ≈ 33.5 MB, and a full table ≈ 268 MB.
const maxReassemblyBytes = 4 * maxFragments * msg.MaxFragmentBody

// reassembler rebuilds fragmented messages for one receive loop. Keyed by
// (source address, message id); fragment bodies are copied out of the shared
// read buffer. Single-goroutine use, no locking.
type reassembler struct {
	entries map[reasmKey]*reasmEntry
	held    map[netip.AddrPort]load // what each source holds
	bytes   int                     // fragment bytes held, all sources
}

// load is what one source holds in the table.
type load struct{ entries, bytes int }

func newReassembler() *reassembler {
	return &reassembler{entries: make(map[reasmKey]*reasmEntry), held: make(map[netip.AddrPort]load)}
}

type reasmKey struct {
	src   netip.AddrPort
	msgID uint32
}

type reasmEntry struct {
	count uint16
	got   uint16
	bytes int // fragment bytes held
	parts [][]byte
}

// add folds in one fragment frame payload and returns the full message
// encoding once every fragment has arrived.
func (ra *reassembler) add(src netip.AddrPort, payload []byte) ([]byte, bool) {
	msgID, index, count, body, err := msg.ParseFragment(payload)
	if err != nil || len(body) == 0 || count > maxFragments {
		// writeFragments never emits an empty fragment body, nor a train
		// longer than maxFragments; dropping them here keeps a hostile peer
		// from completing a zero-byte "message" (found by FuzzReassembly)
		// and from sizing the parts table.
		return nil, false
	}
	key := reasmKey{src, msgID}
	e := ra.entries[key]
	if e == nil {
		ra.makeRoom(src)
		e = &reasmEntry{count: count, parts: make([][]byte, count)}
		ra.entries[key] = e
		l := ra.held[src]
		l.entries++
		ra.held[src] = l
	}
	if e.count != count || int(index) >= len(e.parts) {
		// Contradictory fragment train; throw the whole message away.
		ra.remove(key)
		return nil, false
	}
	if e.parts[index] != nil {
		return nil, false // a duplicate
	}
	if !ra.spend(key, len(body)) {
		return nil, false
	}
	e.parts[index] = append([]byte(nil), body...)
	e.got++
	if e.got < e.count {
		return nil, false
	}
	ra.remove(key)
	out := make([]byte, 0, e.bytes)
	for _, p := range e.parts {
		out = append(out, p...)
	}
	return out, true
}

// spend accounts n more bytes to key's entry, first evicting the sources
// that hold the most bytes until they fit the budget. It reports false if
// key's own source was among them: its entry is gone.
func (ra *reassembler) spend(key reasmKey, n int) bool {
	for ra.bytes+n > maxReassemblyBytes {
		victim := key.src
		for s, l := range ra.held {
			if l.bytes > ra.held[victim].bytes {
				victim = s
			}
		}
		ra.evict(victim)
		if victim == key.src {
			return false
		}
	}
	e := ra.entries[key]
	e.bytes += n
	l := ra.held[key.src]
	l.bytes += n
	ra.held[key.src] = l
	ra.bytes += n
	return true
}

// makeRoom evicts whose half-built messages must go before src starts a new
// one: src's own at its quota, else the heaviest source's in a full table.
func (ra *reassembler) makeRoom(src netip.AddrPort) {
	victim := src
	if ra.held[src].entries < maxReassemblyPerSource {
		if len(ra.entries) < maxReassembly {
			return
		}
		for s, l := range ra.held {
			if l.entries > ra.held[victim].entries {
				victim = s
			}
		}
	}
	ra.evict(victim)
}

// evict drops every half-built message of one source.
func (ra *reassembler) evict(src netip.AddrPort) {
	for key := range ra.entries {
		if key.src == src {
			ra.remove(key)
		}
	}
}

func (ra *reassembler) remove(key reasmKey) {
	e := ra.entries[key]
	delete(ra.entries, key)
	ra.bytes -= e.bytes
	l := ra.held[key.src]
	l.entries--
	l.bytes -= e.bytes
	if l.entries == 0 {
		delete(ra.held, key.src)
	} else {
		ra.held[key.src] = l
	}
}

// inbox is what one receive loop owns besides its read buffer: the fragment
// reassembler, the message decoder, and the messages of the datagram in
// hand.
type inbox struct {
	reasm *reassembler
	dec   msg.Decoder
	batch []msg.Message
}

// recvLoop reads datagrams off one node's socket until the runtime closes.
// Every datagram is read into the same buffer, and the decoder copies out
// whatever the messages keep.
func (r *Runtime) recvLoop(n *nodeCtx) {
	defer r.loops.Done()
	buf := make([]byte, 1<<16)
	in := &inbox{reasm: newReassembler()}
	for {
		sz, src, err := n.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, gonet.ErrClosed) {
				return
			}
			continue
		}
		r.receive(n, in, buf[:sz], src)
	}
}

// receive handles one datagram for n: validate the frame and its checksum,
// reassemble fragments or check the message list whole, decode every
// message, learn the sender's address, deliver. A malformed datagram is
// dropped whole, nothing of it delivered — FuzzDecode guarantees the
// decoder survives anything the network delivers.
func (r *Runtime) receive(n *nodeCtx, in *inbox, datagram []byte, src netip.AddrPort) {
	payload, flags, err := msg.RawFrame(datagram)
	if err != nil {
		return
	}
	ms := in.batch[:0]
	defer func() { clear(ms); in.batch = ms[:0] }()
	if flags&msg.FlagFragment != 0 {
		body, done := in.reasm.add(src, payload)
		if !done {
			return
		}
		m, err := in.dec.Decode(body)
		if err != nil {
			return
		}
		ms = append(ms, m)
	} else {
		batch, err := msg.ParseBatch(payload)
		if err != nil {
			return
		}
		for e := batch.Next(); e != nil; e = batch.Next() {
			m, err := in.dec.Decode(e)
			if err != nil {
				return
			}
			ms = append(ms, m)
		}
	}
	r.book.Learn(ms[0].From(), src)
	r.deliver(n, ms, flags)
}

// deliver applies the receiver's side of the link to one datagram's
// messages: its inbound loss and its half of the latency apply here, where
// the node's own conditions are known even when the sender is another
// process, each message drawing its own. A message without a delay is
// dispatched at once, the datagram's together as one callback; one with a
// delay waits on the runtime's clock, a callback of its own.
func (r *Runtime) deliver(n *nodeCtx, ms []msg.Message, flags uint8) {
	r.mu.RLock()
	closed := r.closed
	cond := r.conditionsOf(n.id)
	r.mu.RUnlock()
	if closed {
		return
	}
	locked := false
	for _, m := range ms {
		lost := flags&msg.FlagReliable == 0 && r.bernoulli(cond.LossIn)
		if cond.Down || lost {
			r.collector.OnDrop(m, m.WireSize())
			continue
		}
		delay := cond.LatencyBase/2 + r.jitter(cond.LatencyJitter/2)
		if flags&msg.FlagReliable != 0 {
			delay *= net.ReliableSetupFactor // the receiver's half
		}
		if delay > 0 {
			r.clock.push(delay, job{node: n, m: m, from: m.From()})
			continue
		}
		if !locked {
			n.mu.Lock()
			n.out.begin()
			locked = true
		}
		r.dispatch(n, m.From(), m)
	}
	if locked {
		n.out.flush(n)
		n.mu.Unlock()
	}
}

// dispatch hands m to n's handler. n's lock is held.
func (r *Runtime) dispatch(n *nodeCtx, from msg.NodeID, m msg.Message) {
	r.collector.OnDeliver(n.id, m, m.WireSize())
	if n.h != nil {
		n.h.HandleMessage(from, m)
	}
}

// Close implements runtime.Runtime: it stops delivery, stops the clock —
// its pending jobs are dropped, not waited out, and delayed frames go back
// to the pool — closes every socket, and waits for the receive loops and for
// the job the clock may be running. Close is idempotent and safe to call
// concurrently; every caller returns only after the drain completes.
func (r *Runtime) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.clock.stop()
		for _, n := range r.nodes {
			n.conn.Close()
		}
	}
	r.mu.Unlock()
	r.loops.Wait()
}
