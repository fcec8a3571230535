// Package transport is the deployment backend of the runtime seam, and the
// seam's only wall-clock implementation: the same protocol nodes that run
// under the discrete-event simulator here exchange real UDP datagrams
// through the binary codec and the datagram framing of internal/msg.
//
// Every locally hosted node owns one UDP socket; peers are found through an
// address Book that holds every socket the runtime binds and the bootstrap
// specs of the rest. A runtime may host a whole population on loopback (the
// single-process-many-sockets mode behind `lifting-sim -backend udp`) or a
// single node whose peers live in other OS processes or on other machines
// (the lifting-node daemon) — the paper's PlanetLab deployment shape (§7).
//
// The link between two nodes is the one model of internal/net (net.Link),
// applied by the sender: it cuts, delays, holds back and duplicates what a
// node sends before it reaches the wire. The receiver draws only its own
// inbound loss, per message.
//
// The concurrency contract matches sim.Context: all callbacks for one node —
// a datagram's messages, timers, Exec functions — are serialized under that
// node's lock; callbacks for different nodes dispatched by different receive
// loops run concurrently. A datagram's surviving messages are dispatched
// together, as one callback on the receiving socket's loop. Every delay the
// runtime models — each node's timers, the latency of what it sends, the
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

	// rand is the one stream of modelled draws, link and loss, of every
	// sender and receive loop.
	rand draws

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
		rand:      draws{s: rng.New(o.Seed)},
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
// its callbacks, the outbox that frames everything it sends, and the count
// of its delayed datagrams on the runtime's clock.
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

// draws is a stream shared by goroutines: each draw takes its lock, and only
// a draw the conditions call for is made (see net.Link), so lossless
// scenarios pay nothing.
type draws struct {
	mu sync.Mutex
	s  *rng.Stream
}

// Float64 implements net.Rand.
func (d *draws) Float64() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.s.Float64()
}

// Bernoulli implements net.Rand.
func (d *draws) Bernoulli(p float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.s.Bernoulli(p)
}

// Send implements net.Network: the message is framed through the binary
// codec by the sender's outbox (see outbox) and shipped to the
// destination's address-book entry — in the one datagram that carries
// everything the sender sends that peer during the callback it runs in, or
// alone. The sender applies the whole link model, net.Link, on top of the
// real socket (loopback is effectively lossless and instant, and scenarios
// still want the paper's 4%-loss PlanetLab links): it may do so because
// every process knows every member's conditions — a cluster pushes them
// all onto its runtime, and the chaos plan replays in every process. The
// one exception is LossIn, which the receiver draws (see deliver). Messages
// on a cut link or to an unknown destination are dropped like any other
// network loss, and so are messages from an id this runtime does not host:
// it has no socket to send them from.
func (r *Runtime) Send(from, to msg.NodeID, m msg.Message, mode net.Mode) {
	size := m.WireSize()
	r.collector.OnSend(from, m, size)

	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return
	}
	src, dst := r.conditionsOf(from), r.conditionsOf(to)
	sender := r.nodes[from]
	r.mu.RUnlock()
	addr, known := r.book.Lookup(to)
	if sender == nil || !known {
		r.collector.OnDrop(m, size)
		return
	}
	dst.LossIn = 0 // the receiver draws it
	latency, copies, held := net.Link(&src, &dst, mode, &r.rand)
	if copies == 0 {
		r.collector.OnDrop(m, size)
		return
	}
	if copies > 1 {
		// In-network duplication, accounted as a send of its own so the
		// books balance.
		r.collector.OnSend(from, m, size)
	}
	var flags uint8
	if mode == net.Reliable {
		flags = msg.FlagReliable
	}
	var due time.Duration
	if latency > 0 {
		due = r.Now() + latency
	}
	if sender.out.add(sender, to, addr, flags, m, size, due, copies, held) {
		return
	}
	// m outgrew a frame (a long audit history, an oversized chunk): it ships
	// as a fragment train of its encoding; failing to encode is a bug.
	body, err := msg.Encode(m)
	if err != nil {
		panic(fmt.Sprintf("transport: encoding %T: %v", m, err))
	}
	if fragments(body) > maxFragments {
		for range copies {
			r.collector.OnDrop(m, size)
		}
		return
	}
	r.ship(job{node: sender, copies: uint8(copies), flags: flags | msg.FlagFragment, frame: &body, addr: addr}, due)
}

// ship sends one datagram job from its node's socket: at once when due is
// 0, otherwise as a job on the clock at due. An inline job's frame stays
// the caller's; a delayed one's goes to the clock, which releases it when
// the job fires or is refused.
func (r *Runtime) ship(j job, due time.Duration) {
	if due == 0 {
		r.write(&j)
		return
	}
	r.clock.at(due, j)
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
// message, deliver. A malformed datagram is dropped whole, nothing of it
// delivered — FuzzDecode guarantees the decoder survives anything the
// network delivers.
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
	r.deliver(n, ms, flags)
}

// deliver dispatches one datagram's messages to n, together as one
// callback, through the receive loop both runtimes share (net.Receive), so
// what n sends in reply shares datagrams too. The sender has applied the
// link; the receiver draws its own LossIn for each unreliable message, where
// the node's own conditions are known even when the sender is another
// process.
func (r *Runtime) deliver(n *nodeCtx, ms []msg.Message, flags uint8) {
	r.mu.RLock()
	closed := r.closed
	cond := r.conditionsOf(n.id)
	r.mu.RUnlock()
	if closed {
		return
	}
	loss := cond.LossIn
	if flags&msg.FlagReliable != 0 {
		loss = 0
	}
	n.mu.Lock()
	n.out.begin()
	net.Receive(r.collector, ms[0].From(), n.id, n.h, ms, cond.Down, loss, &r.rand) // one sender a datagram (ParseBatch)
	n.out.flush(n)
	n.mu.Unlock()
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
