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
// The concurrency contract matches sim.Context: all callbacks for one node — inbound messages, timers, Exec functions — are
// serialized under that node's lock; callbacks for different nodes run
// concurrently.
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
	// Collector receives traffic accounting; may be nil.
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

	bufs sync.Pool // frame buffers on the send path

	// fragID numbers outbound fragmented messages so receivers can group
	// their fragments. Uniqueness per (sender socket, recent window) is all
	// reassembly needs.
	fragID atomic.Uint32

	// timers tracks pending AfterFuncs so Close can cancel the not-yet fired
	// ones instead of waiting out their delays.
	timers   timers
	inflight sync.WaitGroup // timers, Execs and delayed sends
	loops    sync.WaitGroup // per-socket receive loops
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
	return &Runtime{
		start:     time.Now(),
		collector: o.Collector,
		defaults:  o.Defaults,
		book:      book,
		rand:      rng.New(o.Seed),
		nodes:     make(map[msg.NodeID]*nodeCtx),
		conds:     make(map[msg.NodeID]net.Conditions),
		bufs: sync.Pool{New: func() any {
			b := make([]byte, 0, msg.FrameHeaderSize+512)
			return &b
		}},
	}
}

// nodeCtx is one locally hosted node: its socket plus the lock serializing
// all its callbacks.
type nodeCtx struct {
	rt   *Runtime
	id   msg.NodeID
	conn *gonet.UDPConn
	mu   sync.Mutex
	h    net.Handler
}

var _ sim.Context = (*nodeCtx)(nil)

// Now implements sim.Context: time elapsed since the runtime started.
func (n *nodeCtx) Now() time.Duration { return time.Since(n.rt.start) }

// After implements sim.Context: fn runs on a timer goroutine under the
// node's lock, unless the runtime has been closed.
func (n *nodeCtx) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.rt.schedule(d, func() {
		defer n.rt.inflight.Done()
		if n.rt.isClosed() {
			return
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		fn()
	})
}

// Book returns the runtime's address book.
func (r *Runtime) Book() *Book { return r.book }

// AddNode binds a UDP socket for a locally hosted node and starts its
// receive loop. The bound address (with the kernel-assigned port when listen
// ends in ":0") is recorded in the address book and returned. Adding a node
// twice fails.
func (r *Runtime) AddNode(id msg.NodeID, listen string) (*gonet.UDPAddr, error) {
	addr, err := gonet.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving listen address %q: %w", listen, err)
	}
	conn, err := gonet.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: binding node %d to %q: %w", id, listen, err)
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return nil, errors.New("transport: runtime is closed")
	}
	if _, dup := r.nodes[id]; dup {
		r.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("transport: node %d already hosted here", id)
	}
	n := &nodeCtx{rt: r, id: id, conn: conn}
	r.nodes[id] = n
	r.loops.Add(1)
	r.mu.Unlock()

	bound := conn.LocalAddr().(*gonet.UDPAddr)
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

// After implements runtime.Runtime: a harness callback outside any node's
// serialization.
func (r *Runtime) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	r.schedule(d, func() {
		defer r.inflight.Done()
		if r.isClosed() {
			return
		}
		fn()
	})
}

// Exec implements runtime.Runtime: fn runs under node id's lock.
func (r *Runtime) Exec(id msg.NodeID, fn func()) {
	r.Context(id).After(0, fn)
}

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

func (r *Runtime) isClosed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}

// schedule atomically — with respect to Close — registers one in-flight
// callback AND its timer, unless the runtime has closed (then nothing is
// scheduled and false is returned). Both steps happen while the closed flag
// is held shared: Close flips the flag under the exclusive lock before
// cancelling timers and waiting, so every timer either registers in time to
// be cancelled by StopAll or never registers — a timer slipping through the
// gap would stall Close for its full delay, and a late inflight.Add would
// race the WaitGroup contract.
func (r *Runtime) schedule(d time.Duration, fn func()) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return false
	}
	r.inflight.Add(1)
	r.timers.AfterFunc(d, fn)
	return true
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
// codec and shipped as one UDP datagram to the destination's address-book
// entry. Loss and latency from the node conditions are modelled on top of
// the real socket (loopback is effectively lossless and instant, and
// scenarios still want the paper's 4%-loss PlanetLab links); messages to
// down or unknown destinations are dropped like any other network loss.
//
// Each side of a link applies its own conditions: the sender draws LossOut
// and delays by its half of the latency, the receiver draws LossIn and
// delays by its half before dispatching. In a multi-process deployment a
// process only knows its own conditions, so this split is what makes -loss
// and per-node latency work there; in single-process mode it adds up to the
// same end-to-end link model as the other backends.
func (r *Runtime) Send(from, to msg.NodeID, m msg.Message, mode net.Mode) {
	size := m.WireSize()
	if r.collector != nil {
		r.collector.OnSend(from, m, size)
	}

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
	if !drop && mode == net.Unreliable {
		drop = r.bernoulli(src.LossOut)
	}
	latency := src.LatencyBase/2 + r.jitter(src.LatencyJitter/2)
	if mode == net.Reliable {
		// Connection-setup cost of the reliable transport; each side scales
		// its own half.
		latency *= net.ReliableSetupFactor
	}
	copies := 1
	if !drop && mode == net.Unreliable {
		if r.bernoulli(src.ReorderProb) {
			// Hold the datagram back so later sends overtake it.
			latency += src.ReorderDelay
		}
		if r.bernoulli(src.DupProb) {
			// In-network duplication: ship a second identical datagram,
			// accounted as a send of its own so the books balance.
			copies = 2
			if r.collector != nil {
				r.collector.OnSend(from, m, size)
			}
		}
	}

	addr, known := r.book.Lookup(to)
	if drop || !known || sender == nil {
		if r.collector != nil {
			r.collector.OnDrop(m, size)
		}
		return
	}

	var flags uint8
	if mode == net.Reliable {
		flags |= msg.FlagReliable
	}
	bufp := r.bufs.Get().(*[]byte)
	frame, err := msg.AppendFrame((*bufp)[:0], m, flags)
	if err != nil {
		// Outbound messages are constructed by our own protocol code; an
		// encoding failure is a programming error — except for messages that
		// outgrew a datagram (big audit histories, oversized chunks), which
		// ship as a train of fragment frames instead.
		r.bufs.Put(bufp)
		if errors.Is(err, msg.ErrPayloadTooLarge) {
			r.sendFragments(sender, addr, m, size, flags, latency, copies)
			return
		}
		panic(fmt.Sprintf("transport: encoding %T: %v", m, err))
	}
	*bufp = frame

	write := func() {
		for i := 0; i < copies; i++ {
			_, werr := sender.conn.WriteToUDP(frame, addr)
			if werr != nil && r.collector != nil {
				r.collector.OnDrop(m, size)
			}
		}
		r.bufs.Put(bufp)
	}
	if latency <= 0 {
		write()
		return
	}
	if !r.schedule(latency, func() {
		defer r.inflight.Done()
		if r.isClosed() {
			r.bufs.Put(bufp)
			return
		}
		write()
	}) {
		r.bufs.Put(bufp)
	}
}

// sendFragments ships a message too large for one datagram as a train of
// fragment frames; the receiver's reassembler rebuilds the encoding before
// dispatch. All fragments share the modelled latency draw — they leave one
// socket back-to-back. copies > 1 replays the whole train (fault-injected
// duplication); the reassembler ignores the repeats.
func (r *Runtime) sendFragments(sender *nodeCtx, addr *gonet.UDPAddr, m msg.Message, size int, flags uint8, latency time.Duration, copies int) {
	body, err := msg.Encode(m)
	if err != nil {
		panic(fmt.Sprintf("transport: encoding %T: %v", m, err))
	}
	count := (len(body) + msg.MaxFragmentBody - 1) / msg.MaxFragmentBody
	if count > maxFragments {
		if r.collector != nil {
			r.collector.OnDrop(m, size)
		}
		return
	}
	msgID := r.fragID.Add(1)
	frames := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		start, end := i*msg.MaxFragmentBody, (i+1)*msg.MaxFragmentBody
		if end > len(body) {
			end = len(body)
		}
		f, err := msg.AppendFragment(nil, msgID, uint16(i), uint16(count), body[start:end], flags)
		if err != nil {
			panic(fmt.Sprintf("transport: fragmenting %T: %v", m, err))
		}
		frames = append(frames, f)
	}
	write := func() {
		for i := 0; i < copies; i++ {
			for _, f := range frames {
				if _, werr := sender.conn.WriteToUDP(f, addr); werr != nil {
					if r.collector != nil {
						r.collector.OnDrop(m, size)
					}
					return
				}
			}
		}
	}
	if latency <= 0 {
		write()
		return
	}
	r.schedule(latency, func() {
		defer r.inflight.Done()
		if !r.isClosed() {
			write()
		}
	})
}

// maxReassembly bounds the half-built messages a socket keeps. Overflow (a
// burst of loss, or garbage from a hostile peer) clears the table: losing
// half-built state is a retry, keeping it unbounded is a memory hole.
const maxReassembly = 256

// maxFragments is the longest fragment train a peer may announce — and the
// longest sendFragments ships. The largest message the protocol sends is a
// Serve of msg.MaxChunkPayload bytes: that many fragments carry it with most
// of a fragment to spare for its fixed fields (17 at today's constants). A
// header announcing more is not part of any message worth a parts table:
// without the bound one ≈ 30-byte datagram claiming 65 535 fragments made
// the receiver allocate 1.5 MB of slice headers.
const maxFragments = msg.MaxChunkPayload/msg.MaxFragmentBody + 1

// reassembler rebuilds fragmented messages for one receive loop. Keyed by
// (source address, message id); fragment bodies are copied out of the shared
// read buffer. Single-goroutine use, no locking.
type reassembler struct {
	entries map[reasmKey]*reasmEntry
}

type reasmKey struct {
	src   netip.AddrPort
	msgID uint32
}

type reasmEntry struct {
	count uint16
	got   uint16
	parts [][]byte
}

// add folds in one fragment frame payload and returns the full message
// encoding once every fragment has arrived.
func (ra *reassembler) add(src netip.AddrPort, payload []byte) ([]byte, bool) {
	msgID, index, count, body, err := msg.ParseFragment(payload)
	if err != nil || len(body) == 0 || count > maxFragments {
		// sendFragments never emits an empty fragment body, nor a train
		// longer than maxFragments; dropping them here keeps a hostile peer
		// from completing a zero-byte "message" (found by FuzzReassembly)
		// and from sizing the parts table.
		return nil, false
	}
	key := reasmKey{src, msgID}
	e := ra.entries[key]
	if e == nil {
		if len(ra.entries) >= maxReassembly {
			ra.entries = make(map[reasmKey]*reasmEntry)
		}
		e = &reasmEntry{count: count, parts: make([][]byte, count)}
		ra.entries[key] = e
	}
	if e.count != count || int(index) >= len(e.parts) {
		// Contradictory fragment train; throw the whole message away.
		delete(ra.entries, key)
		return nil, false
	}
	if e.parts[index] == nil {
		e.parts[index] = append([]byte(nil), body...)
		e.got++
	}
	if e.got < e.count {
		return nil, false
	}
	delete(ra.entries, key)
	var out []byte
	for _, p := range e.parts {
		out = append(out, p...)
	}
	return out, true
}

// recvLoop reads datagrams off one node's socket until the runtime closes:
// validate the frame, reassemble fragments, learn the sender's address,
// dispatch under the node's lock. Malformed datagrams are dropped —
// FuzzDecode guarantees the decoder survives anything the network delivers.
func (r *Runtime) recvLoop(n *nodeCtx) {
	defer r.loops.Done()
	buf := make([]byte, 1<<16)
	reasm := &reassembler{entries: make(map[reasmKey]*reasmEntry)}
	for {
		sz, srcAddr, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			if r.isClosed() || errors.Is(err, gonet.ErrClosed) {
				return
			}
			continue
		}
		payload, flags, err := msg.RawFrame(buf[:sz])
		if err != nil {
			continue
		}
		var m msg.Message
		if flags&msg.FlagFragment != 0 {
			body, done := reasm.add(srcAddr.AddrPort(), payload)
			if !done {
				continue
			}
			// body is freshly assembled memory; a serve payload aliasing it
			// is owned by the decoded message, no clone needed.
			if m, err = msg.Decode(body); err != nil {
				continue
			}
		} else {
			if m, err = msg.Decode(payload); err != nil {
				continue
			}
			// Decode aliases the reused read buffer; clone retained bytes
			// before the next datagram overwrites them.
			if s, isServe := m.(*msg.Serve); isServe && s.Payload != nil {
				s.Payload = append([]byte(nil), s.Payload...)
			}
		}
		from := m.From()
		r.book.Learn(from, srcAddr)

		r.mu.RLock()
		closed := r.closed
		cond := r.conditionsOf(n.id)
		r.mu.RUnlock()
		if closed {
			return
		}
		// The receiver's side of the link: its inbound loss and its half of
		// the latency apply here, where the node's own conditions are known
		// even when the sender is another process.
		lost := flags&msg.FlagReliable == 0 && r.bernoulli(cond.LossIn)
		if cond.Down || lost {
			if r.collector != nil {
				r.collector.OnDrop(m, m.WireSize())
			}
			continue
		}
		dispatch := func() {
			if r.collector != nil {
				r.collector.OnDeliver(n.id, m, m.WireSize())
			}
			if n.h != nil {
				n.h.HandleMessage(from, m)
			}
		}
		delay := cond.LatencyBase/2 + r.jitter(cond.LatencyJitter/2)
		if flags&msg.FlagReliable != 0 {
			delay *= net.ReliableSetupFactor // the receiver's half
		}
		if delay > 0 {
			n.After(delay, dispatch) // serialized under the node's lock
			continue
		}
		n.mu.Lock()
		dispatch()
		n.mu.Unlock()
	}
}

// Close implements runtime.Runtime: it stops delivery, closes every socket,
// cancels every timer that has not fired, and waits for receive loops and
// in-flight callbacks to drain. Close is idempotent and safe to call
// concurrently; every caller returns only after the drain completes.
func (r *Runtime) Close() {
	r.mu.Lock()
	first := !r.closed
	r.closed = true
	var conns []*gonet.UDPConn
	if first {
		for _, n := range r.nodes {
			conns = append(conns, n.conn)
		}
	}
	r.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	// A cancelled timer's callback never runs (a delayed send's frame buffer
	// is simply dropped); release the in-flight count it holds.
	r.timers.StopAll(r.inflight.Done)
	r.inflight.Wait()
	r.loops.Wait()
}
