// Package gossip implements the three-phase gossip dissemination protocol
// of §3 of the paper: every gossip period Tg a node proposes the chunks it
// received during the previous period to f uniform random partners; partners
// request the chunks they miss; the proposer serves the requested chunks.
// Dissemination is infect-and-die: a chunk is proposed exactly once.
//
// The protocol logic is written against sim.Context so the same node code
// runs deterministically under the discrete-event engine and in wall-clock
// time over the UDP transport.
package gossip

import (
	"cmp"
	"fmt"
	"slices"
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

// Config holds the dissemination parameters.
type Config struct {
	// F is the fanout (7 on PlanetLab, 12 in the large simulations).
	F int
	// Period is the gossip period Tg (500 ms in the paper's deployment).
	Period time.Duration
	// ChunkPayload is the stream's chunk payload size in bytes: what a
	// serve of a chunk the node no longer stores says it would have carried.
	ChunkPayload int
	// RequestRetry is how long an outstanding request blocks re-requesting
	// the same chunk from a later proposal (loss recovery over UDP).
	// Defaults to Period/2.
	RequestRetry time.Duration
	// HistoryPeriods is nh, the number of gossip periods retained in the
	// accountability log (50 in the paper).
	HistoryPeriods int
	// StartOffset staggers the first propose phase to desynchronize nodes.
	StartOffset time.Duration
	// PhaseJitter adds a symmetric random component in [-j/2, j/2) to each
	// period, so phase positions drift instead of staying locked for the
	// whole run. Identical periods freeze the relative propose order, and
	// with it each node's share of the first-proposal race — and therefore
	// its service demand. Real deployments are not phase-locked; 0 keeps
	// the locked behavior.
	PhaseJitter time.Duration
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.F <= 0 {
		return fmt.Errorf("gossip: fanout must be positive, got %d", c.F)
	}
	if c.Period <= 0 {
		return fmt.Errorf("gossip: period must be positive, got %v", c.Period)
	}
	if c.HistoryPeriods <= 0 {
		return fmt.Errorf("gossip: history periods must be positive, got %d", c.HistoryPeriods)
	}
	return nil
}

// AuxHandler consumes non-dissemination messages (LiFTinG verification and
// reputation traffic). It reports whether it handled the message.
type AuxHandler interface {
	HandleAux(from msg.NodeID, m msg.Message) bool
}

// Deps wires a node to its environment. Every field is required but the
// three that say what nil means.
type Deps struct {
	Ctx      sim.Context
	Net      net.Network
	Dir      *membership.Directory
	Rand     *rng.Stream
	Behavior Behavior
	// Monitor observes the node for LiFTinG's verifications; nil (LiFTinG
	// off) is NopMonitor{}.
	Monitor Monitor
	// Aux receives verification/reputation messages; nil when LiFTinG is
	// off.
	Aux AuxHandler
	// History is the node's accountability log, retaining
	// Config.HistoryPeriods periods. It is also where a request is checked
	// against the proposal it names.
	History *history.Log
	// OnChunk fires once per distinct chunk received, with the arrival time
	// (feeds the playout and stream-lag metrics).
	OnChunk func(c msg.ChunkID, at time.Duration)
	// Sends is the set of blocks of the node's execution context that every
	// message it sends, and the lists they carry, are carved from: the
	// context's one set, shared with its other nodes and components.
	Sends *msg.Sends
	// Metrics receives redundancy accounting: duplicate vs useful serves,
	// invalid serves and the propose→serve latency per accepted chunk.
	Metrics *metrics.Collector
	// Store holds the payloads the node serves: a serve carries the real
	// bytes, and an incoming serve is verified against its content hash
	// before acceptance — an invalid payload is rejected and blamed like an
	// undelivered serve.
	Store *content.Store
	// VerifiedOnce, if non-nil, is the table of payloads that already
	// passed the full content hash, shared by every node of a runtime that
	// delivers payloads by reference (the sim): a serve carrying the very
	// slice a neighbour verified is accepted without hashing it again
	// (content.Store.Verified). Nil hashes every payload — what a node
	// behind a socket does, where every receiver decodes its own copy.
	VerifiedOnce *content.Store
}

// Node is one participant in the dissemination protocol.
type Node struct {
	id   msg.NodeID
	cfg  Config
	deps Deps

	period  msg.Period
	stopped bool
	// phaseFn is proposePhase as a value, made once: every period hands it
	// to the timer again.
	phaseFn func()

	have     haveSet
	wants    wantTable
	askLimit int // askLimitFor(cfg)
	// retries are the requests of the last RequestRetry: when one's time is
	// up, each chunk of it still missing is asked of another proposer.
	retries *sim.Deadlines[sentRequest]

	// pending are the chunks received since the last propose phase, in
	// arrival order: the next proposal, carved from it at the phase.
	// pendingFrom names the server of each (0 for an injected chunk). Both
	// are scratch, reused every period, as is picked, where a request or a
	// serve list is gathered before it is carved.
	pending     []msg.ChunkID
	pendingFrom []msg.NodeID
	picked      []msg.ChunkID

	// fanin logs the serves accepted in the current period in arrival order;
	// a propose phase groups it by server into servers, one fanin record per
	// server per period. Both are scratch, reused every period.
	fanin   []arrival
	servers []msg.ServeRecord

	// phases is the ring of the last nh propose phases' consumed marks, so
	// that a chunk is served once per proposal (nodes only serve chunks in
	// P ∩ R, §3; the log says what P was). Period p lives in phases[p%nh];
	// the ring is made by the first proposal.
	phases []phase
}

type arrival struct {
	server msg.NodeID
	chunk  msg.ChunkID
}

// sentRequest is one Request as loss recovery remembers it; chunks is the
// list the message carries.
type sentRequest struct {
	server msg.NodeID
	chunks []msg.ChunkID
}

// NewNode creates a node. It panics if cfg is invalid (programmer error);
// use cfg.Validate to check configurations from external input.
func NewNode(id msg.NodeID, cfg Config, deps Deps) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if deps.Monitor == nil {
		deps.Monitor = NopMonitor{}
	}
	if cfg.RequestRetry == 0 {
		cfg.RequestRetry = cfg.Period / 2
	}
	limit := wantCapFor(cfg)
	n := &Node{
		id:       id,
		cfg:      cfg,
		deps:     deps,
		have:     haveSet{horizon: limit},
		wants:    newWantTable(limit),
		askLimit: askLimitFor(cfg),
	}
	n.phaseFn = n.proposePhase
	n.retries = sim.NewDeadlines(deps.Ctx, cfg.RequestRetry, n.retry)
	return n
}

// History returns the node's accountability log.
//
//lint:allow no-orphan TestNodeMatchesMapReference and TestShardsZeroEqualsOne read the logs the nodes keep
func (n *Node) History() *history.Log { return n.deps.History }

// Behavior returns the node's behavior.
//
//lint:allow no-orphan TestOneNodeClustersAssembleLikeCluster compares it between cluster.New and one-node clusters
func (n *Node) Behavior() Behavior { return n.deps.Behavior }

// Have reports whether the node holds chunk c.
func (n *Node) Have(c msg.ChunkID) bool { return n.have.has(c) }

// ChunkCount returns the number of distinct chunks held.
func (n *Node) ChunkCount() int { return n.have.count }

// Start schedules the periodic propose phases. Call once.
func (n *Node) Start() {
	n.deps.Ctx.After(n.cfg.StartOffset, n.phaseFn)
}

// Stop halts the node for good: no further phases run, incoming messages are
// ignored, and its retry queue and (through Monitor.OnStop) its verifier's
// open checks are dropped, so nothing armed before the stop re-requests or
// blames. Every removal uses it: leave, expulsion, crash.
func (n *Node) Stop() {
	n.stopped = true
	n.retries.Release()
	n.deps.Monitor.OnStop()
}

// Stopped reports whether the node has been stopped.
func (n *Node) Stopped() bool { return n.stopped }

// InjectChunkData hands the node a chunk out-of-band, as if generated
// locally, together with its canonical payload bytes: the stream source's
// entry point. The chunk is proposed in the next propose phase; the payload
// slice is retained by the store, not copied.
func (n *Node) InjectChunkData(c msg.ChunkID, payload []byte, hash uint64) {
	if n.have.has(c) {
		return
	}
	n.deps.Store.Put(c, payload, hash)
	n.hold(c, 0)
}

// hold marks c held and queues it for the next proposal; from is the node
// that served it.
func (n *Node) hold(c msg.ChunkID, from msg.NodeID) {
	n.have.add(c)
	n.pending = append(n.pending, c)
	n.pendingFrom = append(n.pendingFrom, from)
}

// Store returns the node's chunk store.
func (n *Node) Store() *content.Store { return n.deps.Store }

// proposePhase runs one propose phase and reschedules itself.
func (n *Node) proposePhase() {
	if n.stopped {
		return
	}
	n.period++
	nh := msg.Period(n.cfg.HistoryPeriods)
	n.wants.expire(n.period, nh)

	// Flush last period's fanin into the accountability log, and keep the
	// grouping for the ack duty (§5.2).
	serversLast := n.groupFanin()
	for _, s := range serversLast {
		n.deps.History.RecordServeReceived(s.Period, s.Server, s.Chunks)
	}

	from := n.pendingFrom
	var proposal []msg.ChunkID
	if len(n.pending) > 0 {
		proposal = n.deps.Sends.KeptChunks(len(n.pending))
		copy(proposal, n.pending)
	}
	n.pending, n.pendingFrom = n.pending[:0], n.pendingFrom[:0]

	b := n.deps.Behavior
	var partners []msg.NodeID
	var advertised []msg.ChunkID
	if len(proposal) > 0 {
		advertised = b.FilterProposal(n.deps.Rand, proposal, from)
		// Everyone the list is handed to from here on only reads it.
		advertised = slices.Clip(advertised)
		if len(advertised) > 0 {
			count := b.Fanout(n.cfg.F)
			// The log keeps the list nh periods, and every ack names it.
			partners = slices.Clip(b.SelectPartners(n.deps.Rand, n.deps.Dir, n.id, count, n.deps.Sends.Partners(count)))
		}
	}
	if len(partners) > 0 {
		// One message for the whole fan-out: a message is read-only once
		// sent. A partner gets its own only when the behavior claims other
		// origins to it (the draws are made per partner, per chunk).
		origins := n.deps.Sends.Origins(len(advertised))
		originsOf(origins, advertised, proposal, from)
		shared := n.deps.Sends.Propose(msg.Propose{Sender: n.id, Period: n.period, Chunks: advertised, Origins: origins})
		for _, p := range partners {
			m := shared
			var claimed []msg.NodeID
			for i, o := range origins {
				co := b.ClaimedOrigin(o)
				if co != o && claimed == nil {
					claimed = n.deps.Sends.Origins(len(origins))
					copy(claimed, origins)
				}
				if claimed != nil {
					claimed[i] = co
				}
			}
			if claimed != nil {
				m = n.deps.Sends.Propose(msg.Propose{Sender: n.id, Period: n.period, Chunks: advertised, Origins: claimed})
			}
			n.deps.Net.Send(n.id, p, m, net.Unreliable)
		}
		n.deps.History.RecordProposalsSent(n.period, partners, advertised)
		if n.phases == nil {
			n.phases = make([]phase, nh)
		}
		n.phases[n.period%nh].set(len(advertised) * len(partners))
	}

	n.deps.Monitor.OnProposePhase(n.period, partners, advertised, serversLast)

	next := time.Duration(float64(n.cfg.Period) * b.PeriodFactor())
	if j := n.cfg.PhaseJitter; j > 0 {
		next += time.Duration((n.deps.Rand.Float64() - 0.5) * float64(j))
	}
	if next <= 0 {
		next = n.cfg.Period
	}
	n.deps.Ctx.After(next, n.phaseFn)
}

// groupFanin turns the period's arrival log into one record per server, in
// server order, each with its chunks in arrival order. The records are
// scratch, good until the next call; the chunk lists are one list carved
// from the long-lived send blocks, which whoever is handed them may keep.
func (n *Node) groupFanin() []msg.ServeRecord {
	n.servers = n.servers[:0]
	if len(n.fanin) == 0 {
		return nil
	}
	slices.SortStableFunc(n.fanin, func(a, b arrival) int { return cmp.Compare(a.server, b.server) })
	chunks := n.deps.Sends.KeptChunks(len(n.fanin))
	start := 0
	for i, a := range n.fanin {
		chunks[i] = a.chunk
		if i+1 == len(n.fanin) || n.fanin[i+1].server != a.server {
			n.servers = append(n.servers, msg.ServeRecord{Period: n.period - 1, Server: a.server, Chunks: chunks[start : i+1 : i+1]})
			start = i + 1
		}
	}
	n.fanin = n.fanin[:0]
	return n.servers
}

// originsOf fills origins with the server of each advertised chunk, given
// the proposal it was filtered from — a filter keeps the order — and the
// servers of that. A chunk that is not of the proposal has origin 0.
func originsOf(origins []msg.NodeID, advertised, proposal []msg.ChunkID, from []msg.NodeID) {
	j := 0
	for i, c := range advertised {
		for j < len(proposal) && proposal[j] != c {
			j++
		}
		if j < len(proposal) {
			origins[i] = from[j]
			j++
		}
	}
}

// HandleMessage implements net.Handler: the dissemination dispatch. Unknown
// kinds go to the aux handler (LiFTinG, reputation).
func (n *Node) HandleMessage(from msg.NodeID, m msg.Message) {
	if n.stopped {
		return
	}
	switch v := m.(type) {
	case *msg.Propose:
		n.onPropose(from, v)
	case *msg.Request:
		n.onRequest(from, v)
	case *msg.Serve:
		n.onServe(from, v)
	default:
		if n.deps.Aux != nil {
			n.deps.Aux.HandleAux(from, m)
		}
	}
}

var _ net.Handler = (*Node)(nil)

func (n *Node) onPropose(from msg.NodeID, m *msg.Propose) {
	n.deps.History.RecordProposalReceived(n.period, from, m.Chunks)
	now := n.deps.Ctx.Now()
	n.picked = n.picked[:0]
	for _, c := range m.Chunks {
		if n.have.has(c) {
			continue
		}
		// Remember the offer for loss recovery regardless of whether we
		// request now.
		w := n.wants.obtain(c, n.period)
		w.offer(from, m.Period)
		// Skip chunks with an outstanding request that has not yet timed
		// out; its retry deadline recovers them if the serve never arrives.
		if w.requested && now-w.lastRequest < n.cfg.RequestRetry {
			continue
		}
		n.picked = append(n.picked, c)
	}
	if len(n.picked) == 0 {
		return
	}
	n.sendRequest(from, m.Period, n.deps.Sends.Chunks(n.picked))
}

// sendRequest issues a request and opens its recovery deadline.
func (n *Node) sendRequest(to msg.NodeID, period msg.Period, chunks []msg.ChunkID) {
	now := n.deps.Ctx.Now()
	for _, c := range chunks {
		n.wants.obtain(c, n.period).ask(to, now, n.askLimit)
	}
	n.deps.Net.Send(n.id, to, n.deps.Sends.Request(msg.Request{Sender: n.id, Period: period, Chunks: chunks}), net.Unreliable)
	n.deps.Monitor.OnRequestSent(to, period, chunks)
	n.retries.Push(sentRequest{server: to, chunks: chunks})
}

// retry re-requests each still-missing chunk of a request from an
// alternative proposer.
func (n *Node) retry(r sentRequest) {
	for _, c := range r.chunks {
		if n.have.has(c) {
			continue
		}
		w := n.wants.get(c)
		if w == nil || w.retries >= maxRetries {
			continue
		}
		for _, o := range w.offers[:w.nOffers] {
			if o.from != r.server && !w.askedFrom(o.from) {
				w.retries++
				n.sendRequest(o.from, o.period, n.deps.Sends.Chunks([]msg.ChunkID{c}))
				break
			}
		}
	}
}

func (n *Node) onRequest(from msg.NodeID, m *msg.Request) {
	advertised, ph, row := n.proposalTo(from, m.Period)
	if ph == nil {
		// Requests that do not correspond to a proposal are ignored (§4.2).
		return
	}
	n.picked = n.picked[:0]
	for _, c := range m.Chunks {
		// Each chunk is served at most once per proposal, even across
		// repeated requests.
		if i := slices.Index(advertised, c); i >= 0 && ph.consume(row*len(advertised)+i) {
			n.picked = append(n.picked, c)
		}
	}
	if len(n.picked) == 0 {
		return
	}
	served := n.deps.Behavior.FilterServe(n.deps.Rand, n.deps.Sends.Chunks(n.picked))
	// The serves of one request are carved together; a message is
	// read-only once sent, so nothing else tells them apart from separate
	// ones.
	serves := n.deps.Sends.Serves(len(served))
	for i, c := range served {
		serve := &serves[i]
		*serve = msg.Serve{
			Sender:      n.id,
			Period:      m.Period,
			Chunk:       c,
			PayloadSize: n.cfg.ChunkPayload,
		}
		// A store miss (evicted, or never verified in) sends the serve
		// without payload; the receiver rejects and blames it, which is
		// exactly what proposing undeliverable chunks deserves.
		if payload, hash, ok := n.deps.Store.Get(c); ok {
			serve.PayloadSize = len(payload)
			serve.Hash = hash
			serve.Payload = payload
		}
		n.deps.Net.Send(n.id, from, serve, net.Unreliable)
	}
	if len(served) > 0 {
		n.deps.Monitor.OnServed(from, m.Period, served)
	}
}

// proposalTo returns the chunks advertised to partner in the given period,
// the phase that marks which of them were requested and partner's row in it,
// if that proposal is younger than nh periods and is the last one partner
// got: a later proposal supersedes an earlier one. The log holds every phase
// of the ring's nh periods: its records are made at n.period, at n.period−1
// or at its own newest period, so that newest is at most n.period and its
// window (newest−nh, newest] reaches back at least as far as the ring's.
func (n *Node) proposalTo(partner msg.NodeID, period msg.Period) ([]msg.ChunkID, *phase, int) {
	nh := msg.Period(n.cfg.HistoryPeriods)
	if period == 0 || period > n.period || n.period-period >= nh {
		return nil, nil, 0
	}
	last, advertised, row, ok := n.deps.History.LastProposalTo(partner)
	if !ok || last != period {
		return nil, nil, 0
	}
	return advertised, &n.phases[period%nh], row
}

func (n *Node) onServe(from msg.NodeID, m *msg.Serve) {
	if n.have.has(m.Chunk) {
		// Pure redundancy on the wire: a second copy of a chunk this node
		// already holds (a lost ack, overlapping proposals, a retry race).
		n.deps.Metrics.OnDuplicateChunk()
		return
	}
	w := n.wants.get(m.Chunk)
	if w == nil || !w.askedFrom(from) {
		// Unsolicited serve; the protocol only accepts chunks in P ∩ R.
		return
	}
	if !n.deps.VerifiedOnce.Verified(m.Chunk, m.Payload, m.Hash) {
		// Missing or corrupted payload: reject before accepting, leaving
		// the want record intact so the open retry deadline re-requests the
		// chunk from a different proposer.
		n.deps.Metrics.OnInvalidServe()
		n.deps.Monitor.OnServeInvalid(from, m.Chunk)
		return
	}
	n.deps.Store.Put(m.Chunk, m.Payload, m.Hash)
	n.deps.Metrics.OnUsefulChunk(n.deps.Ctx.Now()-w.lastRequest, len(m.Payload))
	n.wants.release(w)
	n.hold(m.Chunk, from)
	n.fanin = append(n.fanin, arrival{server: from, chunk: m.Chunk})
	n.deps.OnChunk(m.Chunk, n.deps.Ctx.Now())
	n.deps.Monitor.OnServeReceived(from, m.Chunk)
}
