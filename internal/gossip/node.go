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
	// ChunkPayload is the modelled chunk payload size in bytes.
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

// Deps wires a node to its environment.
type Deps struct {
	Ctx  sim.Context
	Net  net.Network
	Dir  *membership.Directory
	Rand *rng.Stream
	// Behavior defaults to Honest{}.
	Behavior Behavior
	// Monitor defaults to NopMonitor{}.
	Monitor Monitor
	// Aux receives verification/reputation messages; may be nil.
	Aux AuxHandler
	// History defaults to a fresh log with Config.HistoryPeriods retention.
	History *history.Log
	// OnChunk, if non-nil, fires once per distinct chunk received, with the
	// arrival time (feeds the playout/health metric).
	OnChunk func(c msg.ChunkID, at time.Duration)
	// Metrics, if non-nil, receives redundancy accounting: duplicate vs
	// useful serves and the propose→serve latency per accepted chunk.
	Metrics *metrics.Collector
	// Store, if non-nil, turns on the content plane: serves carry the real
	// payload bytes held in the store, and incoming serves are verified
	// against their content hash before acceptance — an invalid payload is
	// rejected and blamed like an undelivered serve. Nil keeps the
	// modelled-size behavior (serves carry only PayloadSize).
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
	// arrival order: the next proposal. pendingFrom names the server of each
	// (0 for an injected chunk); it is scratch, reused every period.
	pending     []msg.ChunkID
	pendingFrom []msg.NodeID
	// proposed is the size of the last proposal, the size pending starts at.
	proposed int

	// fanin logs the serves accepted in the current period in arrival order;
	// a propose phase groups it by server into servers, one fanin record per
	// server per period. Both are scratch, reused every period.
	fanin   []arrival
	servers []msg.ServeRecord

	// phases is the ring of the last nh propose phases, so that requests can
	// be validated (nodes only serve chunks in P ∩ R, §3). Period p lives in
	// phases[p%nh]; the ring is made by the first proposal.
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
	if deps.Behavior == nil {
		deps.Behavior = Honest{}
	}
	if deps.Monitor == nil {
		deps.Monitor = NopMonitor{}
	}
	if deps.History == nil {
		deps.History = history.NewLog(cfg.HistoryPeriods)
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
//lint:allow no-orphan TestClusterAndNodeHostAssembleAlike compares it across the two assemblies
func (n *Node) Behavior() Behavior { return n.deps.Behavior }

// Have reports whether the node holds chunk c.
func (n *Node) Have(c msg.ChunkID) bool { return n.have.has(c) }

// ChunkCount returns the number of distinct chunks held.
func (n *Node) ChunkCount() int { return n.have.count }

// Start schedules the periodic propose phases. Call once.
func (n *Node) Start() {
	n.deps.Ctx.After(n.cfg.StartOffset, n.phaseFn)
}

// Stop halts the node: no further phases run, incoming messages are ignored
// and nothing is re-requested. Used when a node is expelled.
func (n *Node) Stop() {
	n.stopped = true
	n.retries.Release()
}

// Stopped reports whether the node has been stopped.
//
//lint:allow no-orphan TestExpelOnDetectionRemovesFreeriders and TestChurnScenario check that removed nodes stop
func (n *Node) Stopped() bool { return n.stopped }

// InjectChunkData hands the node a chunk out-of-band, as if generated
// locally, together with its canonical payload bytes: the stream source's
// entry point. The chunk is proposed in the next propose phase; the payload
// slice is retained by the store, not copied.
func (n *Node) InjectChunkData(c msg.ChunkID, payload []byte, hash uint64) {
	if n.have.has(c) {
		return
	}
	if n.deps.Store != nil {
		n.deps.Store.Put(c, payload, hash)
	}
	n.hold(c, 0)
}

// hold marks c held and queues it for the next proposal; from is the node
// that served it.
func (n *Node) hold(c msg.ChunkID, from msg.NodeID) {
	n.have.add(c)
	if n.pending == nil {
		n.pending = make([]msg.ChunkID, 0, max(n.proposed, 1))
	}
	n.pending = append(n.pending, c)
	n.pendingFrom = append(n.pendingFrom, from)
}

// Store returns the node's chunk store (nil in modelled-only runs).
func (n *Node) Store() *content.Store { return n.deps.Store }

// proposePhase runs one propose phase and reschedules itself.
func (n *Node) proposePhase() {
	if n.stopped {
		return
	}
	n.period++
	nh := msg.Period(n.cfg.HistoryPeriods)
	n.wants.expire(n.period, nh)
	if n.phases != nil {
		// The phase nh periods back leaves the ring.
		n.phases[n.period%nh].period = 0
	}

	// Flush last period's fanin into the accountability log, and keep the
	// grouping for the ack duty (§5.2).
	serversLast := n.groupFanin()
	for _, s := range serversLast {
		n.deps.History.RecordServeReceived(s.Period, s.Server, s.Chunks)
	}

	proposal, from := n.pending, n.pendingFrom
	n.pending, n.pendingFrom, n.proposed = nil, n.pendingFrom[:0], len(proposal)

	b := n.deps.Behavior
	var partners []msg.NodeID
	var advertised []msg.ChunkID
	if len(proposal) > 0 {
		advertised = b.FilterProposal(n.deps.Rand, proposal, from)
		// Everyone the list is handed to from here on only reads it.
		advertised = slices.Clip(advertised)
		if len(advertised) > 0 {
			count := b.Fanout(n.cfg.F)
			partners = b.SelectPartners(n.deps.Rand, n.deps.Dir, n.id, count)
		}
	}
	if len(partners) > 0 {
		// One message for the whole fan-out: a message is read-only once
		// sent. A partner gets its own only when the behavior claims other
		// origins to it (the draws are made per partner, per chunk).
		origins := originsOf(advertised, proposal, from)
		shared := &msg.Propose{Sender: n.id, Period: n.period, Chunks: advertised, Origins: origins}
		for _, p := range partners {
			m := shared
			var claimed []msg.NodeID
			for i, o := range origins {
				co := b.ClaimedOrigin(o)
				if co != o && claimed == nil {
					claimed = slices.Clone(origins)
				}
				if claimed != nil {
					claimed[i] = co
				}
			}
			if claimed != nil {
				m = &msg.Propose{Sender: n.id, Period: n.period, Chunks: advertised, Origins: claimed}
			}
			n.deps.Net.Send(n.id, p, m, net.Unreliable)
		}
		n.deps.History.RecordProposalsSent(n.period, partners, advertised)
		if n.phases == nil {
			n.phases = make([]phase, nh)
		}
		n.phases[n.period%nh].set(n.period, advertised, partners)
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
// scratch, good until the next call; the chunk lists are one fresh block
// that whoever is handed them may keep.
func (n *Node) groupFanin() []msg.ServeRecord {
	n.servers = n.servers[:0]
	if len(n.fanin) == 0 {
		return nil
	}
	slices.SortStableFunc(n.fanin, func(a, b arrival) int { return cmp.Compare(a.server, b.server) })
	chunks := make([]msg.ChunkID, len(n.fanin))
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

// originsOf returns the server of each advertised chunk, given the proposal
// it was filtered from — a filter keeps the order — and the servers of that.
// A chunk that is not of the proposal has origin 0.
func originsOf(advertised, proposal []msg.ChunkID, from []msg.NodeID) []msg.NodeID {
	origins := make([]msg.NodeID, len(advertised))
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
	return origins
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
	var needed []msg.ChunkID
	for i, c := range m.Chunks {
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
		if needed == nil {
			needed = make([]msg.ChunkID, 0, len(m.Chunks)-i)
		}
		needed = append(needed, c)
	}
	if len(needed) == 0 {
		return
	}
	n.sendRequest(from, m.Period, needed)
}

// sendRequest issues a request and opens its recovery deadline.
func (n *Node) sendRequest(to msg.NodeID, period msg.Period, chunks []msg.ChunkID) {
	now := n.deps.Ctx.Now()
	for _, c := range chunks {
		n.wants.obtain(c, n.period).ask(to, now, n.askLimit)
	}
	n.deps.Net.Send(n.id, to, &msg.Request{Sender: n.id, Period: period, Chunks: chunks}, net.Unreliable)
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
				n.sendRequest(o.from, o.period, []msg.ChunkID{c})
				break
			}
		}
	}
}

func (n *Node) onRequest(from msg.NodeID, m *msg.Request) {
	ph, row := n.proposalTo(from, m.Period)
	if ph == nil {
		// Requests that do not correspond to a proposal are ignored (§4.2).
		return
	}
	var valid []msg.ChunkID
	for _, c := range m.Chunks {
		// Each chunk is served at most once per proposal, even across
		// repeated requests.
		if i := slices.Index(ph.advertised, c); i >= 0 && ph.consume(row, i) {
			if valid == nil {
				valid = make([]msg.ChunkID, 0, min(len(m.Chunks), len(ph.advertised)))
			}
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 {
		return
	}
	served := n.deps.Behavior.FilterServe(n.deps.Rand, valid)
	// The serves of one request are one block; a message is read-only once
	// sent, so nothing else tells them apart from separate ones.
	serves := make([]msg.Serve, len(served))
	for i, c := range served {
		serve := &serves[i]
		*serve = msg.Serve{
			Sender:      n.id,
			Period:      m.Period,
			Chunk:       c,
			PayloadSize: n.cfg.ChunkPayload,
		}
		if n.deps.Store != nil {
			// A store miss (evicted, or never verified in) sends the serve
			// without payload; the receiver rejects and blames it, which is
			// exactly what proposing undeliverable chunks deserves.
			if payload, hash, ok := n.deps.Store.Get(c); ok {
				serve.PayloadSize = len(payload)
				serve.Hash = hash
				serve.Payload = payload
			}
		}
		n.deps.Net.Send(n.id, from, serve, net.Unreliable)
	}
	if len(served) > 0 {
		n.deps.Monitor.OnServed(from, m.Period, served)
	}
}

// proposalTo returns the phase of the given period and partner's row in it,
// if that phase is still in the ring and is the last one partner was
// proposed to: a later proposal supersedes an earlier one.
func (n *Node) proposalTo(partner msg.NodeID, period msg.Period) (*phase, int) {
	nh := msg.Period(n.cfg.HistoryPeriods)
	if n.phases == nil || period == 0 || period > n.period || n.period-period >= nh {
		return nil, 0
	}
	ph := &n.phases[period%nh]
	if ph.period != period {
		return nil, 0
	}
	row := slices.Index(ph.partners, partner)
	if row < 0 {
		return nil, 0
	}
	for q := period + 1; q <= n.period; q++ {
		if later := &n.phases[q%nh]; later.period == q && slices.Contains(later.partners, partner) {
			return nil, 0
		}
	}
	return ph, row
}

func (n *Node) onServe(from msg.NodeID, m *msg.Serve) {
	if n.have.has(m.Chunk) {
		// Pure redundancy on the wire: a second copy of a chunk this node
		// already holds (a lost ack, overlapping proposals, a retry race).
		if n.deps.Metrics != nil {
			n.deps.Metrics.OnDuplicateChunk()
		}
		return
	}
	w := n.wants.get(m.Chunk)
	if w == nil || !w.askedFrom(from) {
		// Unsolicited serve; the protocol only accepts chunks in P ∩ R.
		return
	}
	if n.deps.Store != nil {
		if !n.deps.VerifiedOnce.Verified(m.Chunk, m.Payload, m.Hash) {
			// Missing or corrupted payload: reject before accepting, leaving
			// the want record intact so the open retry deadline re-requests the
			// chunk from a different proposer.
			if n.deps.Metrics != nil {
				n.deps.Metrics.OnInvalidServe()
			}
			n.deps.Monitor.OnServeInvalid(from, m.Chunk)
			return
		}
		n.deps.Store.Put(m.Chunk, m.Payload, m.Hash)
	}
	if n.deps.Metrics != nil {
		payloadBytes := m.PayloadSize
		if m.Payload != nil {
			payloadBytes = len(m.Payload)
		}
		n.deps.Metrics.OnUsefulChunk(n.deps.Ctx.Now()-w.lastRequest, payloadBytes)
	}
	n.wants.release(w)
	n.hold(m.Chunk, from)
	n.fanin = append(n.fanin, arrival{server: from, chunk: m.Chunk})
	if n.deps.OnChunk != nil {
		n.deps.OnChunk(m.Chunk, n.deps.Ctx.Now())
	}
	n.deps.Monitor.OnServeReceived(from, m.Chunk)
}
