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
	"fmt"
	"sort"
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
	// MaxRequest caps |R|, the number of chunks requested per proposal
	// (0 = unlimited). The paper's analysis assumes a constant |R| = 4.
	MaxRequest int
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
}

// Node is one participant in the dissemination protocol.
type Node struct {
	id   msg.NodeID
	cfg  Config
	deps Deps

	period  msg.Period
	stopped bool

	have map[msg.ChunkID]bool
	// requestedFrom records every server a chunk was requested from, so
	// that serves are only accepted from nodes that proposed the chunk;
	// lastRequest lets a node re-request a chunk from a later proposal when
	// the serve was lost (the protocol runs over UDP).
	requestedFrom map[msg.ChunkID]map[msg.NodeID]bool
	lastRequest   map[msg.ChunkID]time.Duration
	originOf      map[msg.ChunkID]msg.NodeID // chunk → server that delivered it
	pending       []msg.ChunkID              // received since last propose phase

	// faninAccum groups chunks received in the current period by server;
	// flushed into the history as one fanin record per server per period.
	faninAccum map[msg.NodeID][]msg.ChunkID

	// outProposals tracks the last proposal sent to each partner so that
	// requests can be validated (nodes only serve chunks in P ∩ R, §3).
	outProposals map[msg.NodeID]*outProposal

	// offers remembers which other nodes proposed a still-missing chunk, so
	// a lost request or serve can be recovered by re-requesting elsewhere.
	offers  map[msg.ChunkID][]offer
	retries map[msg.ChunkID]int
}

type outProposal struct {
	period msg.Period
	chunks map[msg.ChunkID]bool
	// consumed marks chunks already requested from this proposal: each
	// chunk is served at most once per proposal.
	consumed map[msg.ChunkID]bool
}

type offer struct {
	from   msg.NodeID
	period msg.Period
}

// maxRetries bounds per-chunk recovery attempts; maxOffers bounds the
// remembered alternatives.
const (
	maxRetries = 3
	maxOffers  = 8
)

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
	return &Node{
		id:            id,
		cfg:           cfg,
		deps:          deps,
		have:          make(map[msg.ChunkID]bool),
		requestedFrom: make(map[msg.ChunkID]map[msg.NodeID]bool),
		lastRequest:   make(map[msg.ChunkID]time.Duration),
		originOf:      make(map[msg.ChunkID]msg.NodeID),
		faninAccum:    make(map[msg.NodeID][]msg.ChunkID),
		outProposals:  make(map[msg.NodeID]*outProposal),
		offers:        make(map[msg.ChunkID][]offer),
		retries:       make(map[msg.ChunkID]int),
	}
}

// ID returns the node id.
func (n *Node) ID() msg.NodeID { return n.id }

// History returns the node's accountability log.
func (n *Node) History() *history.Log { return n.deps.History }

// Period returns the node's current gossip period index.
func (n *Node) Period() msg.Period { return n.period }

// Behavior returns the node's behavior.
func (n *Node) Behavior() Behavior { return n.deps.Behavior }

// Have reports whether the node holds chunk c.
func (n *Node) Have(c msg.ChunkID) bool { return n.have[c] }

// ChunkCount returns the number of distinct chunks held.
func (n *Node) ChunkCount() int { return len(n.have) }

// Start schedules the periodic propose phases. Call once.
func (n *Node) Start() {
	n.deps.Ctx.After(n.cfg.StartOffset, n.proposePhase)
}

// Stop halts the node: no further phases run and incoming messages are
// ignored. Used when a node is expelled.
func (n *Node) Stop() { n.stopped = true }

// Stopped reports whether the node has been stopped.
func (n *Node) Stopped() bool { return n.stopped }

// InjectChunk hands the node a chunk out-of-band, as if generated locally.
// The stream source uses this to introduce fresh chunks; they are proposed
// in the next propose phase.
func (n *Node) InjectChunk(c msg.ChunkID) {
	if n.have[c] {
		return
	}
	n.have[c] = true
	n.pending = append(n.pending, c)
}

// InjectChunkData hands the node a chunk together with its canonical payload
// bytes: the stream source's entry point under the content plane. The
// payload slice is retained by the store, not copied.
func (n *Node) InjectChunkData(c msg.ChunkID, payload []byte, hash uint64) {
	if n.have[c] {
		return
	}
	if n.deps.Store != nil {
		n.deps.Store.Put(c, payload, hash)
	}
	n.have[c] = true
	n.pending = append(n.pending, c)
}

// Store returns the node's chunk store (nil in modelled-only runs).
func (n *Node) Store() *content.Store { return n.deps.Store }

// proposePhase runs one propose phase and reschedules itself.
func (n *Node) proposePhase() {
	if n.stopped {
		return
	}
	n.period++

	// Flush last period's fanin into the accountability log, and keep the
	// grouping for the ack duty (§5.2). Iterate servers in sorted order so
	// runs are reproducible.
	serversLast := n.faninAccum
	n.faninAccum = make(map[msg.NodeID][]msg.ChunkID)
	for _, server := range sortedNodeKeys(serversLast) {
		n.deps.History.RecordServeReceived(n.period-1, server, serversLast[server])
	}

	proposal := n.pending
	n.pending = nil

	b := n.deps.Behavior
	var partners []msg.NodeID
	var advertised []msg.ChunkID
	if len(proposal) > 0 {
		advertised = b.FilterProposal(n.deps.Rand, proposal, func(c msg.ChunkID) msg.NodeID {
			return n.originOf[c]
		})
		if len(advertised) > 0 {
			count := b.Fanout(n.cfg.F)
			partners = b.SelectPartners(n.deps.Rand, n.deps.Dir, n.id, count)
			for _, p := range partners {
				origins := make([]msg.NodeID, len(advertised))
				for i, c := range advertised {
					origins[i] = b.ClaimedOrigin(n.originOf[c])
				}
				n.deps.Net.Send(n.id, p, &msg.Propose{
					Sender:  n.id,
					Period:  n.period,
					Chunks:  advertised,
					Origins: origins,
				}, net.Unreliable)
				n.deps.History.RecordProposalSent(n.period, p, advertised)
				n.outProposals[p] = &outProposal{
					period:   n.period,
					chunks:   chunkSet(advertised),
					consumed: make(map[msg.ChunkID]bool),
				}
			}
		}
	}

	n.deps.Monitor.OnProposePhase(n.period, partners, advertised, serversLast)

	next := time.Duration(float64(n.cfg.Period) * b.PeriodFactor())
	if j := n.cfg.PhaseJitter; j > 0 {
		next += time.Duration((n.deps.Rand.Float64() - 0.5) * float64(j))
	}
	if next <= 0 {
		next = n.cfg.Period
	}
	n.deps.Ctx.After(next, n.proposePhase)
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
	for _, c := range m.Chunks {
		if n.have[c] {
			continue
		}
		// Remember the offer for loss recovery regardless of whether we
		// request now.
		if alts := n.offers[c]; len(alts) < maxOffers {
			n.offers[c] = append(alts, offer{from: from, period: m.Period})
		}
		// Skip chunks with an outstanding request that has not yet timed
		// out; the retry timer recovers them if the serve never arrives.
		if at, already := n.lastRequest[c]; already && now-at < n.cfg.RequestRetry {
			continue
		}
		needed = append(needed, c)
		if n.cfg.MaxRequest > 0 && len(needed) == n.cfg.MaxRequest {
			break
		}
	}
	if len(needed) == 0 {
		return
	}
	n.sendRequest(from, m.Period, needed)
}

// sendRequest issues a request and arms per-chunk recovery timers.
func (n *Node) sendRequest(to msg.NodeID, period msg.Period, chunks []msg.ChunkID) {
	now := n.deps.Ctx.Now()
	for _, c := range chunks {
		set, ok := n.requestedFrom[c]
		if !ok {
			set = make(map[msg.NodeID]bool, 1)
			n.requestedFrom[c] = set
		}
		set[to] = true
		n.lastRequest[c] = now
	}
	n.deps.Net.Send(n.id, to, &msg.Request{Sender: n.id, Period: period, Chunks: chunks}, net.Unreliable)
	n.deps.Monitor.OnRequestSent(to, period, chunks)
	for _, c := range chunks {
		c := c
		n.deps.Ctx.After(n.cfg.RequestRetry, func() { n.retry(c, to) })
	}
}

// retry re-requests a still-missing chunk from an alternative proposer.
func (n *Node) retry(c msg.ChunkID, lastServer msg.NodeID) {
	if n.stopped || n.have[c] {
		return
	}
	if n.retries[c] >= maxRetries {
		return
	}
	var alt *offer
	for i := range n.offers[c] {
		o := &n.offers[c][i]
		if o.from != lastServer && !n.requestedFrom[c][o.from] {
			alt = o
			break
		}
	}
	if alt == nil {
		return
	}
	n.retries[c]++
	n.sendRequest(alt.from, alt.period, []msg.ChunkID{c})
}

func (n *Node) onRequest(from msg.NodeID, m *msg.Request) {
	op, ok := n.outProposals[from]
	if !ok || op.period != m.Period {
		// Requests that do not correspond to a proposal are ignored (§4.2).
		return
	}
	var valid []msg.ChunkID
	for _, c := range m.Chunks {
		if op.chunks[c] && !op.consumed[c] {
			// Each chunk is served at most once per proposal, even across
			// repeated requests.
			op.consumed[c] = true
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 {
		return
	}
	served := n.deps.Behavior.FilterServe(n.deps.Rand, valid)
	for _, c := range served {
		serve := &msg.Serve{
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

func (n *Node) onServe(from msg.NodeID, m *msg.Serve) {
	if n.have[m.Chunk] {
		// Pure redundancy on the wire: a second copy of a chunk this node
		// already holds (a lost ack, overlapping proposals, a retry race).
		if n.deps.Metrics != nil {
			n.deps.Metrics.OnDuplicateChunk(n.id)
		}
		return
	}
	if !n.requestedFrom[m.Chunk][from] {
		// Unsolicited serve; the protocol only accepts chunks in P ∩ R.
		return
	}
	if n.deps.Store != nil {
		if !content.Verify(m.Payload, m.Hash) {
			// Missing or corrupted payload: reject before accepting, leaving
			// lastRequest and the offer list intact so the armed retry timer
			// re-requests the chunk from a different proposer.
			if n.deps.Metrics != nil {
				n.deps.Metrics.OnInvalidServe(n.id)
			}
			n.deps.Monitor.OnServeInvalid(from, m.Chunk)
			return
		}
		n.deps.Store.Put(m.Chunk, m.Payload, m.Hash)
	}
	if n.deps.Metrics != nil {
		// lastRequest is about to be cleared below — read the latency now.
		payloadBytes := m.PayloadSize
		if m.Payload != nil {
			payloadBytes = len(m.Payload)
		}
		n.deps.Metrics.OnUsefulChunk(n.id, n.deps.Ctx.Now()-n.lastRequest[m.Chunk], payloadBytes)
	}
	delete(n.requestedFrom, m.Chunk)
	delete(n.lastRequest, m.Chunk)
	delete(n.offers, m.Chunk)
	delete(n.retries, m.Chunk)
	n.have[m.Chunk] = true
	n.originOf[m.Chunk] = from
	n.pending = append(n.pending, m.Chunk)
	n.faninAccum[from] = append(n.faninAccum[from], m.Chunk)
	if n.deps.OnChunk != nil {
		n.deps.OnChunk(m.Chunk, n.deps.Ctx.Now())
	}
	n.deps.Monitor.OnServeReceived(from, m.Chunk)
}

// sortedNodeKeys returns the keys of m in ascending order, for
// deterministic iteration.
func sortedNodeKeys(m map[msg.NodeID][]msg.ChunkID) []msg.NodeID {
	keys := make([]msg.NodeID, 0, len(m))
	//lint:allow ordered-map-range collect-then-sort: this helper exists to produce the sorted order
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func chunkSet(chunks []msg.ChunkID) map[msg.ChunkID]bool {
	s := make(map[msg.ChunkID]bool, len(chunks))
	for _, c := range chunks {
		s[c] = true
	}
	return s
}
