package gossip_test

import (
	"sort"
	"time"

	"lifting/internal/content"
	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/msg"
	"lifting/internal/net"
)

// refNode is the map-per-message bookkeeping gossip.Node replaced, kept as
// the reference model the equivalence test drives Node against. It is the
// old code verbatim except where the Behavior and Monitor signatures changed
// (origins as a slice beside the chunks, fan-in as sorted records), and it
// has none of Node's bounds: its chunk-keyed maps never forget.
type refNode struct {
	id   msg.NodeID
	cfg  gossip.Config
	deps gossip.Deps

	period  msg.Period
	stopped bool

	have          map[msg.ChunkID]bool
	requestedFrom map[msg.ChunkID]map[msg.NodeID]bool
	lastRequest   map[msg.ChunkID]time.Duration
	originOf      map[msg.ChunkID]msg.NodeID
	pending       []msg.ChunkID
	faninAccum    map[msg.NodeID][]msg.ChunkID
	outProposals  map[msg.NodeID]*refOutProposal
	offers        map[msg.ChunkID][]refOffer
	retries       map[msg.ChunkID]int
}

type refOutProposal struct {
	period   msg.Period
	chunks   map[msg.ChunkID]bool
	consumed map[msg.ChunkID]bool
}

type refOffer struct {
	from   msg.NodeID
	period msg.Period
}

const (
	refMaxRetries = 3
	refMaxOffers  = 8
)

func newRefNode(id msg.NodeID, cfg gossip.Config, deps gossip.Deps) *refNode {
	if deps.History == nil {
		deps.History = history.NewLog(cfg.HistoryPeriods)
	}
	if cfg.RequestRetry == 0 {
		cfg.RequestRetry = cfg.Period / 2
	}
	return &refNode{
		id:            id,
		cfg:           cfg,
		deps:          deps,
		have:          make(map[msg.ChunkID]bool),
		requestedFrom: make(map[msg.ChunkID]map[msg.NodeID]bool),
		lastRequest:   make(map[msg.ChunkID]time.Duration),
		originOf:      make(map[msg.ChunkID]msg.NodeID),
		faninAccum:    make(map[msg.NodeID][]msg.ChunkID),
		outProposals:  make(map[msg.NodeID]*refOutProposal),
		offers:        make(map[msg.ChunkID][]refOffer),
		retries:       make(map[msg.ChunkID]int),
	}
}

func (n *refNode) History() *history.Log   { return n.deps.History }
func (n *refNode) Have(c msg.ChunkID) bool { return n.have[c] }
func (n *refNode) ChunkCount() int         { return len(n.have) }
func (n *refNode) Start()                  { n.deps.Ctx.After(n.cfg.StartOffset, n.proposePhase) }

func (n *refNode) InjectChunkData(c msg.ChunkID, payload []byte, hash uint64) {
	if n.have[c] {
		return
	}
	if n.deps.Store != nil {
		n.deps.Store.Put(c, payload, hash)
	}
	n.have[c] = true
	n.pending = append(n.pending, c)
}

func (n *refNode) proposePhase() {
	if n.stopped {
		return
	}
	n.period++

	accum := n.faninAccum
	n.faninAccum = make(map[msg.NodeID][]msg.ChunkID)
	servers := make([]msg.NodeID, 0, len(accum))
	for k := range accum {
		servers = append(servers, k)
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	var serversLast []msg.ServeRecord
	for _, server := range servers {
		n.deps.History.RecordServeReceived(n.period-1, server, accum[server])
		serversLast = append(serversLast, msg.ServeRecord{Period: n.period - 1, Server: server, Chunks: accum[server]})
	}

	proposal := n.pending
	n.pending = nil

	b := n.deps.Behavior
	var partners []msg.NodeID
	var advertised []msg.ChunkID
	if len(proposal) > 0 {
		from := make([]msg.NodeID, len(proposal))
		for i, c := range proposal {
			from[i] = n.originOf[c]
		}
		advertised = b.FilterProposal(n.deps.Rand, proposal, from, nil)
		if len(advertised) > 0 {
			count := b.Fanout(n.cfg.F)
			partners = b.SelectPartners(n.deps.Rand, n.deps.Dir, n.id, count, nil)
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
				op := &refOutProposal{
					period:   n.period,
					chunks:   make(map[msg.ChunkID]bool, len(advertised)),
					consumed: make(map[msg.ChunkID]bool),
				}
				for _, c := range advertised {
					op.chunks[c] = true
				}
				n.outProposals[p] = op
			}
			if len(partners) > 0 {
				n.deps.History.RecordProposalsSent(n.period, partners, advertised)
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

func (n *refNode) HandleMessage(from msg.NodeID, m msg.Message) {
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
	}
}

func (n *refNode) onPropose(from msg.NodeID, m *msg.Propose) {
	n.deps.History.RecordProposalReceived(n.period, from, m.Chunks)
	now := n.deps.Ctx.Now()
	var needed []msg.ChunkID
	for _, c := range m.Chunks {
		if n.have[c] {
			continue
		}
		if alts := n.offers[c]; len(alts) < refMaxOffers {
			n.offers[c] = append(alts, refOffer{from: from, period: m.Period})
		}
		if at, already := n.lastRequest[c]; already && now-at < n.cfg.RequestRetry {
			continue
		}
		needed = append(needed, c)
	}
	if len(needed) == 0 {
		return
	}
	n.sendRequest(from, m.Period, needed)
}

func (n *refNode) sendRequest(to msg.NodeID, period msg.Period, chunks []msg.ChunkID) {
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
	// One timer per request, retrying its chunks in turn: a callback's
	// sends to one peer travel as one group, so what one callback sends is
	// observable, and Node retries a request in one callback too.
	n.deps.Ctx.After(n.cfg.RequestRetry, func() {
		for _, c := range chunks {
			n.retry(c, to)
		}
	})
}

func (n *refNode) retry(c msg.ChunkID, lastServer msg.NodeID) {
	if n.stopped || n.have[c] {
		return
	}
	if n.retries[c] >= refMaxRetries {
		return
	}
	var alt *refOffer
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

func (n *refNode) onRequest(from msg.NodeID, m *msg.Request) {
	op, ok := n.outProposals[from]
	if !ok || op.period != m.Period {
		return
	}
	var valid []msg.ChunkID
	for _, c := range m.Chunks {
		if op.chunks[c] && !op.consumed[c] {
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

func (n *refNode) onServe(from msg.NodeID, m *msg.Serve) {
	if n.have[m.Chunk] {
		if n.deps.Metrics != nil {
			n.deps.Metrics.OnDuplicateChunk()
		}
		return
	}
	if !n.requestedFrom[m.Chunk][from] {
		return
	}
	if n.deps.Store != nil {
		if !content.Verify(m.Payload, m.Hash) {
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
		n.deps.Metrics.OnUsefulChunk(n.deps.Ctx.Now()-n.lastRequest[m.Chunk], payloadBytes)
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
