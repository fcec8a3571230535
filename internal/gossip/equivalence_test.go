package gossip_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"lifting/internal/content"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// disseminator is what the equivalence test needs of a node: gossip.Node and
// the reference model both have it.
type disseminator interface {
	net.Handler
	Start()
	InjectChunkData(c msg.ChunkID, payload []byte, hash uint64)
	History() *history.Log
	Have(c msg.ChunkID) bool
	ChunkCount() int
}

const (
	eqPeriod  = 100 * time.Millisecond
	eqPeriods = 30
	// eqRetention is above eqPeriods: within the retention window Node keeps
	// what the reference keeps. Its bounds are what the bounded-state tests
	// are for.
	eqRetention = 50
	eqPayload   = 64
	// swarmChunk is the chunk of the many-servers episode of newPlan, which
	// needs more peers than the maxAsked = 8 servers a want holds inline.
	swarmChunk     = msg.ChunkID(2000)
	maxInlineAsked = 8
)

// forged is one message the schedule puts on the wire in a node's name, next
// to what the nodes send themselves: stale, repeated, unsolicited and
// corrupted traffic no honest run produces.
type forged struct {
	at       time.Duration
	from, to msg.NodeID
	m        msg.Message
}

// plan is one seeded schedule; both worlds run the same one.
type plan struct {
	seed   uint64
	n, f   int
	degree bool // the last node is a freerider.Degree
	mitm   bool // the two before it are MITM colluders
	cond   net.Conditions
	far    bool // the source also emits a chunk id far above the stream's
	forged []forged
	// skew, unless 0, is the clock-rate factor of every node's timers
	// (sim.Skewed): set by the test, not drawn.
	skew float64
	// verified hands the nodes one shared verified-once table, as a sim
	// cluster does: set by the test, not drawn. The reference has no such
	// field to read and hashes every payload.
	verified bool
}

func newPlan(seed uint64) plan {
	r := rng.New(seed).Derive("plan")
	p := plan{
		seed:   seed,
		n:      6 + r.IntN(9),
		f:      2 + r.IntN(3),
		degree: r.IntN(3) > 0,
		mitm:   r.IntN(3) > 0,
		far:    r.IntN(4) == 0,
		cond: net.Conditions{
			LossIn:        0.05 + 0.12*r.Float64(),
			LatencyBase:   2 * time.Millisecond,
			LatencyJitter: 4 * time.Millisecond,
			DupProb:       0.05,
			ReorderProb:   0.10,
			ReorderDelay:  30 * time.Millisecond,
		},
	}
	if r.IntN(3) == 0 {
		// Uplinks near the stream rate (four 64-byte chunks a period): serves
		// queue, requests time out, and chunks are asked of many servers.
		p.cond.UplinkBps = 6000
	}
	src := content.NewSource(seed, eqPayload)
	span := eqPeriods * eqPeriod
	pick := func() msg.NodeID { return msg.NodeID(r.IntN(p.n)) }
	// chunk draws an id near the head of the stream at time at (the source
	// emits four a period), or one the stream never carries.
	chunk := func(at time.Duration) msg.ChunkID {
		switch r.IntN(8) {
		case 0:
			return msg.ChunkID(1000 + r.IntN(40))
		case 1:
			return ^msg.ChunkID(0)
		}
		head := int(4 * at / eqPeriod)
		return msg.ChunkID(max(0, head-12+r.IntN(15)))
	}
	chunks := func(at time.Duration) []msg.ChunkID {
		out := make([]msg.ChunkID, 1+r.IntN(6))
		for i := range out {
			out[i] = chunk(at)
		}
		if r.IntN(5) == 0 {
			out = append(out, out[0]) // the same id twice in one list
		}
		return out
	}
	for i := 0; i < 120; i++ {
		at := time.Duration(r.Float64() * float64(span))
		fm := forged{at: at, from: pick(), to: pick()}
		if fm.from == fm.to {
			continue
		}
		period := msg.Period(max(0, int(at/eqPeriod)+1-r.IntN(3)))
		switch r.IntN(4) {
		case 0:
			fm.m = &msg.Propose{Sender: fm.from, Period: period, Chunks: chunks(at)}
		case 1:
			fm.m = &msg.Request{Sender: fm.from, Period: period, Chunks: chunks(at)}
		case 2:
			c := chunk(at)
			payload, hash := src.Chunk(c)
			serve := &msg.Serve{Sender: fm.from, Period: period, Chunk: c, PayloadSize: len(payload), Hash: hash, Payload: payload}
			switch r.IntN(3) {
			case 0: // corrupted bytes under the right hash
				serve.Payload = append([]byte(nil), payload...)
				serve.Payload[0] ^= 0xFF
			case 1: // no payload at all
				serve.Payload, serve.Hash = nil, 0
			}
			fm.m = serve
		case 3:
			if len(p.forged) == 0 {
				continue
			}
			// An earlier message again, to the same node.
			prev := p.forged[r.IntN(len(p.forged))]
			fm.from, fm.to, fm.m = prev.from, prev.to, prev.m
		}
		p.forged = append(p.forged, fm)
	}
	if p.n > maxInlineAsked+2 {
		// Every other node offers node 1 a chunk that none of them serves,
		// a request timeout apart, so node 1 asks each in turn — more servers
		// than a want record holds inline. The first one's serve comes last
		// and must still be taken.
		at := 3 * eqPeriod
		for from := msg.NodeID(2); int(from) < p.n; from++ {
			p.forged = append(p.forged, forged{at: at, from: from, to: 1,
				m: &msg.Propose{Sender: from, Period: msg.Period(at / eqPeriod), Chunks: []msg.ChunkID{swarmChunk}}})
			at += eqPeriod/2 + 10*time.Millisecond
		}
		payload, hash := src.Chunk(swarmChunk)
		p.forged = append(p.forged, forged{at: at, from: 2, to: 1,
			m: &msg.Serve{Sender: 2, Period: 3, Chunk: swarmChunk, PayloadSize: len(payload), Hash: hash, Payload: payload}})
	}
	return p
}

// shipped completes d with what cluster.New gives every node and the tests
// of this package have no reason to vary — an honest behaviour, an
// accountability log of cfg's retention, a chunk store, a collector and an
// arrival callback — keeping whatever d already sets.
func shipped(cfg gossip.Config, d gossip.Deps) gossip.Deps {
	if d.Behavior == nil {
		d.Behavior = gossip.Honest{}
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

// recNet writes every Send into the transcript before passing it on.
type recNet struct {
	inner *net.SimNet
	eng   *sim.Engine
	log   *[]string
}

func (r recNet) Send(from, to msg.NodeID, m msg.Message, mode net.Mode) {
	var fields string
	switch v := m.(type) {
	case *msg.Propose:
		fields = fmt.Sprintf("sender=%d period=%d chunks=%v origins=%v", v.Sender, v.Period, v.Chunks, v.Origins)
	case *msg.Request:
		fields = fmt.Sprintf("sender=%d period=%d chunks=%v", v.Sender, v.Period, v.Chunks)
	case *msg.Serve:
		fields = fmt.Sprintf("sender=%d period=%d chunk=%d size=%d hash=%x payload=%d", v.Sender, v.Period, v.Chunk, v.PayloadSize, v.Hash, len(v.Payload))
	}
	*r.log = append(*r.log, fmt.Sprintf("%v send %v %d->%d mode=%d %s", r.eng.NodeNow(int(from)), m.Kind(), from, to, mode, fields))
	r.inner.Send(from, to, m, mode)
}

// recMonitor writes every Monitor call into the transcript.
type recMonitor struct {
	id  msg.NodeID
	log *[]string
}

func (r recMonitor) OnProposePhase(p msg.Period, partners []msg.NodeID, proposed []msg.ChunkID, servers []msg.ServeRecord) {
	*r.log = append(*r.log, fmt.Sprintf("node %d OnProposePhase(%d, %v, %v, %v)", r.id, p, partners, proposed, servers))
}

func (r recMonitor) OnRequestSent(proposer msg.NodeID, p msg.Period, requested []msg.ChunkID) {
	*r.log = append(*r.log, fmt.Sprintf("node %d OnRequestSent(%d, %d, %v)", r.id, proposer, p, requested))
}

func (r recMonitor) OnServeReceived(server msg.NodeID, c msg.ChunkID) {
	*r.log = append(*r.log, fmt.Sprintf("node %d OnServeReceived(%d, %d)", r.id, server, c))
}

func (r recMonitor) OnServeInvalid(server msg.NodeID, c msg.ChunkID) {
	*r.log = append(*r.log, fmt.Sprintf("node %d OnServeInvalid(%d, %d)", r.id, server, c))
}

func (r recMonitor) OnServed(receiver msg.NodeID, p msg.Period, served []msg.ChunkID) {
	*r.log = append(*r.log, fmt.Sprintf("node %d OnServed(%d, %d, %v)", r.id, receiver, p, served))
}

func (r recMonitor) OnStop() {
	*r.log = append(*r.log, fmt.Sprintf("node %d OnStop()", r.id))
}

// worldResult is everything the two implementations must agree on.
type worldResult struct {
	log       []string
	snapshots []*msg.AuditResp
	held      [][]msg.ChunkID
	counts    []int
}

func runWorld(p plan, build func(msg.NodeID, gossip.Config, gossip.Deps) disseminator) worldResult {
	var res worldResult
	eng := sim.NewEngine()
	root := rng.New(p.seed)
	dir := membership.Sequential(p.n)
	simnet := net.NewSimNet(eng, root.Derive("net"), metrics.NewCollector(), p.cond)
	netw := recNet{inner: simnet, eng: eng, log: &res.log}
	cfg := gossip.Config{
		F: p.f, Period: eqPeriod, ChunkPayload: eqPayload,
		HistoryPeriods: eqRetention, PhaseJitter: eqPeriod / 5,
	}
	coalition := []msg.NodeID{msg.NodeID(p.n - 3), msg.NodeID(p.n - 2)}
	nodes := make([]disseminator, p.n)
	var verified *content.Store
	if p.verified {
		verified = content.NewStore(0)
	}
	for i := range nodes {
		id := msg.NodeID(i)
		var b gossip.Behavior = gossip.Honest{}
		switch {
		case p.degree && i == p.n-1:
			b = freerider.Degree{Delta1: 0.3, Delta2: 0.4, Delta3: 0.3}
		case p.mitm && (id == coalition[0] || id == coalition[1]):
			c := freerider.NewColluder(id, coalition, 0.5, dir, root.ForNode(uint32(i)).Derive("collude"))
			c.MITM = true
			b = c
		}
		nodeCfg := cfg
		nodeCfg.StartOffset = time.Duration(i) * eqPeriod / time.Duration(p.n)
		ctx := eng.Domain(i)
		if p.skew != 0 {
			ctx = sim.Skewed(ctx, p.skew)
		}
		deps := gossip.Deps{
			Ctx: ctx, Net: netw, Dir: dir, Rand: root.ForNode(uint32(i)),
			Behavior: b, Monitor: recMonitor{id: id, log: &res.log},
			VerifiedOnce: verified,
		}
		if i == 1 {
			// Node 1 keeps two payloads: it proposes chunks it can no
			// longer deliver, and its serves of those are rejected.
			deps.Store = content.NewStore(2)
		}
		nodes[i] = build(id, nodeCfg, shipped(nodeCfg, deps))
		simnet.Attach(id, nodes[i])
		nodes[i].Start()
	}

	// Node 0 is the source: four chunks a period, dense ids.
	src := content.NewSource(p.seed, eqPayload)
	inject := func(c msg.ChunkID) {
		payload, hash := src.Chunk(c)
		nodes[0].InjectChunkData(c, payload, hash)
	}
	last := msg.ChunkID(4 * (eqPeriods - 5))
	for c := msg.ChunkID(0); c < last; c++ {
		c := c
		eng.After(time.Duration(c)*eqPeriod/4, func() { inject(c) })
	}
	if p.far {
		eng.After(7*eqPeriod, func() { inject(^msg.ChunkID(0) - 1) })
	}
	for _, fm := range p.forged {
		fm := fm
		eng.After(fm.at, func() { netw.Send(fm.from, fm.to, fm.m, net.Unreliable) })
	}
	eng.Run(eqPeriods * eqPeriod)

	for i, node := range nodes {
		res.snapshots = append(res.snapshots, node.History().Snapshot(msg.NodeID(i), eqRetention))
		var held []msg.ChunkID
		for _, c := range append([]msg.ChunkID{^msg.ChunkID(0), ^msg.ChunkID(0) - 1, swarmChunk}, ids(0, last)...) {
			if node.Have(c) {
				held = append(held, c)
			}
		}
		for c := msg.ChunkID(1000); c < 1040; c++ {
			if node.Have(c) {
				held = append(held, c)
			}
		}
		res.held = append(res.held, held)
		res.counts = append(res.counts, node.ChunkCount())
	}
	return res
}

func ids(from, to msg.ChunkID) []msg.ChunkID {
	out := make([]msg.ChunkID, 0, to-from)
	for c := from; c < to; c++ {
		out = append(out, c)
	}
	return out
}

// TestNodeMatchesMapReference drives gossip.Node and the map-based reference
// through the same seeded schedules — loss, duplication and reordering on the
// network; honest, Degree and MITM-colluder behaviours; forged stale,
// repeated, unsolicited and corrupted messages — and demands the same sends,
// the same Monitor calls and the same histories from both. The reference
// arms one timer per request where Node queues one deadline per request, so
// the same transcript is also the proof that the queue lapses what the
// timers fired, in their order — on true clocks and, for a sixth of the
// schedules each, on clocks running 2 % fast and 5 % slow.
func TestNodeMatchesMapReference(t *testing.T) {
	const schedules, skewed = 240, 80
	var requests, single, invalid, batches, swarmed int
	for run := uint64(0); run < schedules+skewed; run++ {
		p := newPlan(run%schedules + 1)
		if run >= schedules {
			p.skew = []float64{0.98, 1.05}[run%2]
		}
		// Every other schedule, and every one of them the second time round:
		// the forged serves — the source's own slices, copies corrupted under
		// the right hash, nothing at all — meet a table that knows the slice.
		p.verified = run%2 == 1 || run >= schedules
		seed := p.seed
		got := runWorld(p, func(id msg.NodeID, cfg gossip.Config, deps gossip.Deps) disseminator {
			return gossip.NewNode(id, cfg, deps)
		})
		want := runWorld(p, func(id msg.NodeID, cfg gossip.Config, deps gossip.Deps) disseminator {
			return newRefNode(id, cfg, deps)
		})
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				line := "(transcript ends)"
				if i < len(got.log) {
					line = got.log[i]
				}
				t.Fatalf("seed %d (n=%d f=%d verified=%t degree=%t mitm=%t skew=%v): transcripts part at line %d:\n  node:      %s\n  reference: %s",
					seed, p.n, p.f, p.verified, p.degree, p.mitm, p.skew, i, line, want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: transcript has %d lines, the reference's %d; first extra: %s", seed, len(got.log), len(want.log), got.log[len(want.log)])
		}
		if !reflect.DeepEqual(got.snapshots, want.snapshots) {
			t.Fatalf("seed %d: history snapshots differ", seed)
		}
		if !reflect.DeepEqual(got.held, want.held) || !reflect.DeepEqual(got.counts, want.counts) {
			t.Fatalf("seed %d: chunks held differ:\n  node:      %v %v\n  reference: %v %v", seed, got.counts, got.held, want.counts, want.held)
		}
		if slices.Contains(got.held[1], swarmChunk) {
			swarmed++
		}
		for _, line := range got.log {
			switch {
			case strings.Contains(line, "OnRequestSent("):
				requests++
				if !strings.Contains(line[strings.LastIndex(line, "["):], " ") {
					single++ // one chunk asked for: mostly the retry path
				}
			case strings.Contains(line, "OnServeInvalid("):
				invalid++
			case strings.Contains(line, "OnServed("):
				batches++
			}
		}
	}
	// The schedules must reach the paths they are there for.
	if requests < 50*schedules || single < 10*schedules || invalid < schedules || batches < 50*schedules || swarmed < schedules/8 {
		t.Fatalf("schedules too tame: %d requests, %d of them for one chunk, %d invalid serves, %d serve batches, %d chunks taken from the first of many servers asked, over %d schedules",
			requests, single, invalid, batches, swarmed, schedules)
	}
	t.Logf("%d schedules, %d of them again on skewed clocks: %d requests (%d for one chunk), %d invalid serves, %d serve batches, %d many-server episodes that ended well",
		schedules, skewed, requests, single, invalid, batches, swarmed)
}
