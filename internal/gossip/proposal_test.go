package gossip

import (
	"fmt"
	"slices"
	"testing"

	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// ringPhase and ringOracle are the request validation Node had before the
// accountability log became the one record of a propose phase: a ring of nh
// phases, each with its own advertised list and partners, and proposalTo's
// walk over the later periods for a superseding proposal. They are that code
// verbatim, kept as the oracle the log-backed version is driven against.
type ringPhase struct {
	period     msg.Period // 0: the slot is empty
	advertised []msg.ChunkID
	partners   []msg.NodeID
	consumed   []uint64
}

func (ph *ringPhase) set(period msg.Period, advertised []msg.ChunkID, partners []msg.NodeID) {
	ph.period, ph.advertised, ph.partners = period, advertised, partners
	words := (len(advertised)*len(partners) + 63) / 64
	if cap(ph.consumed) < words {
		ph.consumed = make([]uint64, words)
		return
	}
	ph.consumed = ph.consumed[:words]
	clear(ph.consumed)
}

func (ph *ringPhase) consume(row, i int) bool {
	bit := row*len(ph.advertised) + i
	if ph.consumed[bit>>6]&(1<<(bit&63)) != 0 {
		return false
	}
	ph.consumed[bit>>6] |= 1 << (bit & 63)
	return true
}

type ringOracle struct {
	nh     msg.Period
	period msg.Period
	phases []ringPhase
}

// propose is what a propose phase did to the ring.
func (o *ringOracle) propose(advertised []msg.ChunkID, partners []msg.NodeID) {
	o.period++
	if o.phases != nil {
		o.phases[o.period%o.nh].period = 0
	}
	if len(partners) > 0 {
		if o.phases == nil {
			o.phases = make([]ringPhase, o.nh)
		}
		o.phases[o.period%o.nh].set(o.period, advertised, partners)
	}
}

func (o *ringOracle) proposalTo(partner msg.NodeID, period msg.Period) (*ringPhase, int) {
	if o.phases == nil || period == 0 || period > o.period || o.period-period >= o.nh {
		return nil, 0
	}
	ph := &o.phases[period%o.nh]
	if ph.period != period {
		return nil, 0
	}
	row := slices.Index(ph.partners, partner)
	if row < 0 {
		return nil, 0
	}
	for q := period + 1; q <= o.period; q++ {
		if later := &o.phases[q%o.nh]; later.period == q && slices.Contains(later.partners, partner) {
			return nil, 0
		}
	}
	return ph, row
}

// served is the oracle's answer to a request: the chunks of it in P ∩ R not
// served before, in request order.
func (o *ringOracle) served(from msg.NodeID, r *msg.Request) []msg.ChunkID {
	ph, row := o.proposalTo(from, r.Period)
	if ph == nil {
		return nil
	}
	var out []msg.ChunkID
	for _, c := range r.Chunks {
		if i := slices.Index(ph.advertised, c); i >= 0 && ph.consume(row, i) {
			out = append(out, c)
		}
	}
	return out
}

// scriptedPartners is an honest node whose partners the test picks.
type scriptedPartners struct {
	Honest
	next []msg.NodeID
}

func (s *scriptedPartners) SelectPartners(*rng.Stream, *membership.Directory, msg.NodeID, int) []msg.NodeID {
	return s.next
}

// sentLog is a network that keeps what the node sends.
type sentLog struct {
	proposes []*msg.Propose
	to       []msg.NodeID
	serves   []msg.ChunkID
}

func (l *sentLog) Send(_, to msg.NodeID, m msg.Message, _ net.Mode) {
	switch v := m.(type) {
	case *msg.Propose:
		l.proposes, l.to = append(l.proposes, v), append(l.to, to)
	case *msg.Serve:
		l.serves = append(l.serves, v.Chunk)
	}
}

// TestRequestValidationMatchesRing drives Node's log-backed request
// validation and the ring oracle through the same propose phases — partners
// drawn from six ids so that they repeat and supersede each other, with
// empty phases (nothing to propose) and skipped ones (no partner drawn) in
// between, long runs of them leaving the log's newest period behind the
// node's — and the same requests: for period 0, for a future period, for the
// period exactly nh back, from a non-partner, for a superseded proposal, with
// chunks repeated and chunks never advertised. Both must accept and reject
// alike, name the same row and advertised list and serve the same chunks. A
// hostile request costs one compare per partner entry the log holds, which
// must stay within nh·f.
func TestRequestValidationMatchesRing(t *testing.T) {
	const ids = 6
	var accepted, rejected, lagging, superseded int
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		cfg := testConfig()
		cfg.F = 1 + r.IntN(4)
		cfg.HistoryPeriods = 1 + r.IntN(8)
		nh := msg.Period(cfg.HistoryPeriods)
		behavior := &scriptedPartners{}
		sent := &sentLog{}
		eng := sim.NewEngine()
		n := NewNode(0, cfg, shipped(cfg, Deps{Ctx: eng.Domain(0), Net: sent, Dir: membership.Sequential(ids + 1), Rand: rng.New(seed), Behavior: behavior}))
		oracle := &ringOracle{nh: nh}
		next := msg.ChunkID(0)
		quiet := 0 // periods left in a run of empty phases
		for step := 0; step < 400; step++ {
			// One propose phase.
			if quiet > 0 {
				quiet--
			} else if r.IntN(40) == 0 {
				quiet = int(nh) + r.IntN(int(nh)+2)
			}
			behavior.next = nil
			if quiet == 0 && r.IntN(6) > 0 {
				for c := 1 + r.IntN(5); c > 0; c-- {
					inject(n, next)
					next++
				}
				if r.IntN(5) > 0 {
					for _, id := range r.SampleK(ids, 1+r.IntN(cfg.F)) {
						behavior.next = append(behavior.next, msg.NodeID(id+1))
					}
				}
			}
			sent.proposes, sent.to = sent.proposes[:0], sent.to[:0]
			n.proposePhase()
			var advertised []msg.ChunkID
			if len(sent.proposes) > 0 {
				advertised = sent.proposes[0].Chunks
			}
			oracle.propose(advertised, slices.Clone(sent.to))
			if n.period != oracle.period {
				t.Fatalf("seed %d: node at period %d, oracle at %d", seed, n.period, oracle.period)
			}
			if held := len(n.deps.History.Proposals(0)); held > cfg.F*cfg.HistoryPeriods {
				t.Fatalf("seed %d period %d: the log holds %d partner entries, a request may compare them all; bound nh·f = %d", seed, n.period, held, cfg.F*cfg.HistoryPeriods)
			}

			// A few requests.
			for k := r.IntN(4); k > 0; k-- {
				from := msg.NodeID(1 + r.IntN(ids))
				var period msg.Period
				switch r.IntN(6) {
				case 0:
					period = 0
				case 1:
					period = n.period + 1 + msg.Period(r.IntN(3))
				case 2:
					period = n.period - min(n.period, nh)
				case 3:
					from = msg.NodeID(ids + 1) // never a partner
					period = n.period - min(n.period, msg.Period(r.IntN(int(nh))))
				default:
					period = n.period - min(n.period, msg.Period(r.IntN(int(nh)+1)))
				}
				chunks := make([]msg.ChunkID, 1+r.IntN(6))
				for i := range chunks {
					chunks[i] = next - min(next, msg.ChunkID(1+r.IntN(12)))
				}
				if oracle.phases != nil && period > 0 && r.IntN(2) == 0 {
					// Someone that period's phase did propose to, of its chunks.
					if slot := oracle.phases[period%nh]; slot.period == period {
						from = slot.partners[r.IntN(len(slot.partners))]
						for i := range chunks {
							chunks[i] = slot.advertised[r.IntN(len(slot.advertised))]
						}
					}
				}
				if r.IntN(3) == 0 {
					chunks = append(chunks, chunks[0])
				}
				if r.IntN(4) == 0 {
					chunks = append(chunks, next+5) // never advertised
				}
				req := &msg.Request{Sender: from, Period: period, Chunks: chunks}

				ph, row := oracle.proposalTo(from, period)
				gotAdvertised, gotPhase, gotRow := n.proposalTo(from, period)
				where := fmt.Sprintf("seed %d (f %d, nh %d) period %d, log newest %d: request from %d for period %d", seed, cfg.F, nh, n.period, n.deps.History.Newest(), from, period)
				switch {
				case (ph == nil) != (gotPhase == nil):
					t.Fatalf("%s: oracle accepts %t, node %t", where, ph != nil, gotPhase != nil)
				case ph != nil && (row != gotRow || !slices.Equal(ph.advertised, gotAdvertised)):
					t.Fatalf("%s: oracle row %d of %v, node row %d of %v", where, row, ph.advertised, gotRow, gotAdvertised)
				}
				if ph != nil {
					accepted++
				} else {
					rejected++
					if last, _, _, ok := n.deps.History.LastProposalTo(from); ok && last > period && period > 0 && n.period-period < nh {
						superseded++
					}
				}
				if n.deps.History.Newest() < n.period {
					lagging++
				}
				want := oracle.served(from, req)
				sent.serves = sent.serves[:0]
				n.onRequest(from, req)
				if !slices.Equal(sent.serves, want) {
					t.Fatalf("%s %v: node served %v, oracle %v", where, chunks, sent.serves, want)
				}
			}
		}
	}
	if accepted < 1000 || rejected < 1000 || lagging < 200 || superseded < 100 {
		t.Fatalf("requests too tame: %d accepted, %d rejected (%d of a superseded proposal), %d while the log lagged the node", accepted, rejected, superseded, lagging)
	}
	t.Logf("%d requests accepted, %d rejected (%d of a superseded proposal), %d while the log lagged the node", accepted, rejected, superseded, lagging)
}
