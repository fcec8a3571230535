package gossip_test

import (
	"testing"
	"time"

	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// roundRig is two whole nodes — gossip.Node plus its core.Verifier — on the
// sim engine, among six silent peers, at f = 7: everyone is everyone's
// partner. One round is one gossip period in which eight new chunks enter:
// node 0 gets all eight and node 1 the first four out-of-band, so that
//
//   - each node runs a propose phase advertising 8 chunks to its 7 partners;
//   - node 1 answers node 0's proposal with one 4-chunk request;
//   - node 0 sends the four serves, and node 1 takes them in;
//   - node 1's next phase acks them, and node 0 cross-checks the ack with
//     the seven witnesses it names (node 0 itself among them).
type roundRig struct {
	eng   *sim.Engine
	nodes [2]*gossip.Node
	next  msg.ChunkID
}

const roundPeriod = 100 * time.Millisecond

func newRoundRig() *roundRig {
	const n, f, nh = 8, 7, 50
	r := &roundRig{eng: sim.NewEngine()}
	root := rng.New(5)
	dir := membership.Sequential(n)
	netw := net.NewSimNet(r.eng, root.Derive("net"), nil, net.Uniform(0, time.Millisecond))
	for i := range r.nodes {
		id := msg.NodeID(i)
		ctx := r.eng.Domain(i)
		hist := history.NewLog(nh)
		v := core.NewVerifier(id, core.Config{F: f, Period: roundPeriod, Pdcc: 1, HistoryPeriods: nh, Gamma: 8.95, Eta: -9.75},
			ctx, netw, root.ForNode(uint32(i)).Derive("verifier"), hist, nil, nil)
		r.nodes[i] = gossip.NewNode(id, gossip.Config{
			F: f, Period: roundPeriod, ChunkPayload: 1000, HistoryPeriods: nh,
			StartOffset: time.Duration(2*i+1) * roundPeriod / 4,
		}, gossip.Deps{Ctx: ctx, Net: netw, Dir: dir, Rand: root.ForNode(uint32(i)), Monitor: v, Aux: v, History: hist})
		netw.Attach(id, r.nodes[i])
		r.nodes[i].Start()
	}
	return r
}

func (r *roundRig) round() {
	for i := 0; i < 8; i++ {
		r.nodes[0].InjectChunkData(r.next, nil, 0)
		if i < 4 {
			r.nodes[1].InjectChunkData(r.next, nil, 0)
		}
		r.next++
	}
	r.eng.Run(r.eng.Now() + roundPeriod)
}

// roundAllocs is what one round allocates once every ring, pool and slice
// has reached its size. What is left is what a sent message owns. An armed
// deadline or an open check is none of it: the retry of a request, a serve
// check, an ack expectation and a confirm session are by-value records in the
// node's four sim.Deadlines queues, armed with a func value made once.
//
//	per propose phase, ×2 nodes:
//	  1  the pending list, which becomes the advertised list of the message
//	  1  the origins list of the message
//	  1  the Propose, shared by the 7 partners
//	  1  the partner list (membership.Sample)
//	node 1, receiving and requesting:
//	  1  the requested list (message, serve check and recovery share it)
//	  1  the Request
//	node 0, serving:
//	  1  the list of chunks to serve (the ack expectation keeps it)
//	  1  the four Serves, one block
//	node 1, at its next phase:
//	  1  the fan-in block: the served chunks grouped by server
//	  1  the Ack
//	node 0, cross-checking the ack:
//	  1/16  the Confirm, shared by the 7 witnesses: carved, one block of
//	        msg.SendBlock = 16 every 16 rounds
//	  1/16  the ConfirmResp node 0, a witness of its own, answers with,
//	        carved likewise
const roundAllocs = 8 + 2 + 2 + 2 + 2.0/msg.SendBlock

func TestSteadyStateRoundAllocations(t *testing.T) {
	r := newRoundRig()
	for i := 0; i < 120; i++ { // past the nh = 50 rings, twice
		r.round()
	}
	if got := r.nodes[1].ChunkCount(); got != 8*120 {
		t.Fatalf("node 1 holds %d chunks after 120 rounds, want %d: the round is not the one described", got, 8*120)
	}
	// msg.SendBlock rounds in a row refill each send block exactly once,
	// wherever the rounds before left it, so the count per run is exact.
	block := func() {
		for i := 0; i < msg.SendBlock; i++ {
			r.round()
		}
	}
	if got := testing.AllocsPerRun(10, block); got != roundAllocs*msg.SendBlock {
		t.Fatalf("%d steady-state rounds allocate %v objects, want %v (see roundAllocs for what each is)", msg.SendBlock, got, roundAllocs*msg.SendBlock)
	}
}

func BenchmarkNodeRound(b *testing.B) {
	r := newRoundRig()
	for i := 0; i < 120; i++ {
		r.round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round()
	}
}
