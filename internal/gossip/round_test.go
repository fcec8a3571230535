package gossip_test

import (
	"testing"
	"time"

	"lifting/internal/content"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// roundRig is two whole nodes — gossip.Node plus its core.Verifier, with
// the dependencies cluster.New gives them on the sim: a chunk store each, one
// collector, one shared verified-once table, the one engine shard's set of
// send blocks, wired to both, an honest behaviour and a blame sink — on the sim engine,
// among seven silent peers, at f = 8: everyone is everyone's partner. One
// round is one gossip period in which eight new chunks enter node 0
// out-of-band, so that
//
//   - each node runs a propose phase advertising 8 chunks to its 8 partners;
//   - node 1 answers node 0's proposal with one 8-chunk request;
//   - node 0 sends the eight serves, and node 1 takes them in;
//   - node 1's next phase acks them, and node 0 cross-checks the ack with
//     the eight witnesses it names (node 0 itself among them).
//
// Every id list a round carves is 8 long, so no block ever ends in a gap
// too short for the next list, and blockRounds rounds refill each block a
// whole number of times.
type roundRig struct {
	eng   *sim.Engine
	nodes [2]*gossip.Node
	next  msg.ChunkID
	// payloads and hashes are the stream's chunks, generated by prepare
	// ahead of the rounds that inject them.
	payloads [][]byte
	hashes   []uint64
}

const (
	roundPeriod  = 100 * time.Millisecond
	roundPayload = 64
)

// nopSink takes the blames of an honest round: there are none.
type nopSink struct{}

func (nopSink) Blame(msg.NodeID, float64, msg.BlameReason) {}

func newRoundRig() *roundRig {
	const n, f, nh = 9, 8, 50
	r := &roundRig{eng: sim.NewEngine()}
	root := rng.New(5)
	dir := membership.Sequential(n)
	col := metrics.NewCollector()
	netw := net.NewSimNet(r.eng, root.Derive("net"), col, net.Uniform(0, time.Millisecond))
	verified := content.NewStore(0)
	sends := new(msg.Sends) // the one engine shard's
	for i := range r.nodes {
		id := msg.NodeID(i)
		sends.Wire() // as cluster.New's sendsFor does for each node
		ctx := r.eng.Domain(i)
		cfg := gossip.Config{
			F: f, Period: roundPeriod, ChunkPayload: roundPayload, HistoryPeriods: nh,
			StartOffset: time.Duration(2*i+1) * roundPeriod / 4,
		}
		hist := history.NewLog(nh)
		v := core.NewVerifier(id, core.Config{F: f, Period: roundPeriod, Pdcc: 1, HistoryPeriods: nh, Gamma: 8.95, Eta: -9.75},
			ctx, netw, root.ForNode(uint32(i)).Derive("verifier"), hist, gossip.Honest{}, nopSink{}, sends)
		r.nodes[i] = gossip.NewNode(id, cfg, shipped(cfg, gossip.Deps{
			Ctx: ctx, Net: netw, Dir: dir, Rand: root.ForNode(uint32(i)),
			Monitor: v, Aux: v, History: hist, Sends: sends, Metrics: col, VerifiedOnce: verified,
		}))
		netw.Attach(id, r.nodes[i])
		r.nodes[i].Start()
	}
	return r
}

// prepare generates the payloads of the next rounds, so that what a round
// allocates is the nodes' own.
func (r *roundRig) prepare(rounds int) {
	for c := len(r.payloads); c < int(r.next)+8*rounds; c++ {
		payload := content.Generate(5, msg.ChunkID(c), roundPayload)
		r.payloads = append(r.payloads, payload)
		r.hashes = append(r.hashes, content.HashBytes(payload))
	}
}

func (r *roundRig) round() {
	for i := 0; i < 8; i++ {
		payload, hash := r.payloads[r.next], r.hashes[r.next]
		r.nodes[0].InjectChunkData(r.next, payload, hash)
		r.next++
	}
	r.eng.Run(r.eng.Now() + roundPeriod)
}

// blockRounds is how many rounds refill every send block a whole number of
// times: the long-lived chunk lists take 24 ids a round, 3 blocks of 1 024
// in 128 rounds.
const blockRounds = 128

// blockAllocs is what blockRounds rounds allocate once every ring, pool and
// slice has reached its size: the send blocks everything sent is carved
// from, msg.Sends blocks twice a one-node set's, the set being wired to both
// nodes — 2 × msg.SendBlock = 32 structs, 128 serves and 1 024 ids. (A
// one-node set's blocks half the size make the same 41 in 64 rounds.) An
// armed deadline or an open check is none of it: the retry of a
// request, a serve check, an ack expectation and a confirm session are
// by-value records in the node's four sim.Deadlines queues, armed with a
// func value made once. Nor is the content plane: a serve carries the stored
// slice itself, the receiver hashes it once and stores it in a slot, and the
// collector's counters are atomic adds. Nor is the scratch a node gathers a
// proposal, a request or a serve list in before carving it.
//
//	per round:
//	  2  Proposes, one per phase, shared by the 8 partners: 256 in 128
//	     rounds, 8 blocks
//	  1  Request, 1 Ack, 1 Confirm (shared by the 8 witnesses) and
//	     1 ConfirmResp (node 0, a witness of its own, answers): 128 each,
//	     4 blocks of each
//	  8  Serves, the serves of node 1's request: 1024, 8 blocks
//	  16 short-lived ids, the request and the list of chunks to serve
//	     (message, serve check, recovery and ack expectation share them):
//	     2048, 2 blocks
//	  16 origins, 8 a proposal: 2048, 2 blocks
//	  16 partners, 8 a propose phase (membership.Sample appends them to
//	     a list carved from the set), which the logs keep nh periods and
//	     the acks name: 2048, 2 blocks
//	  24 long-lived chunk ids, the two proposals and node 1's fan-in
//	     block, which the logs keep nh periods: 3072, 3 blocks
const blockAllocs = 8 + 4*4 + 8 + 2 + 2 + 2 + 3

func TestSteadyStateRoundAllocations(t *testing.T) {
	const runs = 10
	r := newRoundRig()
	// Past the nh = 50 rings many times over, and far enough into the
	// stream that the have-sets' bit words, which grow by appending as a
	// node holds more chunks, grow only a few times in the measured rounds:
	// fewer than runs, so the mean per run stays exact.
	const warm = 512
	r.prepare(warm + (runs+1)*blockRounds) // AllocsPerRun runs once more to warm up
	for i := 0; i < warm; i++ {
		r.round()
	}
	if got := r.nodes[1].ChunkCount(); got != 8*warm {
		t.Fatalf("node 1 holds %d chunks after %d rounds, want %d: the round is not the one described", got, warm, 8*warm)
	}
	// blockRounds rounds in a row refill each send block a whole number of
	// times, wherever the rounds before left it, so the count per run is
	// exact.
	block := func() {
		for i := 0; i < blockRounds; i++ {
			r.round()
		}
	}
	if got := testing.AllocsPerRun(runs, block); got != blockAllocs {
		t.Fatalf("%d steady-state rounds allocate %v objects, want %v (see blockAllocs for what each is)", blockRounds, got, float64(blockAllocs))
	}
}

func BenchmarkNodeRound(b *testing.B) {
	r := newRoundRig()
	r.prepare(120 + b.N)
	for i := 0; i < 120; i++ {
		r.round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round()
	}
}
