package gossip_test

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
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

func newRoundRig() *roundRig { return newRoundRigWith(gossip.Honest{}) }

// newRoundRigWith is newRoundRig with b as both nodes' behaviour.
func newRoundRigWith(b gossip.Behavior) *roundRig {
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
			Ctx: ctx, Net: netw, Dir: dir, Rand: root.ForNode(uint32(i)), Behavior: b,
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

func (r *roundRig) round() { r.roundOf(8) }

// roundOf is a round in which k new chunks enter node 0.
func (r *roundRig) roundOf(k int) {
	for i := 0; i < k; i++ {
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
// nodes — 2 × msg.SendBlock = 32 structs, 128 serves, 1 024 ids and 256
// mark words. (A one-node set's blocks half the size make the same 42 in 64
// rounds.) An
// armed deadline or an open check is none of it: the retry of a
// request, a serve check, an ack expectation and a confirm session are
// by-value records in the node's four sim.Deadlines queues, armed with a
// func value made once. Nor is the content plane: a serve carries the stored
// slice itself, the receiver hashes it once and stores it in a slot, and the
// collector's counters are atomic adds. Nor is the scratch a node gathers a
// proposal, a request or a serve list in before carving it, nor the ring of
// its propose phases, made with the node.
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
//	  2  mark words, one a propose phase's 8 × 8 consumed bits, which live
//	     as long as the proposal: 256, 1 block
const blockAllocs = 8 + 4*4 + 8 + 2 + 2 + 2 + 3 + 1

func TestSteadyStateRoundAllocations(t *testing.T) {
	const runs = 10
	r := newRoundRig()
	// Past the nh = 50 rings many times over, and into the stream far
	// enough that its have-set, which grows by appending a bit word per 64
	// chunks held, has 64 words: haveGrowth counts its growth from there.
	const warm = 512
	r.prepare(warm + runs*blockRounds)
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
	sites := siteAllocs(t, runs, block)
	got := make(map[string]int64)
	for site, n := range sites {
		fn, _, _ := strings.Cut(site, " ")
		got[fn] += n
	}
	want := map[string]int64{
		"lifting/internal/msg.(*Blocks[...]).carve": runs * blockAllocs,
		"lifting/internal/gossip.(*haveSet).add":    haveGrowth,
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%d × %d steady-state rounds allocate %v by function, want %v (see blockAllocs and haveGrowth); by site: %v",
			runs, blockRounds, got, want, sites)
	}
}

// setFanout is an honest behaviour whose fanout is set from outside, round
// by round.
type setFanout struct {
	gossip.Honest
	f *int
}

func (b setFanout) Fanout(int) int { return *b.f }

// Rounds whose proposals and partner lists change size from period to
// period allocate nothing outside the send blocks and the have-set either,
// once the largest round has been seen: a propose phase's marks are carved
// as its proposal is, not kept per slot of the phase ring and re-made when
// a slot meets a larger proposal than it held before. The warm-up opens
// with the largest round — 16 chunks to all 8 partners, 128 marks — and
// goes on with rounds of at most 8 chunks to at most 8 partners, each
// proposal's marks one word; the measured rounds draw from 1 to 16 chunks
// and from 1 to 8 partners, so that phase slots meet their first two-word
// proposals after the warm-up. What the rounds carve varies, so the blocks
// are not counted.
func TestVaryingRoundsAllocateOnlySendBlocks(t *testing.T) {
	const warm, measured = 512, 1280
	fanout := 8
	r := newRoundRigWith(setFanout{f: &fanout})
	draw := rng.New(9)
	sizes := make([]int, warm+measured)
	fanouts := make([]int, warm+measured)
	for i := range sizes {
		switch {
		case i == 0:
			sizes[i], fanouts[i] = 16, 8
		case i < warm:
			sizes[i], fanouts[i] = 1+draw.IntN(8), 1+draw.IntN(8)
		default:
			sizes[i], fanouts[i] = 1+draw.IntN(16), 1+draw.IntN(8)
		}
	}
	total := 0
	for _, k := range sizes {
		total += k
	}
	r.prepare((total + 7) / 8)
	i := 0
	play := func() {
		fanout = fanouts[i]
		r.roundOf(sizes[i])
		i++
	}
	for i < warm {
		play()
	}
	sites := siteAllocs(t, measured, play)
	for site := range sites {
		fn, _, _ := strings.Cut(site, " ")
		if fn != "lifting/internal/msg.(*Blocks[...]).carve" && fn != "lifting/internal/gossip.(*haveSet).add" {
			t.Fatalf("%d rounds of varying size allocate outside the send blocks and the have-set; by site: %v", measured, sites)
		}
	}
	if held := r.nodes[1].ChunkCount(); held == 0 {
		t.Fatal("node 1 took in no chunk: the rounds are not the ones described")
	}
}

// haveGrowth is what the measured rounds allocate outside the send blocks:
// each node's have-set appends a bit word per 64 chunks, and its 64 words
// after the warm-up (512 rounds of 8 chunks) become 224 over the 1 280
// rounds measured — append doubles the backing array twice on the way, to
// 128 and 256 words, on each of the two nodes.
const haveGrowth = 2 * 2

// siteAllocs runs f runs times with every allocation profiled
// (runtime.MemProfileRate = 1) and returns how many objects the runs
// allocated in all, by site: the innermost frame of this module on the
// allocating stack. Stacks that never pass through the module — a GC
// worker's, the profiler's — are not counted, so the runtime's own
// allocations cannot decide a test, and the count is exact where
// testing.AllocsPerRun floors a mean.
func siteAllocs(t *testing.T, runs int, f func()) map[string]int64 {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocsByStack()
	for i := 0; i < runs; i++ {
		f()
	}
	after := allocsByStack()
	sites := make(map[string]int64)
	for stk, n := range after {
		if n -= before[stk]; n > 0 {
			if site := moduleSite(stk); site != "" {
				sites[site] += n
			}
		}
	}
	return sites
}

// allocsByStack returns the objects allocated so far per allocating stack,
// as of a collection it forces: the profile publishes an allocation once
// the cycle it was made in has been swept.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	by := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		by[r.Stack0] += r.AllocObjects
	}
	return by
}

// moduleSite names the innermost frame of this module on stk, or "" if
// there is none, if it is the profiling itself, or if the allocation refills
// one of the runtime's own caches from inside it — a count no code of the
// module decides:
//
//   - runtime.typeAssert and runtime.interfaceSwitch rebuild a call site's
//     type-assertion cache at random, about one miss in 1 024, until it
//     holds every type the site sees: SimNet.Deliver's payload.(msg.Message)
//     made one in 1 280 rounds of the gossip round rig in some runs, none in
//     others;
//   - runtime.acquireSudog allocates the wait record of a blocking
//     WaitGroup.Wait when the Ps' pools run dry, which the collection the
//     profile forces makes happen: the sharded windows' join made up to 64
//     (one pool's spill) in some runs of 20 rounds, none in others.
func moduleSite(stk [32]uintptr) string {
	frames := runtime.CallersFrames(stk[:])
	for {
		fr, more := frames.Next()
		switch fr.Function {
		case "runtime.typeAssert", "runtime.interfaceSwitch", "runtime.acquireSudog":
			return ""
		}
		if strings.HasPrefix(fr.Function, "lifting/") {
			if strings.HasSuffix(fr.Function, ".allocsByStack") || strings.HasSuffix(fr.Function, ".siteAllocs") {
				return ""
			}
			return fmt.Sprintf("%s %s:%d", fr.Function, fr.File, fr.Line)
		}
		if !more {
			return ""
		}
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
