package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	gort "runtime"
	"sort"
	"time"

	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stream"
)

// clusterSpec sizes one of the three workloads that run a whole LiFTinG
// cluster. The full-size values below are the benchmark; the smoke test
// shrinks n and stream and nothing else.
type clusterSpec struct {
	name, why string
	backend   runtime.Kind
	// shards is cluster.Options.Shards: -1 one shard per CPU (the shipped
	// default), 0 the serial engine, n >= 1 exactly n.
	shards       int
	n            int
	delta        [3]float64
	m            int
	chunkPayload int
	loss         float64
	stream       time.Duration
	drain        time.Duration
	gamma        float64
	flushEvery   int
	// pilotN > 0 calibrates b̃ and η = −10σ on an honest pilot of that size
	// during set-up and expels on detection, as experiment.Scale does;
	// 0 runs with no threshold (η = −1e9).
	pilotN        int
	joins, leaves int
	// procs > 0 runs the workload's passes on that many Ps (GOMAXPROCS);
	// 0 leaves the process's setting alone.
	procs int
	// verdicts asserts the per-node verdict ops. Off at toy size: the
	// stream is shorter than the 24-period grace.
	verdicts bool
	// probeDiv divides the probes' iteration counts (1 in the benchmark).
	probeDiv int
	// outDir receives the traced pass's artifacts.
	outDir string
}

const (
	gossipPeriod   = 500 * time.Millisecond
	freeriderShare = 0.10
	// settleTime is how long before the end of the stream a chunk must have
	// been generated for its delivery to count as an operation: later chunks
	// are legitimately still in flight when the run stops.
	settleTime = 3 * time.Second
	// clearStream is the share of due chunks a receiver must hold for its
	// delivery op to succeed: what is left after the loss a streaming
	// client's forward error correction absorbs. Loss alone costs the
	// unluckiest node a few percent, so a healthy run fails no delivery op;
	// the raw miss share is the layer metric gossip.missed_chunk_pct.
	clearStream = 0.90
	// maxMissedShare and maxWrongfulShare are the guarantee an expelling run
	// is held to: at least 99 % of the freeriders expelled (α) and at most
	// 0.1 % of the honest nodes (β). Beyond either, every verdict op fails.
	maxMissedShare   = 0.01
	maxWrongfulShare = 0.001
)

func simScaleSpec(stream time.Duration) clusterSpec {
	return clusterSpec{
		name:    "sim_scale",
		why:     "4000 simulated nodes, static membership, one engine shard per CPU: engine, simnet, gossip, core and reputation do all the work; transport and gateway do none",
		backend: runtime.KindSim, shards: -1, n: 4000, probeDiv: 1, outDir: artifactsDir,
		delta: [3]float64{0.7, 0.7, 0}, m: 25, chunkPayload: 5264, loss: 0.01,
		stream: stream, drain: time.Second, gamma: 8.95, flushEvery: 5, pilotN: 300, verdicts: true,
	}
}

func simChurnSpec(stream time.Duration) clusterSpec {
	return clusterSpec{
		name:    "sim_churn",
		why:     "1000 simulated nodes on the serial engine with 300 joins and 300 leaves: membership epochs invalidate the manager cache and manager handoffs are a large share of the run",
		backend: runtime.KindSim, shards: 0, n: 1000, probeDiv: 1, outDir: artifactsDir,
		delta: [3]float64{0.3, 0.3, 0.3}, m: 10, chunkPayload: 1316, loss: 0.02,
		stream: stream, drain: gossipPeriod, gamma: 8, flushEvery: 1, joins: 300, leaves: 300, verdicts: true,
	}
}

// wireUDPSpec runs on one P: the paced load is a third of one core, and on
// more Ps what varies from run to run is the scheduler handing goroutines
// between mostly idle vCPUs, a cost that follows the host's other tenants
// (under a bursty neighbour the spread of cpu_s was 12 % on two Ps, 5 % on
// one).
func wireUDPSpec(stream time.Duration) clusterSpec {
	return clusterSpec{
		name:    "wire_udp",
		why:     "100 nodes on one loopback UDP socket each, paced by the stream clock: codec, socket send, receive loop and wall-clock timers, the code lifting-node ships; engine and simnet do nothing",
		backend: runtime.KindUDP, procs: 1, n: 100, probeDiv: 1, outDir: artifactsDir,
		delta: [3]float64{0.7, 0.7, 0}, m: 25, chunkPayload: 1316, loss: 0.01,
		stream: stream, drain: time.Second, gamma: 8.95, flushEvery: 5, verdicts: true,
	}
}

func (s clusterSpec) firstFreerider(n int) msg.NodeID {
	return msg.NodeID(n - int(freeriderShare*float64(n)))
}

// options assembles the cluster for a population of n (the workload's own,
// or the calibration pilot's).
func (s clusterSpec) options(seed uint64, n int) cluster.Options {
	firstFree := s.firstFreerider(n)
	return cluster.Options{
		N:       n,
		Seed:    seed,
		Backend: s.backend,
		Shards:  s.shards,
		Gossip:  gossip.Config{F: 7, Period: gossipPeriod, ChunkPayload: s.chunkPayload, HistoryPeriods: 50},
		Core: core.Config{
			F: 7, Period: gossipPeriod, Pdcc: 1, HistoryPeriods: 50, Gamma: s.gamma, Eta: -1e9,
		},
		Rep:          reputation.Config{M: s.m, Eta: -1e9, FlushEvery: s.flushEvery, GracePeriods: 24},
		Stream:       stream.Config{BitrateBps: 674_000, ChunkPayload: s.chunkPayload},
		NetDefaults:  net.Uniform(s.loss, 5*time.Millisecond),
		LiFTinG:      true,
		BlameMode:    cluster.BlameMessages,
		ExpectedLoss: s.loss,
		BehaviorFor: func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id >= firstFree && id < msg.NodeID(n) {
				return freerider.Degree{Delta1: s.delta[0], Delta2: s.delta[1], Delta3: s.delta[2]}
			}
			return nil
		},
	}
}

// limitProcs applies the spec's procs and returns what undoes it.
func (s clusterSpec) limitProcs() (restore func()) {
	if s.procs <= 0 {
		return func() {}
	}
	prev := gort.GOMAXPROCS(s.procs)
	return func() { gort.GOMAXPROCS(prev) }
}

// setUp builds the workload's cluster: the calibration pilot where the spec
// asks for one, then cluster.New (node assembly, socket binds on UDP).
func (s clusterSpec) setUp(ctx context.Context, seed uint64) (*cluster.Cluster, error) {
	opts := s.options(seed, s.n)
	if s.pilotN > 0 {
		cal, err := cluster.Calibrate(ctx, s.options(seed, s.pilotN), s.stream)
		if err != nil {
			return nil, fmt.Errorf("%s: calibration pilot: %w", s.name, err)
		}
		opts.Rep.Compensation = cal.Compensation
		opts.Rep.Eta = -10 * cal.ScoreStd
		opts.ExpelOnDetection = true
	}
	return cluster.New(opts), nil
}

// churnPlan is the join/leave schedule of one run, kept so the verdict ops
// can check that each was applied.
type churnPlan struct {
	joined []msg.NodeID
	left   []msg.NodeID
}

// scheduleChurn spreads the spec's joins and leaves over the middle half of
// the stream, as experiment.Churn does. Leavers are honest initial nodes.
// Under tracing each joiner's handler is wrapped by a harness callback
// scheduled right behind its join, at the same instant.
func (s clusterSpec) scheduleChurn(c *cluster.Cluster, seed uint64, tr *tracer) churnPlan {
	var plan churnPlan
	window, start := s.stream/2, s.stream/4
	for i := 0; i < s.joins; i++ {
		at := start + time.Duration(float64(i)/float64(s.joins)*float64(window))
		id := c.ScheduleJoin(at)
		plan.joined = append(plan.joined, id)
		if tr != nil {
			c.After(at, func() { c.RT.Attach(id, tr.wrap(c.Nodes[id])) })
		}
	}
	pool := int(s.firstFreerider(s.n)) - 1
	for i, idx := range rng.New(seed).Derive("churn").SampleK(pool, min(s.leaves, pool)) {
		at := start + time.Duration(float64(i)/float64(s.leaves)*float64(window))
		id := msg.NodeID(idx + 1)
		c.ScheduleLeave(at, id)
		plan.left = append(plan.left, id)
	}
	return plan
}

// clusterPass is what one timed run of a cluster workload measured.
type clusterPass struct {
	c    *cluster.Cluster
	plan churnPlan
	cost
	// tracerEvents counts the engine events that were the tracer's own (the
	// callbacks that wrap churn joiners), not the simulation's.
	tracerEvents uint64
}

// events is the number of discrete events the simulation executed.
func (p clusterPass) events() uint64 { return p.c.Engine.Events() - p.tracerEvents }

// timedRun executes the timed region — Start, StartStream, RunContext,
// Close — on a cluster setUp built, with every handler wrapped when tr is
// non-nil.
func (s clusterSpec) timedRun(ctx context.Context, c *cluster.Cluster, seed uint64, tr *tracer) (clusterPass, error) {
	if tr != nil {
		for id, node := range c.Nodes {
			c.RT.Attach(id, tr.wrap(node))
		}
	}
	reg := beginRegion()
	c.Start()
	c.StartStream(s.stream)
	plan := s.scheduleChurn(c, seed, tr)
	err := c.RunContext(ctx, s.stream+s.drain)
	c.Close()
	p := clusterPass{c: c, plan: plan, cost: reg.end()}
	if tr != nil {
		p.tracerEvents = uint64(len(plan.joined))
	}
	if err != nil {
		return p, fmt.Errorf("%s: run: %w", s.name, err)
	}
	return p, nil
}

// pass sets the cluster up and runs the timed region once.
func (s clusterSpec) pass(ctx context.Context, seed uint64, tr *tracer) (clusterPass, error) {
	start := time.Now()
	c, err := s.setUp(ctx, seed)
	if err != nil {
		return clusterPass{}, err
	}
	setupS := time.Since(start).Seconds()
	p, err := s.timedRun(ctx, c, seed, tr)
	p.setupS = setupS
	return p, err
}

// opCounts are the operations of one run and how many failed.
type opCounts struct {
	deliveries, deliveryFailed int
	verdicts, verdictFailed    int
	// dueChunks and missedChunks are the per-(node, chunk) deliveries behind
	// the delivery ops; loss makes a small share of them miss. worstMissed
	// is the unluckiest receiver's count.
	dueChunks, missedChunks, worstMissed int
	notes                                []string
}

// countOps scores the run. One delivery op per honest receiver present for
// the whole run: it fails if the node holds less than 90 % of the chunks
// generated at least settleTime before the stream ended. One verdict op per
// node: it fails if the node's scheduled join or leave was not applied.
// Expulsion is judged as a cohort, against maxMissedShare and
// maxWrongfulShare, and with no expulsion the verdict is the separation of
// the score means: either way all verdict ops fail together.
func (s clusterSpec) countOps(p clusterPass) opCounts {
	c := p.c
	var ops opCounts
	due := c.Opts.Stream.ChunksBy(s.stream - settleTime)
	left := make(map[msg.NodeID]bool, len(p.plan.left))
	for _, id := range p.plan.left {
		left[id] = true
	}
	for i := 1; i < s.n; i++ {
		id := msg.NodeID(i)
		if _, expelled := c.Expelled[id]; c.Freeriders[id] || left[id] || expelled {
			continue
		}
		missed := 0
		for ch := 0; ch < due; ch++ {
			if !c.Nodes[id].Have(msg.ChunkID(ch)) {
				missed++
			}
		}
		ops.deliveries++
		ops.dueChunks += due
		ops.missedChunks += missed
		ops.worstMissed = max(ops.worstMissed, missed)
		if float64(due-missed) < clearStream*float64(due) {
			ops.deliveryFailed++
		}
	}

	ops.verdicts = s.n + len(p.plan.joined)
	if !s.verdicts {
		return ops
	}
	for _, id := range p.plan.joined {
		if _, ok := c.Joined[id]; !ok {
			ops.verdictFailed++
		}
	}
	for _, id := range p.plan.left {
		if _, ok := c.Departed[id]; !ok {
			ops.verdictFailed++
		}
	}
	if c.Opts.ExpelOnDetection {
		missed, wrongful := 0, 0
		for i := 1; i < s.n; i++ {
			id := msg.NodeID(i)
			switch _, expelled := c.Expelled[id]; {
			case c.Freeriders[id] && !expelled:
				missed++
			case !c.Freeriders[id] && expelled:
				wrongful++
			}
		}
		// Detection is probabilistic: the threshold sits a unit of σ below
		// the least-blamed freerider, and about one seed in fifty puts one
		// honest node of 3600 beyond it during a burst of late acks.
		honest := s.n - 1 - len(c.Freeriders)
		if float64(missed) > maxMissedShare*float64(len(c.Freeriders)) || float64(wrongful) > maxWrongfulShare*float64(honest) {
			ops.verdictFailed = ops.verdicts
		}
		var last time.Duration
		for _, at := range c.Expelled {
			last = max(last, at)
		}
		ops.notes = append(ops.notes, fmt.Sprintf("expulsion: %d of %d freeriders missed, %d honest nodes expelled; mean detection %.3f s, last %.3f s",
			missed, len(c.Freeriders), wrongful, detectMeanS(c), last.Seconds()))
	} else {
		honest, free := scoreMeans(c)
		if honest <= free {
			ops.verdictFailed = ops.verdicts
		}
		ops.notes = append(ops.notes, fmt.Sprintf("separation: honest mean score %.3f, freerider mean score %.3f", honest, free))
	}
	return ops
}

// scoreMeans returns the mean min-vote score of the alive honest nodes and
// of the alive freeriders, folded in id order.
func scoreMeans(c *cluster.Cluster) (honest, free float64) {
	scores := c.Scores()
	var nh, nf int
	for _, id := range c.Dir.All() {
		if id == 0 || !c.Dir.Alive(id) {
			continue
		}
		if c.Freeriders[id] {
			free += scores[id]
			nf++
		} else {
			honest += scores[id]
			nh++
		}
	}
	return honest / float64(max(nh, 1)), free / float64(max(nf, 1))
}

// detectMeanS is the mean expulsion time of the freerider cohort, in
// simulated (or, on UDP, stream-clock) seconds; 0 when nobody was expelled.
func detectMeanS(c *cluster.Cluster) float64 {
	var sum time.Duration
	n := 0
	for id, at := range c.Expelled {
		if c.Freeriders[id] {
			sum += at
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return (sum / time.Duration(n)).Seconds()
}

// simDigest hashes the simulated statistics of a run: event count, per-kind
// traffic, content-plane totals and the expulsion set with its times. Two
// runs of one seed must agree on it whatever the shard count, and whether or
// not the handlers were wrapped.
func simDigest(p clusterPass) string {
	c := p.c
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(p.events())
	col := c.Collector
	for k := msg.KindPropose; k <= msg.KindAuditPollResp; k++ {
		put(col.SentMsgs(k))
		put(col.SentBytes(k))
		put(col.RecvMsgs(k))
		put(col.RecvBytes(k))
		put(col.Dropped(k))
	}
	put(col.UsefulChunks())
	put(col.DupChunks())
	put(col.GoodputBytes())
	put(col.StreamLagMeanNs())
	put(col.StreamJitterMeanNs())
	put(uint64(col.ServeLatency.SumNanos()))
	expelled := make([]msg.NodeID, 0, len(c.Expelled))
	for id := range c.Expelled {
		expelled = append(expelled, id)
	}
	sort.Slice(expelled, func(i, j int) bool { return expelled[i] < expelled[j] })
	for _, id := range expelled {
		put(uint64(id))
		put(uint64(c.Expelled[id]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
