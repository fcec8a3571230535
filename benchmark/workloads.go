package main

import (
	"context"
	"fmt"
	gort "runtime"
	"sort"
	"time"

	"lifting/internal/msg"
	"lifting/internal/runtime"
)

// workload is one entry of the benchmark: a whole-system scenario, why it
// exists, and its two passes.
type workload struct {
	name, why string
	// measure is the untraced pass: it yields the end-to-end metrics.
	measure func(ctx context.Context, seed uint64) (outcome, error)
	// trace runs an untraced and then a traced pass: it yields the
	// per-layer metrics and the artifacts under benchmark/out.
	trace func(ctx context.Context, seed uint64) (outcome, error)
}

func (s clusterSpec) workload() workload {
	return workload{name: s.name, why: s.why, measure: s.measure, trace: s.trace}
}

func (s gatewaySpec) workload() workload {
	return workload{name: "gateway_edge", why: s.why, measure: s.measure, trace: s.trace}
}

// benchmarkWorkloads are the four full-size workloads, each streaming (the
// clusters) or loaded (the gateway) for d.
func benchmarkWorkloads(d time.Duration) []workload {
	return []workload{
		simScaleSpec(d).workload(),
		simChurnSpec(d).workload(),
		wireUDPSpec(d).workload(),
		gatewayEdgeSpec(d).workload(),
	}
}

// outcome is the result of one invocation on one workload.
type outcome struct {
	env               environment
	attempted, failed int
	// problems are correctness failures — a failed verdict op, a digest or a
	// hash mismatch. Any one makes the result incorrect and the exit nonzero;
	// delivery ops that fail only count.
	problems []string
	notes    []string
	digest   string // sim workloads only
	metrics  map[string]float64
}

// medianSetUp sets the workload up again — at least three set-ups in all,
// and up to thirty-one while they took under two seconds together, so that a
// set-up of a few milliseconds still yields a steady number — and returns the
// median set-up time. Each starts from a collected heap: a set-up that
// allocates tens of megabytes otherwise takes twice as long whenever it is
// the one that has to collect its predecessors. again returns what releases
// the set-up it built; the release is not timed.
func medianSetUp(first float64, again func() (release func(), err error)) (float64, error) {
	setups, total := []float64{first}, first
	for len(setups) < 3 || (total < 2 && len(setups) < 31) {
		gort.GC()
		start := time.Now()
		release, err := again()
		if err != nil {
			return 0, err
		}
		took := time.Since(start).Seconds()
		release()
		setups, total = append(setups, took), total+took
	}
	return median(setups), nil
}

// score turns a finished pass into ops, digest and problems.
func (s clusterSpec) score(p clusterPass) (outcome, opCounts) {
	ops := s.countOps(p)
	out := outcome{
		attempted: ops.deliveries + ops.verdicts,
		failed:    ops.deliveryFailed + ops.verdictFailed,
	}
	if ops.verdictFailed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d verdict ops failed", ops.verdictFailed, ops.verdicts))
	}
	out.notes = append(ops.notes, fmt.Sprintf("ops: %d deliveries (%d failed; %d of %d due chunks missed, the worst receiver %d of its %d), %d verdicts (%d failed)",
		ops.deliveries, ops.deliveryFailed, ops.missedChunks, ops.dueChunks, ops.worstMissed, ops.dueChunks/max(ops.deliveries, 1), ops.verdicts, ops.verdictFailed))
	if p.c.Engine != nil {
		out.digest = simDigest(p)
	}
	if n := p.c.Collector.InvalidServes(); n > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d serves failed their content hash", n))
	}
	return out, ops
}

// environment describes the machine before the workload loads it; the
// shard count is filled in once a cluster exists.
func (s clusterSpec) environment() environment {
	env := readEnvironment()
	if s.backend != runtime.KindSim {
		env.Link = "loopback, not a real link"
	}
	return env
}

// measure is the untraced invocation of a cluster workload.
func (s clusterSpec) measure(ctx context.Context, seed uint64) (outcome, error) {
	defer s.limitProcs()()
	env := s.environment()
	p, err := s.pass(ctx, seed, nil)
	if err != nil {
		return outcome{}, err
	}
	rss := peakRSSMB() // before the repeated set-ups below add to it
	out, _ := s.score(p)
	env.Shards = p.c.ShardCount()
	out.env = env

	col := p.c.Collector
	useful := float64(col.UsefulChunks())
	out.metrics = map[string]float64{
		"run_s":            p.runS,
		"cpu_s":            p.cpuS,
		"allocs_per_chunk": float64(p.mallocs) / useful,
		"peak_rss_mb":      rss,
		"chunks_per_s":     useful / p.runS,
		"lag_mean_ms":      float64(col.StreamLagMeanNs()) / 1e6,
	}

	first := p.setupS
	p = clusterPass{} // let the run's cluster go before building more
	out.metrics["setup_s"], err = medianSetUp(first, func() (func(), error) {
		c, err := s.setUp(ctx, seed)
		if err != nil {
			return nil, err
		}
		return c.Close, nil
	})
	return out, err
}

// spansDoc is benchmark/out/<workload>/spans.json.
type spansDoc struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Environment environment        `json:"environment"`
	Spans       []kindSpan         `json:"spans,omitempty"`
	AllocPct    map[string]float64 `json:"alloc_pct"`
	Probes      map[string]float64 `json:"probes"`
	PerLayer    map[string]float64 `json:"per_layer"`
}

// trace is the traced invocation of a cluster workload: an untraced pass for
// reference, then the same run with every handler wrapped and the profilers
// on.
func (s clusterSpec) trace(ctx context.Context, seed uint64) (outcome, error) {
	unlimit := s.limitProcs()
	defer unlimit()
	env := s.environment()
	base, err := s.pass(ctx, seed, nil)
	if err != nil {
		return outcome{}, err
	}
	baseOut, _ := s.score(base)
	baseCost := base.cost
	base = clusterPass{}

	c, err := s.setUp(ctx, seed)
	if err != nil {
		return outcome{}, err
	}
	tr := &tracer{}
	allocs0 := allocsByLayer()
	prof, err := startProfiles(s.outDir, s.name)
	if err != nil {
		return outcome{}, err
	}
	p, runErr := s.timedRun(ctx, c, seed, tr)
	if err := prof.stopCPU(); err != nil {
		return outcome{}, err
	}
	if runErr != nil {
		return outcome{}, runErr
	}
	allocPct := allocShares(allocs0, allocsByLayer())

	out, ops := s.score(p)
	env.Shards = p.c.ShardCount()
	out.env = env
	if out.digest != baseOut.digest {
		out.problems = append(out.problems, fmt.Sprintf("sim_digest differs: untraced %s, traced %s", baseOut.digest, out.digest))
	}
	m := map[string]float64{}
	s.layerMetrics(m, p, tr, ops)
	for layer, pct := range allocPct {
		m[layer+".alloc_pct"] = pct
	}
	m["runtime.heap_live_mb"] = heapLiveMB()
	m["trace.overhead_pct"] = 100 * (p.cpuS/baseCost.cpuS - 1)
	spans := tr.rows()
	p = clusterPass{}

	if s.shards == -1 {
		// The shipped default against one shard, both untraced.
		one := s
		one.shards = 1
		sp, err := one.pass(ctx, seed, nil)
		if err != nil {
			return outcome{}, err
		}
		if d := simDigest(sp); d != out.digest {
			out.problems = append(out.problems, fmt.Sprintf("sim_digest differs: %d shards %s, 1 shard %s", out.env.Shards, out.digest, d))
		}
		m["sim.shard_speedup"] = sp.runS / baseCost.runS
		out.notes = append(out.notes, fmt.Sprintf("sim.shard_speedup: 1 shard %.2f s / %d shards %.2f s at GOMAXPROCS=%d",
			sp.runS, out.env.Shards, baseCost.runS, out.env.GoMaxProcs))
	}
	unlimit() // the probes run as they do in every other workload
	gort.GC() // the probes should not pay for collecting the clusters above

	probes, err := runProbes(s.probeDiv)
	if err != nil {
		return outcome{}, err
	}
	for name, v := range probes {
		m[name] = v
	}
	out.metrics = m
	return out, prof.finish(spansDoc{
		Workload: s.name, Seed: seed, Environment: out.env,
		Spans: spans, AllocPct: allocPct, Probes: probes, PerLayer: m,
	})
}

// layerMetrics fills in what the spans and the public counters say about
// each layer of a traced cluster run.
func (s clusterSpec) layerMetrics(m map[string]float64, p clusterPass, tr *tracer, ops opCounts) {
	c, col := p.c, p.c.Collector
	busy, calls := tr.layerTotals()
	var busyS float64
	for _, layer := range []string{"gossip", "core", "reputation"} {
		m[layer+".handle_cpu_s"] = float64(busy[layer]) / 1e9
		m[layer+".handle_calls"] = float64(calls[layer])
		m[layer+".handle_ns_per_call"] = ratio(float64(busy[layer]), float64(calls[layer]))
		busyS += float64(busy[layer]) / 1e9
	}
	confirm := &tr.kinds[msg.KindConfirm]
	m["core.confirm_ns_per_call"] = ratio(float64(confirm.busyNs.Load()), float64(confirm.calls.Load()))

	// Whatever CPU the handlers did not use went to the backend under them
	// (engine, network model and timers, or sockets, codec and receive
	// loops), the harness tick and the collector.
	outside := p.cpuS - busyS
	sent, sentBytes := col.Totals(func(msg.Kind) bool { return true })
	var dropped uint64
	for k := msg.KindPropose; k <= msg.KindAuditPollResp; k++ {
		dropped += col.Dropped(k)
	}
	if c.Engine != nil {
		m["sim.events"] = float64(p.events())
		m["sim.events_per_s"] = float64(p.events()) / p.runS
		m["sim.shards"] = float64(c.ShardCount())
		m["sim.outside_handlers_cpu_s"] = outside
		m["net.msgs_sent"] = float64(sent)
		m["net.msgs_dropped"] = float64(dropped)
		m["net.bytes_sent"] = float64(sentBytes)
	} else {
		m["transport.outside_handlers_cpu_s"] = outside
		m["transport.cpu_us_per_msg"] = ratio(outside*1e6, float64(sent))
		m["transport.allocs_per_msg"] = ratio(float64(p.mallocs), float64(sent))
		m["transport.msgs_sent"] = float64(sent)
		m["transport.msgs_dropped"] = float64(dropped)
	}

	useful, dup := float64(col.UsefulChunks()), float64(col.DupChunks())
	m["gossip.useful_chunks"] = useful
	m["gossip.dup_chunk_ratio"] = ratio(dup, useful+dup)
	m["gossip.missed_chunk_pct"] = 100 * ratio(float64(ops.missedChunks), float64(ops.dueChunks))
	snap := col.ServeLatency.Snapshot()
	m["gossip.serve_mean_ms"] = ratio(float64(snap.SumNs), float64(snap.Count)) / 1e6
	for i, bound := range snap.BoundsMs {
		if bound == 25 {
			m["gossip.serve_over_25ms_pct"] = 100 * ratio(float64(snap.Count-snap.Counts[i]), float64(snap.Count))
		}
	}

	var blames uint64
	for _, n := range col.BlamesIssued() {
		blames += n
	}
	m["core.blames_issued"] = float64(blames)
	m["core.verif_overhead_pct"] = 100 * col.Overhead()
	m["reputation.handoffs"] = float64(c.Handoffs())
	m["reputation.max_tracked_per_manager"] = float64(c.MaxTrackedPerManager())
	m["reputation.detect_mean_s"] = detectMeanS(c)
	m["membership.epochs"] = float64(c.Dir.Epoch())
	m["runtime.gc_cpu_pct"] = 100 * ratio(p.gcCPUS, p.cpuS)
	m["runtime.gc_cycles"] = float64(p.gcCycles)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (s gatewaySpec) environment() environment {
	env := readEnvironment()
	env.Link = "loopback, not a real link"
	return env
}

// score turns a finished gateway pass into ops and problems: one op per
// request, failed if FetchChunk returned an error.
func (p gatewayPass) score() outcome {
	out := outcome{attempted: p.responses() + p.failed + p.wrong, failed: p.failed + p.wrong}
	if p.wrong > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d verified responses carried another chunk's payload", p.wrong))
	}
	out.notes = append(out.notes, fmt.Sprintf("ops: %d requests (%d failed), %d hot and %d cold latency samples",
		out.attempted, out.failed, len(p.hotNs), len(p.coldNs)))
	return out
}

// measure is the untraced invocation of gateway_edge.
func (s gatewaySpec) measure(_ context.Context, seed uint64) (outcome, error) {
	env := s.environment()
	p, err := s.pass(seed)
	if err != nil {
		return outcome{}, err
	}
	out := p.score()
	out.env = env
	out.metrics = map[string]float64{
		"run_s":            p.runS,
		"cpu_s":            p.cpuS,
		"allocs_per_chunk": ratio(float64(p.mallocs), float64(p.responses())),
		"peak_rss_mb":      peakRSSMB(),
		"chunks_per_s":     float64(p.responses()) / p.loadS,
		"lag_mean_ms":      meanNs(p.coldNs, 1e6),
	}
	out.metrics["setup_s"], err = medianSetUp(p.setupS, func() (func(), error) {
		rig, err := s.setUp(seed)
		if err != nil {
			return nil, err
		}
		return rig.close, nil
	})
	return out, err
}

// trace is the traced invocation of gateway_edge. The gateway has no
// handler seam to wrap from outside, so its layer metrics are its own
// counters, the clients' latency samples and the profiles.
func (s gatewaySpec) trace(_ context.Context, seed uint64) (outcome, error) {
	env := s.environment()
	base, err := s.pass(seed)
	if err != nil {
		return outcome{}, err
	}
	rig, err := s.setUp(seed)
	if err != nil {
		return outcome{}, err
	}
	allocs0 := allocsByLayer()
	prof, err := startProfiles(s.outDir, "gateway_edge")
	if err != nil {
		rig.close()
		return outcome{}, err
	}
	p := s.timedRun(rig)
	if err := prof.stopCPU(); err != nil {
		return outcome{}, err
	}
	allocPct := allocShares(allocs0, allocsByLayer())

	out := p.score()
	out.env = env
	all := append(append([]int64(nil), p.hotNs...), p.coldNs...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	reqs := float64(p.edge.Requests)
	m := map[string]float64{
		"gateway.cache_hit_ratio": ratio(float64(p.edge.CacheHits), reqs),
		"gateway.upstream_ratio":  ratio(float64(p.edge.UpstreamHits), reqs),
		"gateway.bytes_served":    float64(p.edge.BytesServed),
		"gateway.cpu_us_per_req":  ratio(p.cpuS*1e6, float64(p.responses())),
		"gateway.req_p50_us":      percentileNs(all, 50, 1e3),
		"gateway.req_p95_us":      percentileNs(all, 95, 1e3),
		"gateway.req_p99_us":      percentileNs(all, 99, 1e3),
		"runtime.gc_cpu_pct":      100 * ratio(p.gcCPUS, p.cpuS),
		"runtime.gc_cycles":       float64(p.gcCycles),
		"runtime.heap_live_mb":    heapLiveMB(),
		// Both cores are saturated on either pass, so the overhead shows in
		// the CPU one request costs, not in cpu_s.
		"trace.overhead_pct": 100 * (ratio(p.cpuS, float64(p.responses()))/ratio(base.cpuS, float64(base.responses())) - 1),
	}
	out.notes = append(out.notes, fmt.Sprintf("latency samples: %d (p99 has %d beyond it)", len(all), len(all)/100))
	for layer, pct := range allocPct {
		m[layer+".alloc_pct"] = pct
	}
	probes, err := runProbes(s.probeDiv)
	if err != nil {
		return outcome{}, err
	}
	for name, v := range probes {
		m[name] = v
	}
	out.metrics = m
	return out, prof.finish(spansDoc{
		Workload: "gateway_edge", Seed: seed, Environment: out.env,
		AllocPct: allocPct, Probes: probes, PerLayer: m,
	})
}
