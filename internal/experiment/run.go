package experiment

import (
	"cmp"
	"context"
	"math"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stream"
)

// This file alone knows what a policed-stream run is. Every cluster
// experiment is the same experiment — a broadcast with an adversary cohort
// in the top ids, compensated by a calibrated b̃ and thresholded at an η
// placed from the honest pilot's σ — and declares its runs as workload
// values in its own file. options is the package's one cluster.Options
// literal and run its one path: pilot → launch → churn → advance → tally.
//
// run keeps the three orders every seeded result depends on. Harness timers
// due at the same instant fire in scheduling order, so hooks.pre (the
// matrix's auditor and audit timer) runs before Start and the churn after
// StartStream. conditionsFor draws the poor tail per call, so one Options
// value goes to the pilot and then to the run, in that order. And the rng
// labels (matrix/<scenario>/cal and rep/<i>, soak-churn, churn, poor) name
// the streams the documents were seeded from.

// behaviorFunc builds the adversary behavior of cohort member id; adv is the
// whole cohort in ascending id order (coalition attacks need it).
type behaviorFunc = func(id msg.NodeID, dir *membership.Directory, r *rng.Stream, adv []msg.NodeID) gossip.Behavior

// cohort is a population of n nodes whose top k ids are adversarial, all
// built by one behavior constructor. Churn arrivals (ids from n up) are
// honest.
type cohort struct {
	n, k     int
	behavior behaviorFunc
}

// cohortOf sizes the cohort as a share of the population.
func cohortOf(n int, pct float64, behavior behaviorFunc) cohort {
	return cohort{n: n, k: int(pct * float64(n)), behavior: behavior}
}

// first is the lowest adversarial id; every id below it is honest.
func (co cohort) first() msg.NodeID { return msg.NodeID(co.n - co.k) }

// has reports whether id is a cohort member.
func (co cohort) has(id msg.NodeID) bool { return id >= co.first() && id < msg.NodeID(co.n) }

// ids lists the cohort in ascending id order.
func (co cohort) ids() []msg.NodeID {
	ids := make([]msg.NodeID, 0, co.k)
	for id := co.first(); id < msg.NodeID(co.n); id++ {
		ids = append(ids, id)
	}
	return ids
}

// behaviorFor is the cohort as a cluster.Options.BehaviorFor (nil, everyone
// honest, for an empty cohort).
func (co cohort) behaviorFor() func(msg.NodeID, *membership.Directory, *rng.Stream) gossip.Behavior {
	if co.k == 0 {
		return nil
	}
	adv := co.ids()
	return func(id msg.NodeID, dir *membership.Directory, r *rng.Stream) gossip.Behavior {
		if co.has(id) {
			return co.behavior(id, dir, r, adv)
		}
		return nil
	}
}

// A workload is one cluster run declared as data: who runs it, what
// protocol, over what network, for how long, under which threshold rule,
// with what churn and faults, on which backends.
type workload struct {
	// cohort is the population: n nodes, the top k adversarial.
	cohort
	seed    uint64
	backend runtime.Kind
	shards  int
	// gossip, core and rep state F, Tg, γ, pdcc, M, FlushEvery, the grace
	// and the η the managers hold before (or without) a pilot's.
	gossip gossip.Config
	core   core.Config
	rep    reputation.Config
	// unpoliced turns LiFTinG off.
	unpoliced bool
	// bitrate is the stream rate (0: 674 kbps); chunk is a chunk's payload
	// at 674 kbps (0: 1316 B).
	bitrate, chunk int
	// net is every link's default. poor is the share of honest nodes in the
	// poorly connected tail; uplink, if set, caps every uplink but the
	// source's at that multiple of the stream rate.
	net          net.Conditions
	poor, uplink float64
	// playout records every node's playout for the health curves.
	playout bool
	// stream is how long the source injects chunks; tail how long the run
	// goes on after.
	stream, tail time.Duration
	// pilot is the honest calibration pilot's length (0: no pilot, b̃ from
	// the analysis). Its σ places η = −max(sigmas·σ, floor); expel expels
	// at it.
	pilot         time.Duration
	sigmas, floor float64
	expel         bool
	// joins arrive and leavers leave over the middle half of the stream.
	joins   int
	leavers []msg.NodeID
	// chaos is the fault plan (nil: none).
	chaos *chaos.Plan
	// backends are those the workload runs on; reps is how many seeded
	// repetitions the matrix runs on sim.
	backends []runtime.Kind
	reps     int
}

// options is the package's one cluster.Options literal: what every workload
// shares — the paper's history length, 674 kbps, LiFTinG on — is stated
// here once, the rest is the workload's.
func (w workload) options() cluster.Options {
	g := w.gossip
	g.HistoryPeriods = paperHistory
	bitrate := cmp.Or(w.bitrate, 674_000)
	defaults := w.net
	defaults.UplinkBps = w.uplink * float64(bitrate) / 8
	return cluster.Options{
		N:       w.n,
		Seed:    w.seed,
		Backend: w.backend,
		Shards:  w.shards,
		Gossip:  g,
		Core:    w.core,
		Rep:     w.rep,
		// The chunk rate is held constant across stream rates (≈64 chunks/s,
		// as in the paper's streaming substrate [6]): a faster stream means
		// bigger chunks, not more of them. This is why Table 5's overhead
		// falls as the bitrate grows — verification traffic depends on the
		// chunk rate only.
		Stream:           stream.Config{BitrateBps: bitrate, ChunkPayload: cmp.Or(w.chunk, 1316) * bitrate / 674_000},
		NetDefaults:      defaults,
		ConditionsFor:    w.conditionsFor(),
		LiFTinG:          !w.unpoliced,
		BehaviorFor:      w.behaviorFor(),
		ExpelOnDetection: w.expel,
		TrackPlayout:     w.playout,
		Chaos:            w.chaos,
	}
}

// conditionsFor is the per-node override (nil when there is none): the
// source's uplink stays unlimited under a cap — its f partners pull the
// whole stream from it — and a poor share of the honest nodes, drawn from
// the seed as the closure is called node by node, suffers doubled loss and
// high latency jitter. The draws make it stateful: a pilot and the run it
// calibrates share one options value, pilot first.
func (w workload) conditionsFor() func(msg.NodeID) (net.Conditions, bool) {
	if w.poor == 0 && w.uplink == 0 {
		return nil
	}
	poor := rng.New(w.seed).Derive("poor")
	return func(id msg.NodeID) (net.Conditions, bool) {
		if id == 0 && w.uplink > 0 {
			return w.net, true
		}
		if id == 0 || w.has(id) || !poor.Bernoulli(w.poor) {
			return net.Conditions{}, false
		}
		// Blamed like a mild freerider (§7.3: the false positives "do not
		// deliberately freeride, but their connection does not allow them
		// to contribute their fair share").
		c := net.Uniform(2*w.net.LossIn, 60*time.Millisecond)
		c.LatencyJitter = 60 * time.Millisecond
		return c, true
	}
}

// calibration is what an honest pilot measured — b̃ and σ — and the η the
// workload's rule places from σ.
type calibration struct {
	cluster.Calibration
	eta float64
}

// calibrate runs w's honest pilot on opts: η = −max(sigmas·σ, floor).
// cluster.Calibrate owns what an honest, clean pilot is, so opts is the
// run's own options, unprepared.
func (w workload) calibrate(ctx context.Context, opts cluster.Options) (calibration, error) {
	cal, err := cluster.Calibrate(ctx, opts, w.pilot)
	return calibration{cal, -math.Max(w.sigmas*cal.ScoreStd, w.floor)}, err
}

// hooks are what a caller sees of a run while it runs.
type hooks struct {
	// pre schedules on the assembled cluster ahead of the nodes' own timers.
	pre func(*cluster.Cluster)
	// snapshot receives every period's metrics snapshot.
	snapshot func(*cluster.Cluster, msg.Period, metrics.Snapshot)
	// at replaces the one advance to stream + tail: the run stops at each
	// step in turn and calls each there.
	at   []time.Duration
	each func(c *cluster.Cluster, step int)
}

// outcome is a finished run: its tally, the closed cluster, the calibration
// it ran at (zero without one) and the churn arrivals, ascending, with their
// join times.
type outcome struct {
	tallyResult
	c        *cluster.Cluster
	cal      calibration
	arrivals []msg.NodeID
	joinAt   []time.Duration
}

// run streams w once at cal, or at its own pilot's calibration when cal is
// nil and w has a pilot: launch (New, h.pre, Start, StartStream), the
// churn, advance, tally. The cluster is closed on every path — end of run,
// cancellation, a wall-clock backend's pending timers — so state read from
// the outcome is final on either backend.
func (w workload) run(ctx context.Context, cal *calibration, h hooks) (outcome, error) {
	opts := w.options()
	if cal == nil && w.pilot > 0 {
		own, err := w.calibrate(ctx, opts)
		if err != nil {
			return outcome{}, err
		}
		cal = &own
	}
	var out outcome
	if cal != nil {
		out.cal = *cal
		opts.Rep.Compensation = cal.Compensation
		if w.expel {
			opts.Rep.Eta = cal.eta
		}
	}
	var c *cluster.Cluster
	if h.snapshot != nil {
		opts.OnPeriodSnapshot = func(p msg.Period, s metrics.Snapshot) { h.snapshot(c, p, s) }
	}
	c = cluster.New(opts)
	if h.pre != nil {
		h.pre(c)
	}
	c.Start()
	c.StartStream(w.stream)
	out.arrivals, out.joinAt = scheduleChurn(c, w.stream, w.joins, w.leavers)
	steps := h.at
	if steps == nil {
		steps = []time.Duration{w.stream + w.tail}
	}
	for i, until := range steps {
		if err := c.RunContext(ctx, until); err != nil {
			c.Close()
			return outcome{}, err
		}
		if h.each != nil {
			h.each(c, i)
		}
	}
	c.Close()
	out.c, out.tallyResult = c, tally(c, w.cohort)
	return out, nil
}

// tallyResult is what a finished policed run yields, by value: the expulsion
// split against the cohort, the engine's event count and the collector's
// wire and content-plane totals. An outcome, the scale workload's scalePop
// and the matrix's repOutcome embed it.
type tallyResult struct {
	// Freeriders is the cohort size; FreeridersExpelled how many of them
	// were expelled. HonestExpelled counts every other expelled node still
	// in the system (the source included); DepartedExpelled those blamed
	// past η after they had already left voluntarily — a verdict about a
	// node no longer there, kept apart from live honest casualties.
	Freeriders         int
	FreeridersExpelled int
	HonestExpelled     int
	DepartedExpelled   int
	// DetectionMean is the mean expulsion time of the expelled cohort
	// members on the run's clock — seed-determined under sim.
	//lint:allow no-time-in-results sim-time mean on the engine clock; byte-stable for a fixed seed
	DetectionMean time.Duration
	// Events is the number of discrete events the engine executed (0 on a
	// wall-clock backend).
	Events uint64
	// OverheadPpm is verification bytes / dissemination bytes in parts per
	// million — integral so a run stays a comparable struct and seeded
	// output stays byte-stable. The byte totals behind it stay available to
	// the matrix, which sums them across repetitions before dividing.
	OverheadPpm            uint64
	verifBytes, protoBytes uint64
	// DupChunks and UsefulChunks split received serves into redundant
	// copies and first deliveries.
	DupChunks, UsefulChunks uint64
	// GoodputBytes is the verified chunk payload delivered to first-time
	// receivers — the content plane's QoE headline.
	GoodputBytes uint64
	// StreamLagMeanNs and StreamJitterMeanNs are the mean source-to-receiver
	// chunk lag and the mean inter-arrival deviation from the chunk
	// interval, in integer nanoseconds.
	StreamLagMeanNs, StreamJitterMeanNs uint64
}

// tally reads a finished (closed) cluster against its cohort.
func tally(c *cluster.Cluster, co cohort) tallyResult {
	t := tallyResult{
		Freeriders:         co.k,
		DupChunks:          c.Collector.DupChunks(),
		UsefulChunks:       c.Collector.UsefulChunks(),
		GoodputBytes:       c.Collector.GoodputBytes(),
		StreamLagMeanNs:    c.Collector.StreamLagMeanNs(),
		StreamJitterMeanNs: c.Collector.StreamJitterMeanNs(),
	}
	if c.Engine != nil {
		t.Events = c.Engine.Events()
	}
	_, t.verifBytes = c.Collector.VerificationTotals()
	_, t.protoBytes = c.Collector.ProtocolTotals()
	if t.protoBytes > 0 {
		t.OverheadPpm = t.verifBytes * 1_000_000 / t.protoBytes
	}
	var latency time.Duration
	//lint:allow ordered-map-range commutative integer sums and counts partitioned per id; order cannot affect the totals
	for id, at := range c.Expelled {
		_, departed := c.Departed[id]
		switch {
		case co.has(id):
			t.FreeridersExpelled++
			latency += at
		case departed:
			t.DepartedExpelled++
		default:
			t.HonestExpelled++
		}
	}
	if t.FreeridersExpelled > 0 {
		t.DetectionMean = latency / time.Duration(t.FreeridersExpelled)
	}
	return t
}

// CohortExpelled reports whether the whole adversary cohort was expelled.
func (t tallyResult) CohortExpelled() bool { return t.FreeridersExpelled == t.Freeriders }

// HonestClean reports whether no live honest node was expelled.
func (t tallyResult) HonestClean() bool { return t.HonestExpelled == 0 }

// Overhead returns the verification overhead as a ratio.
func (t tallyResult) Overhead() float64 { return float64(t.OverheadPpm) / 1e6 }

// DupRatio returns the share of received serves that were redundant.
func (t tallyResult) DupRatio() float64 {
	total := t.DupChunks + t.UsefulChunks
	if total == 0 {
		return 0
	}
	return float64(t.DupChunks) / float64(total)
}

// StreamLag returns the mean chunk lag as a duration.
func (t tallyResult) StreamLag() time.Duration { return time.Duration(t.StreamLagMeanNs) }

// StreamJitter returns the mean inter-arrival jitter as a duration.
func (t tallyResult) StreamJitter() time.Duration { return time.Duration(t.StreamJitterMeanNs) }

// drawLeavers picks up to want voluntary leavers from the honest initial
// population, the source excluded: the cohort staying put keeps the
// separation readable, and its fate is what the oracles assert.
func (co cohort) drawLeavers(r *rng.Stream, want int) []msg.NodeID {
	pool := int(co.first()) - 1
	leavers := make([]msg.NodeID, 0, want)
	for _, idx := range r.SampleK(pool, min(want, pool)) {
		leavers = append(leavers, msg.NodeID(idx+1))
	}
	return leavers
}

// scheduleChurn spreads joins arrivals and then the given departures
// uniformly over the middle half of a run of length d — the ramp-up and the
// tail stay quiet, so catch-up and separation are measurable. Called after
// StartStream, so at equal times a churn event follows the chunk injection.
// It returns the arrivals' ids, ascending, and their join times.
func scheduleChurn(c *cluster.Cluster, d time.Duration, joins int, leavers []msg.NodeID) ([]msg.NodeID, []time.Duration) {
	slot := func(i, of int) time.Duration {
		windowStart, window := d/4, d/2
		return windowStart + time.Duration(float64(i)/float64(of)*float64(window))
	}
	ids, at := make([]msg.NodeID, joins), make([]time.Duration, joins)
	for i := range ids {
		at[i] = slot(i, joins)
		ids[i] = c.ScheduleJoin(at[i])
	}
	for i, id := range leavers {
		c.ScheduleLeave(slot(i, len(leavers)), id)
	}
	return ids, at
}
