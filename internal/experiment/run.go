package experiment

import (
	"context"
	"math"
	"time"

	"lifting/internal/cluster"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/rng"
)

// This file alone knows what a policed-stream run is. Every cluster
// experiment — the paper's (Figures 1 and 14, Tables 3 and 5) and the
// reproduction's (churn, scale, soak, the adversary matrix, the ablations) —
// is the same experiment: a broadcast with an adversary cohort in the top
// ids, compensated by a calibrated b̃ and thresholded at an η placed from the
// honest pilot's σ. The stages live here once (cohort, calibrate, launch,
// advance, tally, the churn spread); which cohort, which σ-multiple and how
// long stay with each workload, next to its cluster.Options literal.
//
// Two orders are part of every seeded result and are the callers' to keep.
// Harness timers due at the same instant fire in scheduling order, so what a
// workload schedules before Start (launch's pre hook: the matrix's audit
// timer) and what it schedules after StartStream (on the returned cluster:
// churn's joins and leaves) must stay where they are. And an Options value
// may carry a stateful ConditionsFor (PlanetLabConfig.buildOptions draws the
// poor tail per call): the pilot consumes the first n draws and the run the
// next, so one Options value goes to calibrate and then to launch, in that
// order.

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

// calibrate runs the honest pilot for opts and places the threshold from its
// spread: η = −max(sigmas·σ, floor). cluster.Calibrate owns what an honest,
// clean pilot is, so opts is the run's own options, unprepared.
func calibrate(ctx context.Context, opts cluster.Options, pilot time.Duration, sigmas, floor float64) (cluster.Calibration, float64, error) {
	cal, err := cluster.Calibrate(ctx, opts, pilot)
	return cal, -math.Max(sigmas*cal.ScoreStd, floor), err
}

// launch assembles the cluster, lets pre schedule on it ahead of the nodes'
// own timers (nil for most workloads), starts every node and schedules
// stream's worth of chunk injections at the source. Whatever the caller
// schedules on the returned cluster fires after all of that at equal times.
// Every launch ends in advance, which closes the cluster.
func launch(opts cluster.Options, stream time.Duration, pre func(*cluster.Cluster)) *cluster.Cluster {
	c := cluster.New(opts)
	if pre != nil {
		pre(c)
	}
	c.Start()
	c.StartStream(stream)
	return c
}

// advance runs c to each step in turn, calling each (when non-nil) with the
// step's index once the clock is there, and closes the cluster on every
// path — end of run, cancellation, a wall-clock backend's pending timers.
// State read after it returns is final on either backend.
func advance(ctx context.Context, c *cluster.Cluster, each func(step int), steps ...time.Duration) error {
	defer c.Close()
	for i, until := range steps {
		if err := c.RunContext(ctx, until); err != nil {
			return err
		}
		if each != nil {
			each(i)
		}
	}
	return nil
}

// tallyResult is what a finished policed run yields, by value: the expulsion
// split against the cohort, the engine's event count and the collector's
// wire and content-plane totals. ScaleRun, SoakResult and the matrix's
// repOutcome embed it.
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
// launch, so at equal times a churn event follows the chunk injection. It
// returns the arrivals' ids, ascending, and their join times.
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
