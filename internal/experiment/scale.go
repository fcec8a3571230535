package experiment

import (
	"context"
	"time"

	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/runtime"
)

// scaleBaselineN is the reference population whose verdict N must
// reproduce (the paper's deployment size). The blame compensation and the
// expulsion threshold are calibrated once, at this scale.
const scaleBaselineN = 300

// scalePop is the outcome of one population's run: its size and the run's
// tally.
type scalePop struct {
	N int
	tallyResult
}

// Verdict summarizes the run's expulsion outcome.
func (r scalePop) Verdict() string {
	switch {
	case r.CohortExpelled() && r.HonestClean():
		return "cohort expelled, honest clean"
	case r.CohortExpelled():
		return "cohort expelled, honest casualties"
	default:
		return "cohort not fully expelled"
	}
}

// snapshotEvery is the period sampling interval of the metrics snapshots.
const snapshotEvery = 5

// scaleWorkloads are the scale workload's two runs: the same
// LiFTinG-policed broadcast with a freerider cohort at the 300-node
// baseline (the paper's deployment scale, §7) and at the target population,
// whose expulsion verdict must be the baseline's. Per-node verification
// traffic depends on the fanout f, not on N, so the baseline's calibration
// transfers to the target; what the large run stresses is the substrate:
// manager assignment (the epoch cache), blame flushing and min-vote reads
// at 10k+ nodes.
func scaleWorkloads(p Params) []workload {
	tg := 500 * time.Millisecond
	at := func(n int) workload {
		return workload{
			// Hard freeriding in fanout and propose, full serves: δ1/δ2
			// blame is self-contained (acks reveal the shrunken partner
			// list, witnesses fail the confirms), whereas a δ3 freerider
			// wrongfully blames its honest receivers for never acking
			// chunks it silently dropped — which would push the honest tail
			// toward the threshold and make a clean verdict unattainable at
			// any scale.
			cohort: cohortOf(n, 0.10, degree(0.7, 0.7, 0)),
			seed:   p.Seed,
			// The discrete-event engine: 10k real sockets or goroutines is
			// a deployment question, not this workload's.
			backend: runtime.KindSim,
			shards:  p.Shards,
			gossip:  gossip.Config{F: 7, Period: tg},
			core:    core.Config{Pdcc: 1, Gamma: paperGamma},
			// M = 25 managers per node; blames and score reads travel as
			// messages. Grace of 24 periods: a single late-ack burst (the
			// heavy tail of honest wrongful blame — one lost ack forfeits a
			// whole period of per-chunk serve expectations) amortizes over
			// r ≥ 24 before η ever applies, while δ = 0.7 freeriders accrue
			// blame steadily and are not latency-bound (§6.3.1: σ(s)
			// shrinks as 1/√r).
			rep: reputation.Config{M: 25, FlushEvery: 5, GracePeriods: 24},
			// 4x the paper's 1316-byte chunk at the same bitrate: 8 chunks
			// per gossip period instead of 32. The chunk rate sets both the
			// discrete-event cost per node (what caps the 10k-node run) and
			// the blame quantum of a late acknowledgement (expectations are
			// per served chunk), so coarser chunks keep the honest blame
			// tail within the calibrated spread.
			chunk: 5264,
			// 1% loss: wrongful blame grows superlinearly with loss (broken
			// chains compound), and the workload's subject is the substrate
			// at scale, not loss tolerance (Fig. 10/11 cover that axis).
			net:    net.Uniform(0.01, 5*time.Millisecond),
			stream: p.Duration,
			tail:   2 * tg,
			// Calibrated once, from an honest pilot at baseline scale: the
			// per-node wrongful-blame rate depends on fanout and loss, not
			// on N, so the threshold is meaningful at both populations — and
			// a 300-node pilot costs nothing next to the 10k-node run.
			// −10σ: the honest extreme over 10k nodes — including one
			// amortized late-ack burst — stays above it, while the
			// least-blamed δ = 0.7 freerider sits a full unit below it by
			// grace expiry.
			pilot:    p.Duration,
			sigmas:   10,
			expel:    true,
			backends: []runtime.Kind{runtime.KindSim},
		}
	}
	return []workload{at(scaleBaselineN), at(p.N)}
}

// sampleSnapshots keeps every snapshotEvery-th period's metrics snapshot.
func sampleSnapshots(snaps *[]metrics.Snapshot) hooks {
	return hooks{snapshot: func(_ *cluster.Cluster, p msg.Period, s metrics.Snapshot) {
		if p%snapshotEvery == 0 {
			*snaps = append(*snaps, s)
		}
	}}
}

// scale runs the scale workload: calibrate at the baseline population, run
// the baseline and the target population with the shared threshold, and
// compare expulsion verdicts — the target population is 10,000 nodes
// (-quick: 1,000). Cancelling ctx aborts whichever phase is running —
// calibration, baseline or the large population.
var scale = Experiment{
	Name: "scale", Paper: "beyond the paper — 10k-node scale workload",
	Describe:      "expulsion verdict at a large population vs the 300-node baseline",
	DefaultParams: Params{N: 10000, Seed: 23, Duration: 20 * time.Second, Delta: -1, Pdcc: -1},
	quick:         Params{N: 1000},
	workloads:     scaleWorkloads,
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		ws := scaleWorkloads(p)
		base, err := ws[0].run(ctx, nil, hooks{})
		if err != nil {
			return err
		}
		var snaps []metrics.Snapshot
		top, err := ws[1].run(ctx, &base.cal, sampleSnapshots(&snaps))
		if err != nil {
			return err
		}
		cal, eta := base.cal, base.cal.eta
		baseline := scalePop{N: ws[0].n, tallyResult: base.tallyResult}
		target := scalePop{N: ws[1].n, tallyResult: top.tallyResult}
		agree := baseline.Verdict() == target.Verdict()

		// The table carries only seed-determined quantities (virtual
		// detection time, event counts), so the structured JSON document of
		// a seeded run is byte-identical across repetitions.
		t := &Table{
			Title: "Scale — expulsion verdict at baseline vs large population",
			Columns: []string{"population", "freeriders", "expelled", "honest expelled",
				"mean detection", "events", "overhead", "dup serves",
				"goodput", "lag", "jitter", "verdict"},
		}
		for _, r := range []scalePop{baseline, target} {
			t.AddRow(
				F(float64(r.N), 0),
				F(float64(r.Freeriders), 0),
				F(float64(r.FreeridersExpelled), 0),
				F(float64(r.HonestExpelled), 0),
				r.DetectionMean.Round(time.Millisecond).String(),
				F(float64(r.Events), 0),
				Pct(r.Overhead()),
				Pct(r.DupRatio()),
				F(float64(r.GoodputBytes), 0)+" B",
				r.StreamLag().Round(time.Millisecond).String(),
				r.StreamJitter().Round(time.Millisecond).String(),
				r.Verdict(),
			)
		}
		agreeNote := "yes"
		if !agree {
			agreeNote = "NO"
		}
		t.Notes = append(t.Notes,
			"verdicts agree: "+agreeNote,
			"b̃ = "+F(cal.Compensation, 2)+" blame/period and η = "+F(eta, 2)+" calibrated once at baseline scale (per-node traffic depends on f, not N)",
			"all blames and expulsions travel as messages to each target's M managers; manager assignment served from the epoch cache",
			"overhead = verification bytes / dissemination bytes (Table 5's metric); dup serves = share of received serves the node already held",
			"goodput = verified payload bytes first-delivered over the content plane; lag = mean source-to-receiver chunk delay; jitter = mean inter-arrival deviation from the chunk interval")
		out.addTable(obs, t)
		out.addMetric("target-freeriders-expelled", float64(target.FreeridersExpelled))
		out.addMetric("target-honest-expelled", float64(target.HonestExpelled))
		out.addMetric("target-overhead", target.Overhead())
		out.addMetric("target-dup-ratio", target.DupRatio())
		out.addMetric("target-goodput-bytes", float64(target.GoodputBytes))
		out.addMetric("target-stream-lag", target.StreamLag().Seconds())
		out.addMetric("target-stream-jitter", target.StreamJitter().Seconds())
		out.MetricsSnapshots = snaps

		// The scale workload uses 4x chunks (fewer, larger serves), so its
		// verification overhead is NOT Table 5's figure — but it must stay
		// in the same order of magnitude, and the stream must be
		// overwhelmingly useful traffic.
		out.check("target overhead", "sanity", pct(target.Overhead(), 2), excl(0), excl(0.25))
		out.check("target dup serves", "sanity", pct(target.DupRatio(), 2), none, excl(0.5))
		// QoE oracles: the content plane must actually deliver verified
		// payload, with first arrivals trailing the source by less than the
		// run and spacing close to the chunk interval. The gate is the
		// expected verdict at BOTH populations, not mere agreement: two
		// identically-broken runs must still fail.
		period := ws[1].gossip.Period
		for _, r := range []scalePop{baseline, target} {
			at := " at N=" + F(float64(r.N), 0)
			out.check("goodput"+at, "sanity", count(r.GoodputBytes), excl(0), none)
			out.check("stream lag"+at, "sanity", nanos(r.StreamLag()), excl(0), excl(float64(p.Duration)))
			out.check("stream jitter"+at, "sanity", nanos(r.StreamJitter()), none, excl(float64(period)))
			out.check("freeriders expelled"+at, "sanity", count(r.FreeridersExpelled), incl(float64(r.Freeriders)), incl(float64(r.Freeriders)))
			out.check("honest expelled"+at, "sanity", count(r.HonestExpelled), incl(0), incl(0))
		}
		mismatch := 0
		if !agree {
			mismatch = 1
		}
		out.check("verdict mismatches", "sanity", count(mismatch), incl(0), incl(0))
		// The threshold sits below zero and the cohort is caught within the
		// run.
		out.check("calibrated η", "sanity", num(eta, 2), none, excl(0))
		out.check("target mean detection", "sanity", nanos(target.DetectionMean), excl(0), incl(float64(p.Duration)))
		// The periodic metrics section: sampled every snapshotEvery periods,
		// increasing in period and cumulative in useful chunks, with every
		// traffic and QoE count accounted by the end.
		out.check("target snapshots", "sanity", count(len(snaps)), incl(2), none)
		if len(snaps) < 2 {
			return nil
		}
		disorders := 0
		for i := 1; i < len(snaps); i++ {
			if snaps[i].Period <= snaps[i-1].Period || snaps[i].UsefulChunks < snaps[i-1].UsefulChunks {
				disorders++
			}
		}
		out.check("snapshots out of order or not cumulative", "sanity", count(disorders), incl(0), incl(0))
		last := snaps[len(snaps)-1]
		out.check("final snapshot's least count", "sanity",
			count(min(last.UsefulChunks, last.ProtocolBytes, last.VerificationBytes, last.GoodputBytes, last.StreamLagMeanNs)), excl(0), none)
		return nil
	},
}
