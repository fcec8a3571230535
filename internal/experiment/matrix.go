package experiment

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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
)

// The adversary scenario matrix turns every rational deviation the paper
// enumerates (§4 attacks, §5 lies) into a reproducible scenario with a
// statistical pass/fail oracle. Each scenario assembles a LiFTinG-policed
// cluster with an adversary cohort, runs seeded Monte-Carlo repetitions
// (fanned across the parallel Workers driver), and classifies the outcome
// against the paper's claims: detection α above a bound, false positives β
// below a bound, honest/adversary score-mode separation, and expulsion
// verdicts. The matrix is the standing regression net every later scaling or
// performance PR must keep green.

// DetectMode selects how a scenario decides that an adversary was caught.
type DetectMode int

// Detection modes.
const (
	// DetectScore flags nodes whose normalized score falls below the
	// calibrated threshold η (or who were expelled) — the score-based
	// detection of §5.1/§6.
	DetectScore DetectMode = iota
	// DetectAudit runs a local-history audit (§5.3) of every adversary and
	// an equal honest sample; detection is the audit's expulsion verdict
	// (entropy checks, refused audits).
	DetectAudit
	// DetectAuditBlame also audits, but detection is a majority of polled
	// history entries going unconfirmed — the a-posteriori cross-checking
	// signal that catches history forgers whose entropy looks fine (§5.3).
	DetectAuditBlame
	// DetectAuditPeriod audits and detects through the gossip-period check:
	// nonzero period-stretch blame (§5.3). Score-based detection misses a
	// stretcher whose acks still land inside the 2·Tg timeout.
	DetectAuditPeriod
)

// Oracle is the statistical pass/fail contract of one scenario.
type Oracle struct {
	// MinDetection is the α lower bound over all repetitions. Negative
	// disables the check (bad-mouthers are undetectable by design; the
	// oracle for them is that honest nodes survive).
	MinDetection float64
	// MaxFalsePositive is the β upper bound over all repetitions.
	MaxFalsePositive float64
	// MinGap is the lower bound on the mean honest-minus-adversary score
	// gap. Zero disables the check (audit scenarios deliberately blunt
	// score separation — that is what makes them audit scenarios).
	MinGap float64
	// NoHonestExpulsion requires that no honest node was expelled in any
	// repetition (the blame-spam oracle).
	NoHonestExpulsion bool
}

// Scenario is one registry entry: an attack, how a repetition detects it,
// the oracle its outcome must satisfy, and its cluster.
type Scenario struct {
	// Name identifies the scenario (`lifting-sim matrix -filter <name>`).
	Name string
	// Attack cites the paper's section for the strategy under test.
	Attack string
	// Detect selects the detection criterion.
	Detect DetectMode
	// Oracle is the pass/fail contract.
	Oracle Oracle
	// spec is what the scenario states of its workload: the cohort's
	// behavior, the backends — the first runs the repetitions, the
	// wall-clock backend (udp) a single one — and whatever else departs
	// from the matrix's cluster (Scenario.workload).
	spec workload
}

// adversary is the spec of a scenario that departs from the matrix's
// cluster only in its cohort's behavior, on the sim backend.
func adversary(b behaviorFunc) workload {
	return workload{cohort: cohort{behavior: b}, backends: []runtime.Kind{runtime.KindSim}}
}

// degree is the behavior constructor of a (δ1, δ2, δ3) freerider cohort.
func degree(d1, d2, d3 float64) behaviorFunc {
	return func(msg.NodeID, *membership.Directory, *rng.Stream, []msg.NodeID) gossip.Behavior {
		return freerider.Degree{Delta1: d1, Delta2: d2, Delta3: d3}
	}
}

// Scenarios returns the full attack registry: every §4/§5 deviation as a
// runnable scenario. The returned slice is freshly built; callers may filter
// it freely.
func Scenarios() []Scenario {
	colluder := func(mitm, forge bool) behaviorFunc {
		return func(id msg.NodeID, dir *membership.Directory, r *rng.Stream, adv []msg.NodeID) gossip.Behavior {
			c := freerider.NewColluder(id, adv, 0.9, dir, r)
			c.MITM = mitm
			c.ForgeUniform = forge
			return c
		}
	}
	return []Scenario{
		{
			Name: "fanout-decrease", Attack: "§4.1(i) reduced fanout", Detect: DetectScore,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0.02, MinGap: 2},
			spec:   adversary(degree(0.5, 0, 0)),
		},
		{
			Name: "partial-propose", Attack: "§4.1(ii) partial propose + §5.2 ack lie", Detect: DetectScore,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0.02, MinGap: 2},
			spec:   adversary(degree(0, 0.6, 0)),
		},
		{
			Name: "partial-serve", Attack: "§4.3(i) partial serve", Detect: DetectScore,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0.02, MinGap: 2},
			spec:   adversary(degree(0, 0, 0.6)),
		},
		{
			// The wise freerider of §6.3.1 with every rational lie of §5.2;
			// the one entry that runs on both backends, so the matrix pins
			// the cross-backend verdict agreement of the runtime seam.
			Name: "wise-degree", Attack: "§6.3.1 ∆=(.5,.5,.5) + §5.2 ack lies", Detect: DetectScore,
			Oracle: Oracle{MinDetection: 0.75, MaxFalsePositive: 0.1, MinGap: 3},
			spec: workload{
				cohort:   cohort{n: 24, k: 4, behavior: degree(0.5, 0.5, 0.5)},
				gossip:   gossip.Config{F: 6, Period: 60 * time.Millisecond},
				stream:   2400 * time.Millisecond,
				floor:    3,
				backends: []runtime.Kind{runtime.KindSim, runtime.KindUDP},
			},
		},
		{
			Name: "period-stretch", Attack: "§4.1(iv) gossip-period ×2", Detect: DetectAuditPeriod,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			spec: adversary(func(msg.NodeID, *membership.Directory, *rng.Stream, []msg.NodeID) gossip.Behavior {
				return freerider.PeriodStretcher{Factor: 2}
			}),
		},
		{
			Name: "biased-selection", Attack: "§4.1(iii) coalition bias pm=0.9", Detect: DetectAudit,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			spec:   adversary(colluder(false, false)),
		},
		{
			Name: "mitm", Attack: "§5.2 Fig 8b ack-partner substitution", Detect: DetectAudit,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			spec:   adversary(colluder(true, false)),
		},
		{
			Name: "history-forgery", Attack: "§5.3 uniform audit forgery", Detect: DetectAuditBlame,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			spec:   adversary(colluder(false, true)),
		},
		{
			Name: "colluder-stretcher", Attack: "§4.1(iii)+(iv) combined", Detect: DetectAudit,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			spec: adversary(func(id msg.NodeID, dir *membership.Directory, r *rng.Stream, adv []msg.NodeID) gossip.Behavior {
				return freerider.StretchingColluder{
					Colluder: freerider.NewColluder(id, adv, 0.9, dir, r),
					Factor:   2,
				}
			}),
		},
		{
			// The bad-mouther is undetectable by construction (blames carry
			// no proof, §5.1); the claim under test is resilience: a bounded
			// spam rate must not push any honest node over the threshold.
			Name: "blame-spam", Attack: "§5.1 bad-mouthing (wrongful blame flood)", Detect: DetectScore,
			Oracle: Oracle{MinDetection: -1, MaxFalsePositive: 0, NoHonestExpulsion: true},
			spec: workload{
				cohort: cohort{behavior: func(id msg.NodeID, dir *membership.Directory, _ *rng.Stream, _ []msg.NodeID) gossip.Behavior {
					return &freerider.BlameSpammer{Self: id, Dir: dir}
				}},
				rep:      reputation.Config{GracePeriods: 16},
				floor:    6,
				expel:    true,
				backends: []runtime.Kind{runtime.KindSim},
			},
		},
	}
}

// ScenarioNames returns the registry's scenario names in order.
func ScenarioNames() []string {
	scs := Scenarios()
	names := make([]string, len(scs))
	for i, s := range scs {
		names[i] = s.Name
	}
	return names
}

// MatrixRow is the aggregated outcome of one scenario on one backend.
type MatrixRow struct {
	Scenario, Attack string
	Backend          runtime.Kind
	Reps             int
	// Eta is the calibrated detection threshold the scenario classified
	// against.
	Eta float64
	// Detection is α: caught adversaries / adversaries, over all reps.
	Detection float64
	// FalsePositives is β: flagged honest / honest, over all reps.
	FalsePositives float64
	// Gap is the mean honest-minus-adversary normalized score gap.
	Gap float64
	// HonestExpelled counts honest expulsions across all reps.
	HonestExpelled int
	// Overhead is verification bytes over dissemination bytes, summed
	// across all reps (the Table 5 ratio, measured on the attack workload).
	Overhead float64
	// DupRatio is duplicate serves over all serves across all reps — the
	// gossip redundancy the adversary's fanout distortion induces.
	DupRatio float64
	// GoodputBytes is the verified payload first-delivered over the content
	// plane, summed across all reps. Every scenario streams real bytes, so a
	// zero here fails the row regardless of its oracle.
	GoodputBytes uint64
	// StreamLag and StreamJitter are the mean chunk lag and inter-arrival
	// jitter, averaged over reps. Both are sim-time quantities derived from
	// the collector's integer nanosecond counters, not wall-clock readings.
	//lint:allow no-time-in-results sim-time means derived from integer ns counters; byte-stable for a fixed seed
	StreamLag, StreamJitter time.Duration
	// Failures lists violated oracle bounds (empty = pass).
	Failures []string
}

// Verdict renders the row's oracle outcome.
func (r MatrixRow) Verdict() string {
	if len(r.Failures) == 0 {
		return "ok"
	}
	return "FAIL: " + strings.Join(r.Failures, "; ")
}

// matrixResult is the whole sweep.
type matrixResult struct {
	Rows []MatrixRow
	// ScenariosRun is the number of distinct scenarios that ran.
	ScenariosRun int
}

// repOutcome is the classification of a single repetition on top of its
// tally (whose HonestExpelled counts the source too: a spam flood that
// expels node 0 kills the stream for everyone and must fail
// NoHonestExpulsion).
type repOutcome struct {
	tallyResult
	advDetected, advTotal      int
	honestFlagged, honestTotal int
	honestMean, advMean        float64
}

// workload declares the scenario's cluster at p's size: its spec, with
// what the spec leaves zero the matrix's — 60 nodes, 6 adversaries, 10 s of
// stream, F = 7, Tg = 100 ms, direct blame, the cluster's grace and a 1.5
// floor under η = −6σ. -quick shrinks only the population and the stream
// (40 nodes, 5 s) — coalition attacks need the full adversary cohort to
// concentrate the fanout history. The sim backend runs 3 seeded
// repetitions (1 under -quick).
func (s Scenario) workload(p Params) workload {
	w := s.spec
	n, dur, reps := 60, 10*time.Second, 3
	if p.Quick {
		n, dur, reps = 40, 5*time.Second, 1
	}
	w.n, w.k, w.stream = cmp.Or(w.n, n), cmp.Or(w.k, 6), cmp.Or(w.stream, dur)
	w.shards, w.reps = p.Shards, reps
	tg := cmp.Or(w.gossip.Period, 100*time.Millisecond)
	w.tail = 6 * tg
	if s.Detect != DetectScore {
		w.tail = 12 * tg // AuditReq + poll round-trips (4·Tg timeouts each)
	}
	w.gossip = gossip.Config{
		F:      cmp.Or(w.gossip.F, 7),
		Period: tg,
		// Without jitter the propose order — and with it each node's share
		// of the first-proposal race — is frozen at start time, so an
		// adversary's service demand (the thing partial-serve blame is
		// proportional to) becomes a lottery over offsets.
		PhaseJitter: tg / 2,
	}
	w.core = core.Config{
		Pdcc:              1,
		Gamma:             4.5,
		GammaFanin:        2.0,
		MinEntropySamples: 16,
		// An honest node skips a propose phase whenever jittered arrivals
		// leave it nothing pending, so the period check needs more slack
		// than the default 0.8 to keep honest histories clean while still
		// condemning a ×2 stretcher (~0.5).
		PeriodCheckSlack: 0.6,
	}
	w.rep.M, w.rep.Eta = 8, -1e9
	// Latency jitter matters: with a constant delay the first-proposal race
	// has a fixed winner per pair, so one adversary can end up with no
	// service demand — and no blame — by accident of its start offset
	// rather than by strategy.
	w.net = net.Conditions{LatencyBase: 2 * time.Millisecond, LatencyJitter: 4 * time.Millisecond}
	w.pilot, w.sigmas, w.floor = w.stream, 6, cmp.Or(w.floor, 1.5)
	return w
}

// matrixWorkloads declares every scenario's cluster, in Scenarios order.
func matrixWorkloads(p Params) []workload {
	var ws []workload
	for _, sc := range Scenarios() {
		ws = append(ws, sc.workload(p))
	}
	return ws
}

// runRep executes one seeded repetition of w at cal and classifies it
// against cal's η. On cancellation it returns a zero outcome — the caller
// discards everything once it sees the context error.
func (s Scenario) runRep(ctx context.Context, w workload, cal calibration) repOutcome {
	var mu sync.Mutex
	audits := make(map[msg.NodeID]core.AuditOutcome)
	auditing := s.Detect != DetectScore
	var h hooks
	if auditing {
		// The auditor and its timer are set up before the nodes start: a
		// timer's place in the schedule is part of the seeded result.
		h.pre = func(c *cluster.Cluster) {
			auditor := c.Auditor(func(o core.AuditOutcome) {
				mu.Lock()
				audits[o.Target] = o
				mu.Unlock()
			})
			targets := w.ids()
			// An equal-sized honest control sample: the same audit must not
			// condemn protocol-faithful histories.
			for i := 1; len(targets) < 2*w.k && i < w.n-w.k; i++ {
				targets = append(targets, msg.NodeID(i))
			}
			c.After(w.stream, func() {
				for _, id := range targets {
					auditor.Audit(id)
				}
			})
		}
	}
	o, err := w.run(ctx, &cal, h)
	if err != nil {
		return repOutcome{}
	}
	c, eta := o.c, cal.eta

	out := repOutcome{tallyResult: o.tallyResult}
	scores := c.Scores()
	ids := make([]msg.NodeID, 0, len(scores))
	//lint:allow ordered-map-range collect-then-sort: ids are sorted before classification
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	detected := func(id msg.NodeID) bool {
		_, expelled := c.Expelled[id]
		switch s.Detect {
		case DetectAudit:
			return audits[id].Expel
		case DetectAuditBlame:
			o := audits[id]
			return o.Polled > 0 && 2*o.Unconfirmed > o.Polled
		case DetectAuditPeriod:
			return audits[id].PeriodBlame > 0
		default:
			return scores[id] < eta || expelled
		}
	}
	audited := func(id msg.NodeID) bool {
		_, ok := audits[id]
		return ok
	}
	for _, id := range ids {
		if id == 0 {
			// The source serves everyone but requests nothing, so it is
			// excluded from the score statistics.
			continue
		}
		if w.has(id) {
			out.advMean += scores[id]
			if !auditing || audited(id) {
				out.advTotal++
				if detected(id) {
					out.advDetected++
				}
			}
			continue
		}
		out.honestMean += scores[id]
		if !auditing || audited(id) {
			out.honestTotal++
			if detected(id) {
				out.honestFlagged++
			}
		}
	}
	if nh := w.n - 1 - w.k; nh > 0 {
		out.honestMean /= float64(nh)
	}
	if w.k > 0 {
		out.advMean /= float64(w.k)
	}
	return out
}

// check applies the oracle to an aggregated row.
func (o Oracle) check(r *MatrixRow) {
	if o.MinDetection >= 0 && r.Detection < o.MinDetection {
		r.Failures = append(r.Failures, fmt.Sprintf("α %.2f < %.2f", r.Detection, o.MinDetection))
	}
	if r.FalsePositives > o.MaxFalsePositive {
		r.Failures = append(r.Failures, fmt.Sprintf("β %.3f > %.3f", r.FalsePositives, o.MaxFalsePositive))
	}
	if o.MinGap != 0 && r.Gap < o.MinGap {
		r.Failures = append(r.Failures, fmt.Sprintf("gap %.2f < %.2f", r.Gap, o.MinGap))
	}
	if o.NoHonestExpulsion && r.HonestExpelled > 0 {
		r.Failures = append(r.Failures, fmt.Sprintf("%d honest expelled", r.HonestExpelled))
	}
}

// matrix runs the adversary scenario sweep and renders the attack ×
// (α, β, gap, verdict) table; any oracle violation fails the verdict — the
// detection claims regressed. The sim backend runs 3 seeded repetitions per
// scenario (1 under -quick). Cancelling ctx aborts the sweep —
// mid-calibration or mid-repetition — and returns ctx.Err().
var matrix = Experiment{
	Name: "matrix", Paper: "§4/§5 adversary matrix",
	Describe:      "every §4/§5 attack scenario against its statistical oracle",
	MultiBackend:  true,
	DefaultParams: Params{Seed: 1, Delta: -1, Pdcc: -1},
	workloads:     matrixWorkloads,
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		tab, res, err := sweepMatrix(ctx, p, matrixWorkloads(p))
		if err != nil {
			return err
		}
		out.addTable(obs, tab)
		out.addMetric("scenarios", float64(res.ScenariosRun))
		out.addMetric("rows", float64(len(res.Rows)))
		failures := 0
		if res.ScenariosRun == 0 {
			// Either the filter matched nothing or the backend set
			// intersected every matching scenario away; name both.
			out.fail("matrix ran no scenario (filter %q, backends %s; scenarios: %s)",
				p.Filter, p.backendsLabel(), strings.Join(ScenarioNames(), ", "))
		}
		for _, r := range res.Rows {
			if len(r.Failures) > 0 {
				failures += len(r.Failures)
				out.fail("matrix %s on %s failed its oracle: %s",
					r.Scenario, r.Backend, strings.Join(r.Failures, "; "))
			}
		}
		out.addMetric("oracle-failures", float64(failures))
		return nil
	},
}

// sweepMatrix runs the scenarios p selects (p.Filter, p.Backends), each on
// its workload in ws (Scenarios order) — so a test can set a quick
// scenario's repetitions.
func sweepMatrix(ctx context.Context, p Params, ws []workload) (*Table, *matrixResult, error) {
	root := rng.New(p.Seed).Derive("matrix")

	res := &matrixResult{}
	for i, sc := range Scenarios() {
		w := ws[i]
		if p.Filter != "" && !strings.Contains(sc.Name, p.Filter) {
			continue
		}
		backends := w.backends
		if p.Backends != nil {
			backends = nil
			for _, b := range w.backends {
				if slices.Contains(p.Backends, b) {
					backends = append(backends, b)
				}
			}
		}
		if len(backends) == 0 {
			continue
		}
		scRoot := root.Derive(sc.Name)

		// Calibrate b̃ and η once per scenario from an honest pilot (always
		// on the discrete-event backend): the analysis's saturated-workload
		// b̃ over-compensates the real chunk workload, and the threshold
		// must sit at a margin below the empirical honest spread.
		w.seed = scRoot.Derive("cal").Seed()
		cal, err := w.calibrate(ctx, w.options())
		if err != nil {
			return nil, nil, err
		}

		ran := false
		for _, backend := range backends {
			n := w.reps
			if backend != runtime.KindSim {
				n = 1 // wall-clock backends stream in real time
			}
			outs := make([]repOutcome, n)
			if err := parallelRange(ctx, p.Workers, n, func(i int) {
				rep := w
				rep.backend, rep.seed = backend, scRoot.Derive(fmt.Sprintf("rep/%d", i)).Seed()
				outs[i] = sc.runRep(ctx, rep, cal)
			}); err != nil {
				return nil, nil, err
			}

			row := MatrixRow{
				Scenario: sc.Name,
				Attack:   sc.Attack,
				Backend:  backend,
				Reps:     n,
				Eta:      cal.eta,
			}
			var advDet, advTot, honFlag, honTot int
			var proto, verif, dup, useful uint64
			var lagNs, jitterNs uint64
			for _, o := range outs {
				advDet += o.advDetected
				advTot += o.advTotal
				honFlag += o.honestFlagged
				honTot += o.honestTotal
				row.Gap += o.honestMean - o.advMean
				row.HonestExpelled += o.HonestExpelled
				proto += o.protoBytes
				verif += o.verifBytes
				dup += o.DupChunks
				useful += o.UsefulChunks
				row.GoodputBytes += o.GoodputBytes
				lagNs += o.StreamLagMeanNs
				jitterNs += o.StreamJitterMeanNs
			}
			if advTot > 0 {
				row.Detection = float64(advDet) / float64(advTot)
			}
			if honTot > 0 {
				row.FalsePositives = float64(honFlag) / float64(honTot)
			}
			if proto > 0 {
				row.Overhead = float64(verif) / float64(proto)
			}
			if dup+useful > 0 {
				row.DupRatio = float64(dup) / float64(dup+useful)
			}
			row.Gap /= float64(n)
			row.StreamLag = time.Duration(lagNs / uint64(n))
			row.StreamJitter = time.Duration(jitterNs / uint64(n))
			sc.Oracle.check(&row)
			// Universal QoE oracle: every scenario streams real payload, so
			// zero goodput means the content plane itself broke — fail the
			// row even when the detection oracle is satisfied.
			if row.GoodputBytes == 0 {
				row.Failures = append(row.Failures, "no goodput")
			}
			res.Rows = append(res.Rows, row)
			ran = true
		}
		if ran {
			res.ScenariosRun++
		}
	}

	t := &Table{
		Title:   "Adversary matrix — §4/§5 attacks × statistical oracles",
		Columns: []string{"scenario", "attack", "backend", "reps", "η", "detection α", "false pos β", "gap", "overhead", "dup serves", "goodput", "lag", "jitter", "verdict"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Scenario, r.Attack, r.Backend.String(),
			F(float64(r.Reps), 0), F(r.Eta, 2), Pct(r.Detection),
			Pct(r.FalsePositives), F(r.Gap, 2), Pct(r.Overhead),
			Pct(r.DupRatio), F(float64(r.GoodputBytes), 0)+" B",
			r.StreamLag.Round(time.Millisecond).String(),
			r.StreamJitter.Round(time.Millisecond).String(),
			r.Verdict())
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d scenarios, %d rows; b̃ and η calibrated per scenario from an honest pilot", res.ScenariosRun, len(res.Rows)),
		"overhead = verification bytes / dissemination bytes on the attack workload; dup serves = duplicate / all serves",
		"goodput = verified payload bytes first-delivered (zero fails the row); lag/jitter = mean chunk delay and inter-arrival deviation",
		"score scenarios classify score < η; audit scenarios use the §5.3 expulsion verdict (or majority-unconfirmed history for forgers)",
		"blame-spam's α is 0 by design — bad-mouthers are unidentifiable; its oracle is that no honest node crosses η or is expelled")
	return t, res, nil
}
