package experiment

import (
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
	"lifting/internal/stream"
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

// Scenario is one registry entry: an attack, the backends it runs on, the
// cluster shape, and the oracle its outcome must satisfy.
type Scenario struct {
	// Name identifies the scenario (`lifting-sim matrix -filter <name>`).
	Name string
	// Attack cites the paper's section for the strategy under test.
	Attack string
	// Backends are the execution backends the scenario supports. The first
	// entry is the Monte-Carlo backend (repetitions run there); the
	// wall-clock backend (udp) always runs a single repetition.
	Backends []runtime.Kind
	// Detect selects the detection criterion.
	Detect DetectMode
	// Oracle is the pass/fail contract.
	Oracle Oracle

	// Population shape: N nodes, the top Adversaries ids adversarial, on
	// lossless links. MatrixConfig.Quick shrinks only the shape a scenario
	// leaves zero.
	N, Adversaries int
	F              int
	Period         time.Duration
	Duration       time.Duration
	// BlameMode defaults to cluster.BlameDirect.
	BlameMode cluster.BlameMode
	// Expel turns on expulsion at the calibrated η, after Grace periods
	// (0 = the cluster default).
	Expel bool
	Grace int
	// EtaFloor is the threshold's floor: η = −max(matrixEtaSigmas·σ,
	// EtaFloor) with σ from an honest calibration pilot. Default: 1.5.
	EtaFloor float64
	// Behavior builds the adversary behavior for id; adv is the adversary
	// cohort in ascending id order.
	Behavior func(id msg.NodeID, dir *membership.Directory, r *rng.Stream, adv []msg.NodeID) gossip.Behavior
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
			Name: "fanout-decrease", Attack: "§4.1(i) reduced fanout",
			Backends: []runtime.Kind{runtime.KindSim}, Detect: DetectScore,
			Oracle:   Oracle{MinDetection: 0.9, MaxFalsePositive: 0.02, MinGap: 2},
			Behavior: degree(0.5, 0, 0),
		},
		{
			Name: "partial-propose", Attack: "§4.1(ii) partial propose + §5.2 ack lie",
			Backends: []runtime.Kind{runtime.KindSim}, Detect: DetectScore,
			Oracle:   Oracle{MinDetection: 0.9, MaxFalsePositive: 0.02, MinGap: 2},
			Behavior: degree(0, 0.6, 0),
		},
		{
			Name: "partial-serve", Attack: "§4.3(i) partial serve",
			Backends: []runtime.Kind{runtime.KindSim}, Detect: DetectScore,
			Oracle:   Oracle{MinDetection: 0.9, MaxFalsePositive: 0.02, MinGap: 2},
			Behavior: degree(0, 0, 0.6),
		},
		{
			// The wise freerider of §6.3.1 with every rational lie of §5.2;
			// the one entry that runs on both backends, so the matrix pins
			// the cross-backend verdict agreement of the runtime seam.
			Name: "wise-degree", Attack: "§6.3.1 ∆=(.5,.5,.5) + §5.2 ack lies",
			Backends: []runtime.Kind{runtime.KindSim, runtime.KindUDP},
			Detect:   DetectScore,
			Oracle:   Oracle{MinDetection: 0.75, MaxFalsePositive: 0.1, MinGap: 3},
			N:        24, Adversaries: 4, F: 6, Period: 60 * time.Millisecond,
			Duration: 2400 * time.Millisecond,
			EtaFloor: 3,
			Behavior: degree(0.5, 0.5, 0.5),
		},
		{
			Name: "period-stretch", Attack: "§4.1(iv) gossip-period ×2",
			Backends: []runtime.Kind{runtime.KindSim}, Detect: DetectAuditPeriod,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			Behavior: func(msg.NodeID, *membership.Directory, *rng.Stream, []msg.NodeID) gossip.Behavior {
				return freerider.PeriodStretcher{Factor: 2}
			},
		},
		{
			Name: "biased-selection", Attack: "§4.1(iii) coalition bias pm=0.9",
			Backends: []runtime.Kind{runtime.KindSim}, Detect: DetectAudit,
			Oracle:   Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			Behavior: colluder(false, false),
		},
		{
			Name: "mitm", Attack: "§5.2 Fig 8b ack-partner substitution",
			Backends: []runtime.Kind{runtime.KindSim}, Detect: DetectAudit,
			Oracle:   Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			Behavior: colluder(true, false),
		},
		{
			Name: "history-forgery", Attack: "§5.3 uniform audit forgery",
			Backends: []runtime.Kind{runtime.KindSim}, Detect: DetectAuditBlame,
			Oracle:   Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			Behavior: colluder(false, true),
		},
		{
			Name: "colluder-stretcher", Attack: "§4.1(iii)+(iv) combined",
			Backends: []runtime.Kind{runtime.KindSim}, Detect: DetectAudit,
			Oracle: Oracle{MinDetection: 0.9, MaxFalsePositive: 0},
			Behavior: func(id msg.NodeID, dir *membership.Directory, r *rng.Stream, adv []msg.NodeID) gossip.Behavior {
				return freerider.StretchingColluder{
					Colluder: freerider.NewColluder(id, adv, 0.9, dir, r),
					Factor:   2,
				}
			},
		},
		{
			// The bad-mouther is undetectable by construction (blames carry
			// no proof, §5.1); the claim under test is resilience: a bounded
			// spam rate must not push any honest node over the threshold.
			Name: "blame-spam", Attack: "§5.1 bad-mouthing (wrongful blame flood)",
			Backends: []runtime.Kind{runtime.KindSim}, Detect: DetectScore,
			Oracle:    Oracle{MinDetection: -1, MaxFalsePositive: 0, NoHonestExpulsion: true},
			BlameMode: cluster.BlameMessages, Expel: true, Grace: 16,
			EtaFloor: 6,
			Behavior: func(id msg.NodeID, dir *membership.Directory, _ *rng.Stream, _ []msg.NodeID) gossip.Behavior {
				return &freerider.BlameSpammer{Self: id, Dir: dir}
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

// MatrixConfig parameterizes a matrix sweep.
type MatrixConfig struct {
	// Quick shrinks populations, durations and repetitions for a smoke pass.
	Quick bool
	// Backends restricts scenarios to these backends (intersection with
	// each scenario's declared set). Nil means every backend a scenario
	// declares; lifting-sim defaults to sim so wall-clock backends stay
	// opt-in on the command line.
	Backends []runtime.Kind
	// Filter keeps only scenarios whose name contains this substring.
	Filter string
	// Seed roots all randomness (0 = 1). The sim backend runs 3 seeded
	// repetitions per scenario (1 under Quick); wall-clock backends run one.
	Seed uint64
	// Workers fans repetitions across goroutines (0 = GOMAXPROCS).
	Workers int
	// Shards is the engine shard count inside each repetition (0 or 1 =
	// one, −1 = one per CPU, n = n). Scenarios that cannot run concurrently
	// get one shard regardless; results are byte-identical for every
	// value.
	Shards int
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

// MatrixResult is the whole sweep.
type MatrixResult struct {
	Rows []MatrixRow
	// ScenariosRun is the number of distinct scenarios that ran.
	ScenariosRun int
	// Failed reports whether any oracle failed.
	Failed bool
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

// shape is a Scenario with sizing defaults resolved: its cohort (n nodes,
// the top k adversarial), its stream length and the engine-shard request
// passed through to every repetition's cluster (scenarios that cannot run
// concurrently — direct blame, per-node conditions — get one shard there).
type shape struct {
	Scenario
	cohort
	dur    time.Duration
	shards int
}

func (s Scenario) resolve(quick bool) shape {
	sh := shape{Scenario: s, cohort: cohort{n: s.N, k: s.Adversaries, behavior: s.Behavior}, dur: s.Duration}
	if sh.n == 0 {
		sh.n = 60
	}
	if sh.k == 0 {
		sh.k = 6
	}
	if sh.dur == 0 {
		sh.dur = 10 * time.Second
	}
	if sh.F == 0 {
		sh.F = 7
	}
	if sh.Period == 0 {
		sh.Period = 100 * time.Millisecond
	}
	if sh.BlameMode == 0 {
		sh.BlameMode = cluster.BlameDirect
	}
	if sh.EtaFloor == 0 {
		sh.EtaFloor = 1.5
	}
	if quick {
		// Only the population and the stream shrink: coalition attacks need
		// the full adversary cohort to concentrate the fanout history.
		if s.N == 0 {
			sh.n = 40
		}
		if s.Duration == 0 {
			sh.dur = 5 * time.Second
		}
	}
	return sh
}

// matrixEtaSigmas is every scenario's threshold margin in honest-pilot
// standard deviations (η = −max(6σ, EtaFloor)).
const matrixEtaSigmas = 6

// options assembles the cluster options for one repetition.
func (sh shape) options(backend runtime.Kind, seed uint64) cluster.Options {
	return cluster.Options{
		N:       sh.n,
		Seed:    seed,
		Backend: backend,
		Shards:  sh.shards,
		Gossip: gossip.Config{
			F:              sh.F,
			Period:         sh.Period,
			HistoryPeriods: 50,
			// Without jitter the propose order — and with it each node's
			// share of the first-proposal race — is frozen at start time,
			// so an adversary's service demand (the thing partial-serve
			// blame is proportional to) becomes a lottery over offsets.
			PhaseJitter: sh.Period / 2,
		},
		Core: core.Config{
			Pdcc:              1,
			Gamma:             4.5,
			GammaFanin:        2.0,
			MinEntropySamples: 16,
			// An honest node skips a propose phase whenever jittered
			// arrivals leave it nothing pending, so the period check needs
			// more slack than the default 0.8 to keep honest histories
			// clean while still condemning a ×2 stretcher (~0.5).
			PeriodCheckSlack: 0.6,
		},
		Rep:    reputation.Config{M: 8, Eta: -1e9},
		Stream: stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		// Latency jitter matters: with a constant delay the first-proposal
		// race has a fixed winner per pair, so one adversary can end up
		// with no service demand — and no blame — by accident of its start
		// offset rather than by strategy.
		NetDefaults: net.Conditions{
			LatencyBase:   2 * time.Millisecond,
			LatencyJitter: 4 * time.Millisecond,
		},
		LiFTinG:     true,
		BlameMode:   sh.BlameMode,
		BehaviorFor: sh.behaviorFor(),
	}
}

// runRep executes one seeded repetition and classifies it against eta. On
// cancellation it tears the cluster down and returns a zero outcome — the
// caller discards everything once it sees the context error.
func (sh shape) runRep(ctx context.Context, backend runtime.Kind, seed uint64, comp, eta float64) repOutcome {
	opts := sh.options(backend, seed)
	opts.Rep.Compensation = comp
	if sh.Expel {
		opts.ExpelOnDetection = true
		opts.Rep.Eta = eta
		opts.Rep.GracePeriods = sh.Grace
	}
	var mu sync.Mutex
	audits := make(map[msg.NodeID]core.AuditOutcome)
	auditing := sh.Detect != DetectScore
	tail := 6 * sh.Period
	var audit func(*cluster.Cluster)
	if auditing {
		tail = 12 * sh.Period // AuditReq + poll round-trips (4·Tg timeouts each)
		// The auditor and its timer are set up before the nodes start: a
		// timer's place in the schedule is part of the seeded result.
		audit = func(c *cluster.Cluster) {
			auditor := c.Auditor(func(o core.AuditOutcome) {
				mu.Lock()
				audits[o.Target] = o
				mu.Unlock()
			})
			targets := sh.ids()
			// An equal-sized honest control sample: the same audit must not
			// condemn protocol-faithful histories.
			for i := 1; len(targets) < 2*sh.k && i < sh.n-sh.k; i++ {
				targets = append(targets, msg.NodeID(i))
			}
			c.After(sh.dur, func() {
				for _, id := range targets {
					auditor.Audit(id)
				}
			})
		}
	}
	c := launch(opts, sh.dur, audit)
	if err := advance(ctx, c, nil, sh.dur+tail); err != nil {
		return repOutcome{}
	}

	out := repOutcome{tallyResult: tally(c, sh.cohort)}
	scores := c.Scores()
	ids := make([]msg.NodeID, 0, len(scores))
	//lint:allow ordered-map-range collect-then-sort: ids are sorted before classification
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	detected := func(id msg.NodeID) bool {
		_, expelled := c.Expelled[id]
		switch sh.Detect {
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
		if sh.has(id) {
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
	if nh := sh.n - 1 - sh.k; nh > 0 {
		out.honestMean /= float64(nh)
	}
	if sh.k > 0 {
		out.advMean /= float64(sh.k)
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

// Matrix runs the adversary scenario sweep and renders the attack ×
// (α, β, gap, verdict) table. The result's Failed flag is the caller's exit
// code: any oracle violation means the detection claims regressed.
// Cancelling ctx aborts the sweep — mid-calibration or mid-repetition — and
// returns ctx.Err().
func Matrix(ctx context.Context, cfg MatrixConfig) (*Table, *MatrixResult, error) {
	reps := 3
	if cfg.Quick {
		reps = 1
	}
	return matrix(ctx, cfg, reps)
}

// matrix is Matrix with the sim backend's repetition count given, so a test
// can fan several repetitions of a quick scenario across workers.
func matrix(ctx context.Context, cfg MatrixConfig, reps int) (*Table, *MatrixResult, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	root := rng.New(cfg.Seed).Derive("matrix")

	res := &MatrixResult{}
	for _, sc := range Scenarios() {
		if cfg.Filter != "" && !strings.Contains(sc.Name, cfg.Filter) {
			continue
		}
		backends := sc.Backends
		if cfg.Backends != nil {
			backends = nil
			for _, b := range sc.Backends {
				if slices.Contains(cfg.Backends, b) {
					backends = append(backends, b)
				}
			}
		}
		if len(backends) == 0 {
			continue
		}
		sh := sc.resolve(cfg.Quick)
		sh.shards = cfg.Shards
		scRoot := root.Derive(sc.Name)

		// Calibrate b̃ and η once per scenario from an honest pilot (always
		// on the discrete-event backend): the analysis's saturated-workload
		// b̃ over-compensates the real chunk workload, and the threshold
		// must sit at a margin below the empirical honest spread.
		cal, eta, err := calibrate(ctx, sh.options(runtime.KindSim, scRoot.Derive("cal").Seed()), sh.dur, matrixEtaSigmas, sh.EtaFloor)
		if err != nil {
			return nil, nil, err
		}

		ran := false
		for _, backend := range backends {
			n := reps
			if backend != runtime.KindSim {
				n = 1 // wall-clock backends stream in real time
			}
			outs := make([]repOutcome, n)
			if err := parallelRange(ctx, cfg.Workers, n, func(i int) {
				seed := scRoot.Derive(fmt.Sprintf("rep/%d", i)).Seed()
				outs[i] = sh.runRep(ctx, backend, seed, cal.Compensation, eta)
			}); err != nil {
				return nil, nil, err
			}

			row := MatrixRow{
				Scenario: sc.Name,
				Attack:   sc.Attack,
				Backend:  backend,
				Reps:     n,
				Eta:      eta,
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
			if len(row.Failures) > 0 {
				res.Failed = true
			}
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
