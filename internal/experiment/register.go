package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lifting/internal/analysis"
)

// This file registers every experiment. Registration order is execution
// order for `lifting-sim all`: cheap analytic experiments first, the long
// cluster streams (fig14, fig1) last. The parameter mapping in each wrapper
// is the contract the lifting-sim flags used to implement per-experiment;
// it lives here now so a library caller and the CLI resolve overrides
// identically.

// scoreConfig maps the named experiment's resolved Params onto the
// Monte-Carlo score experiments (fig10/fig11/fig12).
func scoreConfig(name string, p Params) ScoreConfig {
	r := p.resolve(name, Params{N: 2000})
	cfg := DefaultScoreConfig()
	cfg.N, cfg.Freeriders = r.N, r.N/10
	cfg.Seed = r.Seed
	cfg.Periods = r.Periods
	if r.Delta >= 0 {
		cfg.Delta = analysis.Uniform(r.Delta)
	}
	cfg.NoCompensation = p.NoCompensation
	cfg.Workers = p.Workers
	return cfg
}

// planetLabConfig maps the named experiment's resolved Params onto the §7
// deployment scenario (fig1/fig14/table3/table5).
func planetLabConfig(name string, p Params) PlanetLabConfig {
	r := p.resolve(name, Params{N: 100, Duration: 20 * time.Second})
	pl := DefaultPlanetLabConfig()
	pl.N, pl.Seed, pl.Duration = r.N, r.Seed, r.Duration
	if r.Pdcc >= 0 {
		pl.Pdcc = r.Pdcc
	}
	return pl
}

// newResult starts a passing result for the named experiment.
func newResult(name string, p Params) *Result {
	e, _ := Lookup(name)
	return &Result{Experiment: name, Paper: e.Paper, Params: p, Verdict: Verdict{Pass: true}}
}

// fig14Pdccs returns the pdcc values fig14 sweeps: the paper shows 1 and
// 0.5; an explicit override pins a single value.
func fig14Pdccs(override float64) []float64 {
	if override >= 0 {
		return []float64{override}
	}
	return []float64{1, 0.5}
}

func init() {
	// DefaultParams are read off the default configs, so each default is
	// stated once; Delta and Pdcc start at their −1 "unset" (fig11's paper
	// value of 0.1 aside).
	score, entropy, planet := DefaultScoreConfig(), DefaultEntropyConfig(), DefaultPlanetLabConfig()
	churn, scale, soak := DefaultChurnConfig(), DefaultScaleConfig(), DefaultSoakConfig()

	Register(Experiment{
		Name: "fig10", Paper: "§6.2, Figure 10",
		Describe:      "compensated honest scores after one period under message loss",
		DefaultParams: Params{N: score.N, Seed: score.Seed, Periods: 1, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			tab, res, err := Fig10(ctx, scoreConfig("fig10", p))
			if err != nil {
				return nil, err
			}
			out := newResult("fig10", p)
			out.addTable(obs, tab)
			out.addMetric("mean-score", res.HonestM.Mean())
			out.addMetric("sigma-b", res.HonestM.Std())
			return out, nil
		},
	})
	Register(Experiment{
		Name: "fig11", Paper: "§6.3.1, Figure 11",
		Describe:      "normalized score separation, honest vs freeriders, after r periods",
		DefaultParams: Params{N: score.N, Seed: score.Seed, Periods: score.Periods, Delta: 0.1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			tab, res, err := Fig11(ctx, scoreConfig("fig11", p))
			if err != nil {
				return nil, err
			}
			out := newResult("fig11", p)
			out.addTable(obs, tab)
			out.addMetric("detection", res.Detection)
			out.addMetric("false-positives", res.FalsePositives)
			out.addMetric("mode-gap", res.HonestM.Mean()-res.FreeriderM.Mean())
			return out, nil
		},
	})
	Register(Experiment{
		Name: "fig12", Paper: "§6.3.1, Figure 12",
		Describe:      "detection probability and bandwidth gain vs degree of freeriding",
		DefaultParams: Params{N: score.N, Seed: score.Seed, Periods: score.Periods, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			samples := 4000
			if p.Quick {
				samples = 1000
			}
			tab, _, err := Fig12(ctx, scoreConfig("fig12", p), samples)
			if err != nil {
				return nil, err
			}
			out := newResult("fig12", p)
			out.addTable(obs, tab)
			return out, nil
		},
	})
	Register(Experiment{
		Name: "fig13", Paper: "§6.3.2, Figure 13",
		Describe:      "entropy of honest fanout/fanin histories vs the audit threshold γ",
		DefaultParams: Params{N: entropy.N, Seed: entropy.Seed, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			r := p.resolve("fig13", Params{N: 2000})
			cfg := entropy
			cfg.N, cfg.Seed = r.N, r.Seed
			if p.Quick {
				cfg.SampleNodes = 500
			}
			tab, res, err := Fig13(ctx, cfg)
			if err != nil {
				return nil, err
			}
			out := newResult("fig13", p)
			out.addTable(obs, tab)
			out.addMetric("fanout-H-mean", res.Fanout.Mean())
			out.addMetric("fanin-H-mean", res.Fanin.Mean())
			out.addMetric("fanout-H-min", res.Fanout.Min())
			return out, nil
		},
	})
	Register(Experiment{
		Name: "eq7", Paper: "§6.3.2, Equation 7",
		Describe:      "maximum undetectable collusion bias p*m vs coalition size",
		DefaultParams: Params{Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out := newResult("eq7", p)
			out.addTable(obs, Eq7(paperHistory*paperParams.F))
			return out, nil
		},
	})
	Register(Experiment{
		Name: "ablate", Paper: "beyond the paper — mechanism ablations",
		Describe:      "what compensation, cross-checking and loss recovery each buy",
		DefaultParams: Params{Seed: DefaultAblationConfig().Seed, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			cfg := DefaultAblationConfig()
			if p.Quick {
				cfg.ScoreN = 500
				cfg.ClusterN = 50
				cfg.Duration = 8 * time.Second
			}
			cfg.Seed = p.resolve("ablate", Params{}).Seed
			tab, err := Ablations(ctx, cfg)
			if err != nil {
				return nil, err
			}
			out := newResult("ablate", p)
			out.addTable(obs, tab)
			return out, nil
		},
	})
	Register(Experiment{
		Name: "table3", Paper: "§6.1/§7.2, Table 3",
		Describe:      "verification messages per node per gossip period, swept over pdcc",
		DefaultParams: Params{N: planet.N, Seed: planet.Seed, Duration: planet.Duration, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			tab, err := Table3(ctx, planetLabConfig("table3", p))
			if err != nil {
				return nil, err
			}
			out := newResult("table3", p)
			out.addTable(obs, tab)
			return out, nil
		},
	})
	Register(Experiment{
		Name: "table5", Paper: "§7.2, Table 5",
		Describe:      "relative bandwidth overhead across stream rates and pdcc",
		DefaultParams: Params{N: planet.N, Seed: planet.Seed, Duration: planet.Duration, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			tab, points, err := Table5(ctx, planetLabConfig("table5", p))
			if err != nil {
				return nil, err
			}
			out := newResult("table5", p)
			out.addTable(obs, tab)
			ratio := map[[2]int]float64{}
			for _, pt := range points {
				out.addMetric(fmt.Sprintf("overhead-%dkbps-pdcc%.2f", pt.BitrateBps/1000, pt.Pdcc), pt.Ratio)
				ratio[[2]int{pt.BitrateBps, int(pt.Pdcc * 100)}] = pt.Ratio
			}
			// The standing overhead oracle. The paper's headline is <8%
			// bandwidth overhead at full cross-checking (674 kbps, pdcc=1,
			// measured 8.01%); our reproduction lands at ~8.8% because acks
			// are costlier here (see EXPERIMENTS.md), so the worst cell is
			// gated with a 2-point tolerance while the higher stream rates —
			// where the claim is unambiguous — must stay strictly under 8%.
			if r, ok := ratio[[2]int{674_000, 100}]; ok && (r <= 0 || r >= 0.10) {
				out.fail("overhead at 674 kbps / pdcc=1 is %.2f%%, want within (0%%, 10%%)", 100*r)
			}
			for _, rate := range []int{1_082_000, 2_036_000} {
				if r, ok := ratio[[2]int{rate, 100}]; ok && (r <= 0 || r >= 0.08) {
					out.fail("overhead at %d kbps / pdcc=1 is %.2f%%, want under the paper's 8%%", rate/1000, 100*r)
				}
			}
			// And Table 5's two shapes: overhead grows with pdcc and
			// shrinks as the stream rate grows.
			for _, rate := range []int{674_000, 1_082_000, 2_036_000} {
				r0, ok0 := ratio[[2]int{rate, 0}]
				r1, ok1 := ratio[[2]int{rate, 100}]
				if ok0 && ok1 && r1 <= r0 {
					out.fail("overhead at %d kbps not increasing in pdcc: %.2f%% → %.2f%%", rate/1000, 100*r0, 100*r1)
				}
			}
			low, okLow := ratio[[2]int{674_000, 100}]
			high, okHigh := ratio[[2]int{2_036_000, 100}]
			if okLow && okHigh && high >= low {
				out.fail("overhead did not shrink with bitrate: %.2f%% (674k) vs %.2f%% (2036k)", 100*low, 100*high)
			}
			return out, nil
		},
	})
	Register(Experiment{
		Name: "churn", Paper: "beyond the paper — churn workload",
		Describe:      "joins and leaves mid-stream with reputation-manager handoff",
		DefaultParams: Params{N: churn.N, Seed: churn.Seed, Duration: churn.Duration, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			r := p.resolve("churn", Params{N: 50, Duration: 8 * time.Second})
			cfg := churn
			cfg.N, cfg.Seed, cfg.Duration = r.N, r.Seed, r.Duration
			cfg.Backend = p.backend()
			cfg.Shards = p.Shards
			if p.Quick {
				cfg.Joins, cfg.Leaves = 6, 6
			}
			tab, res, err := Churn(ctx, cfg)
			if err != nil {
				return nil, err
			}
			out := newResult("churn", p)
			out.addTable(obs, tab)
			out.addMetric("joined", float64(res.Joined))
			out.addMetric("departed", float64(res.Departed))
			out.addMetric("handoffs", float64(res.Handoffs))
			out.addMetric("catch-up", res.CatchUp.Mean())
			out.addMetric("score-gap", res.HonestMean-res.FreeriderMean)
			return out, nil
		},
	})
	Register(Experiment{
		Name: "scale", Paper: "beyond the paper — 10k-node scale workload",
		Describe:      "expulsion verdict at a large population vs the 300-node baseline",
		DefaultParams: Params{N: scale.N, Seed: scale.Seed, Duration: scale.Duration, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			r := p.resolve("scale", Params{N: 1000})
			cfg := scale
			cfg.N, cfg.Seed, cfg.Duration = r.N, r.Seed, r.Duration
			cfg.Shards = p.Shards
			tab, res, err := Scale(ctx, cfg)
			if err != nil {
				return nil, err
			}
			out := newResult("scale", p)
			out.addTable(obs, tab)
			out.addMetric("target-freeriders-expelled", float64(res.Target.FreeridersExpelled))
			out.addMetric("target-honest-expelled", float64(res.Target.HonestExpelled))
			out.addMetric("target-overhead", res.Target.Overhead())
			out.addMetric("target-dup-ratio", res.Target.DupRatio())
			out.addMetric("target-goodput-bytes", float64(res.Target.GoodputBytes))
			out.addMetric("target-stream-lag", res.Target.StreamLag().Seconds())
			out.addMetric("target-stream-jitter", res.Target.StreamJitter().Seconds())
			out.MetricsSnapshots = res.TargetSnapshots
			// The scale workload uses 4x chunks (fewer, larger serves), so
			// its verification overhead is NOT Table 5's figure — but it
			// must stay in the same order of magnitude, and the stream must
			// be overwhelmingly useful traffic.
			if o := res.Target.Overhead(); o <= 0 || o >= 0.25 {
				out.fail("target verification overhead %.2f%% outside (0%%, 25%%)", 100*o)
			}
			if d := res.Target.DupRatio(); d >= 0.5 {
				out.fail("duplicate serves are the majority of received serves: %.2f%%", 100*d)
			}
			// QoE oracles: the content plane must actually deliver verified
			// payload, with first arrivals trailing the source by less than
			// the run and spacing close to the chunk interval.
			period := cfg.scaleOptions(cfg.N).Gossip.Period
			for _, r := range []ScaleRun{res.Baseline, res.Target} {
				if r.GoodputBytes == 0 {
					out.fail("scale N=%d delivered no verified payload (goodput 0)", r.N)
				}
				if lag := r.StreamLag(); lag <= 0 || lag >= cfg.Duration {
					out.fail("scale N=%d mean stream lag %s outside (0, %s)", r.N, lag, cfg.Duration)
				}
				if jit := r.StreamJitter(); jit >= period {
					out.fail("scale N=%d mean jitter %s >= gossip period %s", r.N, jit, period)
				}
			}
			// The gate is the expected verdict at BOTH populations, not mere
			// agreement: two identically-broken runs must still fail.
			for _, r := range []ScaleRun{res.Baseline, res.Target} {
				if !r.CohortExpelled() || !r.HonestClean() {
					out.fail("scale N=%d verdict %q, want cohort expelled and honest clean", r.N, r.Verdict())
				}
			}
			if !res.Agree {
				out.fail("scale verdict mismatch: baseline %q vs N=%d %q",
					res.Baseline.Verdict(), res.Target.N, res.Target.Verdict())
			}
			return out, nil
		},
	})
	Register(Experiment{
		Name: "soak", Paper: "beyond the paper — fault-plane soak",
		Describe:      "churn + one attack + a seeded fault schedule under standing invariant checkers",
		DefaultParams: Params{N: soak.N, Seed: soak.Seed, Duration: soak.Duration, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			cfg, quick := soak, QuickSoakConfig()
			if p.Quick {
				cfg = quick
			}
			r := p.resolve("soak", Params{N: quick.N, Duration: quick.Duration})
			cfg.N, cfg.Seed, cfg.Duration = r.N, r.Seed, r.Duration
			cfg.Backend = p.backend()
			cfg.Shards = p.Shards
			// -filter selects the attack for the soak (freeride, or a matrix
			// scenario such as blame-spam or period-stretch); the flag is
			// free-form, Soak validates it.
			if p.Filter != "" {
				cfg.Attack = p.Filter
			}
			tab, res, err := Soak(ctx, cfg)
			if err != nil {
				return nil, err
			}
			out := newResult("soak", p)
			out.addTable(obs, tab)
			out.addMetric("chaos-events", float64(res.ChaosApplied))
			out.addMetric("joined", float64(res.Joined))
			out.addMetric("departed", float64(res.Departed))
			out.addMetric("handoffs", float64(res.Handoffs))
			out.addMetric("freeriders-expelled", float64(res.FreeridersExpelled))
			out.addMetric("honest-expelled", float64(res.HonestExpelled))
			out.addMetric("max-tracked-per-manager", float64(res.MaxTracked))
			out.addMetric("invariant-violations", float64(len(res.Violations)))
			out.addMetric("goodput-bytes", float64(res.GoodputBytes))
			out.MetricsSnapshots = res.Snapshots
			// The standing invariants are the verdict: any per-period
			// violation fails the run, as does a schedule that did not fully
			// execute or a stream that delivered nothing.
			for _, v := range res.Violations {
				out.fail("invariant violated: %s", v)
			}
			if res.ChaosApplied != res.PlanEvents {
				out.fail("fault plan incomplete: applied %d of %d events", res.ChaosApplied, res.PlanEvents)
			}
			if res.GoodputBytes == 0 {
				out.fail("soak delivered no verified payload (goodput 0)")
			}
			// Detection oracles: honest nodes survive every fault; the
			// freerider cohort does not (cohort expulsion is only asserted
			// for the freeride attack — bad-mouthers are undetectable by
			// construction and stretchers are an audit subject).
			if !res.HonestClean() {
				out.fail("%d live honest nodes expelled under the fault plan, want 0", res.HonestExpelled)
			}
			if cfg.Attack == "freeride" && !res.CohortExpelled() {
				out.fail("freerider cohort not fully expelled: %d of %d", res.FreeridersExpelled, res.Freeriders)
			}
			return out, nil
		},
	})
	Register(Experiment{
		Name: "matrix", Paper: "§4/§5 adversary matrix",
		Describe:      "every §4/§5 attack scenario against its statistical oracle",
		MultiBackend:  true,
		DefaultParams: Params{Seed: 1, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			tab, res, err := Matrix(ctx, MatrixConfig{
				Quick:    p.Quick,
				Backends: p.Backends,
				Filter:   p.Filter,
				Seed:     p.resolve("matrix", Params{}).Seed,
				Workers:  p.Workers,
				Shards:   p.Shards,
			})
			if err != nil {
				return nil, err
			}
			out := newResult("matrix", p)
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
			return out, nil
		},
	})
	Register(Experiment{
		Name: "fig14", Paper: "§7.3, Figure 14",
		Describe:      "score CDF snapshots over time on the heterogeneous deployment",
		DefaultParams: Params{N: planet.N, Seed: planet.Seed, Duration: planet.Duration, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			pl := planetLabConfig("fig14", p)
			out := newResult("fig14", p)
			for _, pd := range fig14Pdccs(p.Pdcc) {
				pl.Pdcc = pd
				tab, res, err := Fig14(ctx, pl)
				if err != nil {
					return nil, err
				}
				out.addTable(obs, tab)
				last := res.Snapshots[len(res.Snapshots)-1]
				out.addMetric("detection@pdcc="+F(pd, 2), last.Detection)
				out.addMetric("false-positives@pdcc="+F(pd, 2), last.FalsePositives)
			}
			return out, nil
		},
	})
	Register(Experiment{
		Name: "fig1", Paper: "§1/§7.3, Figure 1",
		Describe:      "stream health vs lag: baseline, unpoliced freeriders, LiFTinG",
		DefaultParams: Params{N: planet.N, Seed: planet.Seed, Duration: 45 * time.Second, Delta: -1, Pdcc: -1},
		Run: func(ctx context.Context, p Params, obs Observer) (*Result, error) {
			pl := planetLabConfig("fig1", p)
			var lags []time.Duration
			for s := 0; s <= int(pl.Duration/time.Second); s += 5 {
				lags = append(lags, time.Duration(s)*time.Second)
			}
			out := newResult("fig1", p)
			metrics := []string{"health-no-freeriders", "health-freeriders", "health-lifting"}
			for i, sc := range []Fig1Scenario{Fig1NoFreeriders, Fig1Freeriders, Fig1FreeridersLiFTinG} {
				tab, res, err := Fig1(ctx, pl, sc, lags)
				if err != nil {
					return nil, err
				}
				out.addTable(obs, tab)
				out.addMetric(metrics[i], res.Health[len(res.Health)-1])
			}
			return out, nil
		},
	})
}
