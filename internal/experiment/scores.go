package experiment

import (
	"context"

	"lifting/internal/analysis"
	"lifting/internal/rng"
	"lifting/internal/stats"
)

// paperParams is the §6 workload every blame-process experiment samples:
// fanout f = 12, |R| = 4 chunks per request, pl = 7% message loss.
var paperParams = analysis.Params{F: 12, R: 4, Loss: 0.07}

// paperEta is the paper's detection threshold η (§6.3.1, applied again in
// the §7 deployment).
const paperEta = -9.75

// ScoreConfig parameterizes the score-distribution experiments (Figures
// 10-12) on paperParams, classified against paperEta. Defaults reproduce
// the paper: n = 10,000, m = 1,000 freeriders of degree (0.1, 0.1, 0.1),
// r = 50 periods.
type ScoreConfig struct {
	N          int
	Freeriders int
	Delta      analysis.Delta
	Periods    int
	Seed       uint64
	// NoCompensation disables wrongful-blame compensation (ablation: shows
	// why Figure 10's centering matters).
	NoCompensation bool
	// Workers fans independent per-node trials across this many goroutines
	// (0 = GOMAXPROCS, 1 = the serial baseline). Results are bit-identical
	// for any worker count: every node's blame process draws from its own
	// seed-derived stream, and aggregation stays serial in node order.
	Workers int
}

// DefaultScoreConfig returns the paper's parameters.
func DefaultScoreConfig() ScoreConfig {
	return ScoreConfig{
		N:          10_000,
		Freeriders: 1_000,
		Delta:      analysis.Uniform(0.1),
		Periods:    50,
		Seed:       1,
	}
}

// ScoreResult carries the sampled distributions.
type ScoreResult struct {
	Honest     *stats.ECDF
	Freerider  *stats.ECDF
	HonestM    stats.Moments
	FreeriderM stats.Moments
	// Detection is α: the fraction of freeriders below η.
	Detection float64
	// FalsePositives is β: the fraction of honest nodes below η.
	FalsePositives float64
}

// RunScores samples the normalized score of every node under the
// blame-process model and classifies against η. The per-node trials are
// independent Monte-Carlo draws, fanned across cfg.Workers goroutines;
// aggregation is serial in node order, so the result does not depend on the
// worker count. Cancelling ctx aborts between per-node trials.
func RunScores(ctx context.Context, cfg ScoreConfig) (*ScoreResult, error) {
	comp := paperParams.WrongfulBlame()
	if cfg.NoCompensation {
		comp = 0
	}
	root := rng.New(cfg.Seed)
	res := &ScoreResult{}

	scores := make([]float64, cfg.N)
	err := parallelRange(ctx, cfg.Workers, cfg.N, func(i int) {
		bp := BlameProcess{P: paperParams, Rand: root.ForNode(uint32(i))}
		if i < cfg.Freeriders {
			bp.Delta = cfg.Delta
		}
		scores[i] = bp.SampleScore(cfg.Periods, comp, 1)
	})
	if err != nil {
		return nil, err
	}

	honest := make([]float64, 0, cfg.N-cfg.Freeriders)
	riders := make([]float64, 0, cfg.Freeriders)
	for i, s := range scores {
		if i < cfg.Freeriders {
			riders = append(riders, s)
			res.FreeriderM.Add(s)
			if s < paperEta {
				res.Detection++
			}
		} else {
			honest = append(honest, s)
			res.HonestM.Add(s)
			if s < paperEta {
				res.FalsePositives++
			}
		}
	}
	if cfg.Freeriders > 0 {
		res.Detection /= float64(cfg.Freeriders)
	}
	if n := cfg.N - cfg.Freeriders; n > 0 {
		res.FalsePositives /= float64(n)
	}
	res.Honest = stats.NewECDF(honest)
	res.Freerider = stats.NewECDF(riders)
	return res, nil
}

// Fig10 reproduces Figure 10: the distribution of compensated scores after
// one gossip period in an all-honest 10,000-node system with pl = 7%,
// f = 12, |R| = 4. The paper reports mean < 0.01 (compensation −b̃ = 72.95
// applied) and experimental σ(b) = 25.6.
func Fig10(ctx context.Context, cfg ScoreConfig) (*Table, *ScoreResult, error) {
	cfg.Freeriders = 0
	cfg.Periods = 1
	res, err := RunScores(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:   "Figure 10 — impact of message losses (honest scores after one period)",
		Columns: []string{"quantity", "paper", "measured"},
	}
	t.AddRow("compensation b̃ (Eq. 5)", "72.95", F(paperParams.WrongfulBlame(), 2))
	t.AddRow("mean score", "≈0 (<0.01)", F(res.HonestM.Mean(), 3))
	t.AddRow("σ(b)", "25.6", F(res.HonestM.Std(), 1))
	t.AddRow("analytical σ(b)", "-", F(paperParams.WrongfulBlameStd(), 1))
	t.Notes = append(t.Notes,
		"score range ["+F(res.Honest.Min(), 1)+", "+F(res.Honest.Max(), 1)+
			"] — compare Figure 10's x-axis of [-250, 50]")
	return t, res, nil
}

// Fig11 reproduces Figure 11: normalized score distributions of honest
// nodes vs 1,000 freeriders of degree (0.1, 0.1, 0.1) after r = 50 periods,
// with the detection threshold η = −9.75.
func Fig11(ctx context.Context, cfg ScoreConfig) (*Table, *ScoreResult, error) {
	res, err := RunScores(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:   "Figure 11 — normalized scores, honest vs freeriders (∆=(0.1,0.1,0.1), r=50)",
		Columns: []string{"quantity", "paper", "measured"},
	}
	t.AddRow("honest mean", "≈0", F(res.HonestM.Mean(), 2))
	t.AddRow("freerider mean", "<0 (separate mode)", F(res.FreeriderM.Mean(), 2))
	t.AddRow("gap between modes", ">0", F(res.HonestM.Mean()-res.FreeriderM.Mean(), 2))
	t.AddRow("detection α at η=-9.75", ">0.99", Pct(res.Detection))
	t.AddRow("false positives β", "<0.01", Pct(res.FalsePositives))
	t.Notes = append(t.Notes,
		"pdf modes must be disjoint: honest min "+F(res.Honest.Min(), 1)+
			" vs freerider max "+F(res.Freerider.Max(), 1))
	return t, res, nil
}

// Fig12Point is one sweep point of Figure 12.
type Fig12Point struct {
	Delta     float64
	Detection float64
	Gain      float64
	BoundLow  float64
}

// Fig12 reproduces Figure 12: detection probability α and upload-bandwidth
// gain as functions of the degree of freeriding δ (δ1=δ2=δ3=δ). The paper's
// anchors: α ≈ 0.65 at δ = 0.05; α > 0.99 beyond δ = 0.1; gain 10% at
// δ = 0.035 where α ≈ 0.5. The sweep runs δ from 0 to 0.2 in steps of 0.01.
// Each sweep point is an independent Monte-Carlo trial batch with its own
// delta-derived stream, so the sweep parallelizes across cfg.Workers without
// changing any number.
func Fig12(ctx context.Context, cfg ScoreConfig, samplesPerDelta int) (*Table, []Fig12Point, error) {
	var deltas []float64
	for d := 0.0; d <= 0.201; d += 0.01 {
		deltas = append(deltas, d)
	}
	comp := paperParams.WrongfulBlame()
	root := rng.New(cfg.Seed)
	t := &Table{
		Title:   "Figure 12 — detection and gain vs degree of freeriding δ",
		Columns: []string{"delta", "detection α", "gain", "Chebyshev bound"},
	}
	points := make([]Fig12Point, len(deltas))
	err := parallelRange(ctx, cfg.Workers, len(deltas), func(i int) {
		d := deltas[i]
		delta := analysis.Uniform(d)
		detected := 0
		bp := BlameProcess{P: paperParams, Delta: delta, Rand: root.Derive(F(d, 3))}
		for s := 0; s < samplesPerDelta; s++ {
			if bp.SampleScore(cfg.Periods, comp, 1) < paperEta {
				detected++
			}
		}
		points[i] = Fig12Point{
			Delta:     d,
			Detection: float64(detected) / float64(samplesPerDelta),
			Gain:      delta.Gain(),
			BoundLow:  paperParams.DetectionBound(delta, cfg.Periods, paperEta),
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range points {
		t.AddRow(F(p.Delta, 3), Pct(p.Detection), Pct(p.Gain), Pct(p.BoundLow))
	}
	return t, points, nil
}
