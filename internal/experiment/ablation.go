package experiment

import (
	"context"
	"time"

	"lifting/internal/analysis"
	"lifting/internal/cluster"
	"lifting/internal/rng"
)

// AblationConfig sizes the ablation study.
type AblationConfig struct {
	// ScoreN sizes the blame-process runs.
	ScoreN int
	// ClusterN/Duration size the packet-level runs.
	ClusterN int
	Duration time.Duration
	Seed     uint64
}

// DefaultAblationConfig returns a laptop-scale study.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{
		ScoreN:   3000,
		ClusterN: 80,
		Duration: 15 * time.Second,
		Seed:     21,
	}
}

// Ablations quantifies the contribution of each LiFTinG mechanism by
// disabling it and measuring what breaks:
//
//  1. wrongful-blame compensation (§6.2) — without it every honest node
//     sits at −b̃ and is expelled;
//  2. direct cross-checking (pdcc, §5.2) — without it partial-propose and
//     fanout attacks go unblamed and the score gap narrows;
//  3. loss recovery in the dissemination layer — without re-requesting
//     from alternative proposers, UDP losses permanently blind nodes and
//     baseline health drops (this repository's addition; see DESIGN.md).
func Ablations(ctx context.Context, cfg AblationConfig) (*Table, error) {
	t := &Table{
		Title:   "Ablations — what each mechanism buys",
		Columns: []string{"configuration", "metric", "enabled", "disabled"},
	}

	// 1. Compensation.
	sc := DefaultScoreConfig()
	sc.N = cfg.ScoreN
	sc.Freeriders = 0
	sc.Seed = cfg.Seed
	on, err := RunScores(ctx, sc)
	if err != nil {
		return nil, err
	}
	sc.NoCompensation = true
	off, err := RunScores(ctx, sc)
	if err != nil {
		return nil, err
	}
	t.AddRow("compensation (Eq. 5)", "honest false positives β",
		Pct(on.FalsePositives), Pct(off.FalsePositives))

	// 2. Cross-checking: the score gap between honest nodes and freeriders
	// attacking only the propose phase (δ2) — the attack only
	// cross-checking can see.
	gap := func(pdcc float64) float64 {
		p := paperParams
		comp := cluster.CompensationFor(p.Loss, p.F, p.R, pdcc)
		root := rng.New(cfg.Seed)
		honest := BlameProcess{P: p, Rand: root.Derive("h" + F(pdcc, 2))}
		rider := BlameProcess{P: p, Delta: analysis.Delta{D2: 0.3}, Rand: root.Derive("f" + F(pdcc, 2))}
		var hs, fs float64
		const samples = 400
		for i := 0; i < samples; i++ {
			hs += honest.SampleScore(sc.Periods, comp, pdcc)
			fs += rider.SampleScore(sc.Periods, comp, pdcc)
		}
		return (hs - fs) / samples
	}
	t.AddRow("direct cross-checking (pdcc)", "score gap for a δ2=0.3 freerider",
		F(gap(1), 1), F(gap(0), 1))

	// 3. Loss recovery.
	recovery := func(retry bool) (float64, error) {
		p := DefaultPlanetLabConfig()
		p.N = cfg.ClusterN
		p.Seed = cfg.Seed
		p.PoorPct = 0
		p.FreeriderPct = 0
		opts := p.buildOptions()
		opts.LiFTinG = false
		opts.TrackPlayout = true
		if !retry {
			// A retry window longer than the run disables recovery.
			opts.Gossip.RequestRetry = time.Hour
		}
		c := launch(opts, cfg.Duration, nil)
		if err := advance(ctx, c, nil, cfg.Duration+2*time.Second); err != nil {
			return 0, err
		}
		return health(c, cfg.Duration, []time.Duration{cfg.Duration})[0], nil
	}
	healthOn, err := recovery(true)
	if err != nil {
		return nil, err
	}
	healthOff, err := recovery(false)
	if err != nil {
		return nil, err
	}
	t.AddRow("loss recovery (re-request)", "baseline health under 4% loss",
		F(healthOn, 3), F(healthOff, 3))

	t.Notes = append(t.Notes,
		"compensation off: every honest score sits at ≈ −b̃, below η (§6.2's motivation)",
		"pdcc off: propose-phase freeriding becomes invisible to the score")
	return t, nil
}
