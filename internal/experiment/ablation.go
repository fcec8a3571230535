package experiment

import (
	"context"
	"time"

	"lifting/internal/analysis"
	"lifting/internal/cluster"
	"lifting/internal/rng"
)

// ablate quantifies the contribution of each LiFTinG mechanism by disabling
// it and measuring what breaks:
//
//  1. wrongful-blame compensation (§6.2) — without it every honest node
//     sits at −b̃ and is expelled;
//  2. direct cross-checking (pdcc, §5.2) — without it partial-propose and
//     fanout attacks go unblamed and the score gap narrows;
//  3. loss recovery in the dissemination layer — without re-requesting
//     from alternative proposers, UDP losses permanently blind nodes and
//     baseline health drops (this repository's addition; see DESIGN.md).
//
// The blame-process runs sample 3,000 nodes and the packet-level runs stream
// 15 s over 80 nodes (-quick: 500, and 8 s over 50).
var ablate = Experiment{
	Name: "ablate", Paper: "beyond the paper — mechanism ablations",
	Describe:      "what compensation, cross-checking and loss recovery each buy",
	DefaultParams: Params{Seed: 21, Delta: -1, Pdcc: -1},
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		scoreN, clusterN, dur := 3000, 80, 15*time.Second
		if p.Quick {
			scoreN, clusterN, dur = 500, 50, 8*time.Second
		}
		t := &Table{
			Title:   "Ablations — what each mechanism buys",
			Columns: []string{"configuration", "metric", "enabled", "disabled"},
		}

		// 1. Compensation.
		sp := Params{N: scoreN, Seed: p.Seed, Periods: paperPeriods}
		on, err := runScores(ctx, sp, 0, analysis.Delta{})
		if err != nil {
			return err
		}
		sp.NoCompensation = true
		off, err := runScores(ctx, sp, 0, analysis.Delta{})
		if err != nil {
			return err
		}
		t.AddRow("compensation (Eq. 5)", "honest false positives β",
			Pct(on.FalsePositives), Pct(off.FalsePositives))

		// 2. Cross-checking: the score gap between honest nodes and
		// freeriders attacking only the propose phase (δ2) — the attack only
		// cross-checking can see.
		gap := func(pdcc float64) float64 {
			pp := paperParams
			comp := cluster.CompensationFor(pp.Loss, pp.F, pp.R, pdcc)
			root := rng.New(p.Seed)
			honest := BlameProcess{P: pp, Rand: root.Derive("h" + F(pdcc, 2))}
			rider := BlameProcess{P: pp, Delta: analysis.Delta{D2: 0.3}, Rand: root.Derive("f" + F(pdcc, 2))}
			var hs, fs float64
			const samples = 400
			for i := 0; i < samples; i++ {
				hs += honest.SampleScore(paperPeriods, comp, pdcc)
				fs += rider.SampleScore(paperPeriods, comp, pdcc)
			}
			return (hs - fs) / samples
		}
		gapOn, gapOff := gap(1), gap(0)
		t.AddRow("direct cross-checking (pdcc)", "score gap for a δ2=0.3 freerider",
			F(gapOn, 1), F(gapOff, 1))

		// 3. Loss recovery.
		recovery := func(retry bool) (float64, error) {
			pl := planetLab(Params{N: clusterN, Seed: p.Seed, Pdcc: -1})
			pl.PoorPct = 0
			pl.FreeriderPct = 0
			opts := pl.buildOptions()
			opts.LiFTinG = false
			opts.TrackPlayout = true
			if !retry {
				// A retry window longer than the run disables recovery.
				opts.Gossip.RequestRetry = time.Hour
			}
			c := launch(opts, dur, nil)
			if err := advance(ctx, c, nil, dur+2*time.Second); err != nil {
				return 0, err
			}
			return health(c, dur, []time.Duration{dur})[0], nil
		}
		healthOn, err := recovery(true)
		if err != nil {
			return err
		}
		healthOff, err := recovery(false)
		if err != nil {
			return err
		}
		t.AddRow("loss recovery (re-request)", "baseline health under 4% loss",
			F(healthOn, 3), F(healthOff, 3))

		t.Notes = append(t.Notes,
			"compensation off: every honest score sits at ≈ −b̃, below η (§6.2's motivation)",
			"pdcc off: propose-phase freeriding becomes invisible to the score")
		out.addTable(obs, t)

		// Each mechanism must buy what it claims: β jumps from ≈ 0 to ≈ 1
		// without compensation, the δ2 gap collapses without
		// cross-checking, and health drops without re-requests.
		if on.FalsePositives > 0.05 {
			out.fail("β with compensation = %.3f, want ≈ 0 (≤ 0.05)", on.FalsePositives)
		}
		if off.FalsePositives < 0.95 {
			out.fail("β without compensation = %.3f, want ≈ 1 (≥ 0.95)", off.FalsePositives)
		}
		if gapOn < 5*gapOff && gapOn < gapOff+10 {
			out.fail("δ2 score gap %.1f with cross-checking vs %.1f without: cross-checking contributed too little", gapOn, gapOff)
		}
		if healthOn <= healthOff {
			out.fail("loss recovery off did not hurt: health %.3f with vs %.3f without", healthOn, healthOff)
		}
		if healthOn < 0.85 {
			out.fail("baseline health with loss recovery = %.3f, want ≥ 0.85", healthOn)
		}
		return nil
	},
}
