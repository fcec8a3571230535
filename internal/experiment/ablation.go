package experiment

import (
	"context"
	"time"

	"lifting/internal/analysis"
	"lifting/internal/cluster"
	"lifting/internal/rng"
)

// ablateWorkloads are the loss-recovery row's runs, with re-requests and
// without: the deployment over 80 nodes for 15 s (-quick: 50, 8 s) without
// its freeriders, its poorly connected tail or LiFTinG, run on 2 s past the
// stream.
func ablateWorkloads(p Params) []workload {
	n, dur := 80, 15*time.Second
	if p.Quick {
		n, dur = 50, 8*time.Second
	}
	var ws []workload
	for _, retry := range []bool{true, false} {
		w := deployment(Params{N: n, Seed: p.Seed, Duration: dur, Pdcc: -1})
		w.k, w.poor, w.unpoliced, w.playout, w.tail = 0, 0, true, true, 2*time.Second
		if !retry {
			// A retry window longer than the run disables recovery.
			w.gossip.RequestRetry = time.Hour
		}
		ws = append(ws, w)
	}
	return ws
}

// crossCheckGap is the mean score gap, over 400 samples, between honest
// nodes and freeriders attacking only the propose phase (δ2) — the attack
// only cross-checking can see — at the given pdcc.
func crossCheckGap(seed uint64, pdcc float64) float64 {
	pp := paperParams
	comp := cluster.CompensationFor(pp.Loss, pp.F, pp.R, pdcc)
	root := rng.New(seed)
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
	workloads:     ablateWorkloads,
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		scoreN := 3000
		if p.Quick {
			scoreN = 500
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

		// 2. Cross-checking.
		gapOn, gapOff := crossCheckGap(p.Seed, 1), crossCheckGap(p.Seed, 0)
		t.AddRow("direct cross-checking (pdcc)", "score gap for a δ2=0.3 freerider",
			F(gapOn, 1), F(gapOff, 1))

		// 3. Loss recovery.
		var recovered [2]float64
		for i, w := range ablateWorkloads(p) {
			o, err := w.run(ctx, nil, hooks{})
			if err != nil {
				return err
			}
			recovered[i] = health(o.c, w.stream, []time.Duration{w.stream})[0]
		}
		healthOn, healthOff := recovered[0], recovered[1]
		t.AddRow("loss recovery (re-request)", "baseline health under 4% loss",
			F(healthOn, 3), F(healthOff, 3))

		t.Notes = append(t.Notes,
			"compensation off: every honest score sits at ≈ −b̃, below η (§6.2's motivation)",
			"pdcc off: propose-phase freeriding becomes invisible to the score")
		out.addTable(obs, t)

		// Each mechanism must buy what it claims: β jumps from ≈ 0 to ≈ 1
		// without compensation, the δ2 gap collapses without
		// cross-checking, and health drops without re-requests.
		out.check("β with compensation", "§6.2", num(on.FalsePositives, 3), none, incl(0.05))
		out.check("β without compensation", "§6.2", num(off.FalsePositives, 3), incl(0.95), none)
		// The gap with cross-checking is 5 times, or 10 above, the gap
		// without it: whichever asks less.
		out.check("δ2 score gap with cross-checking", "§5.2", num(gapOn, 1), incl(min(5*gapOff, gapOff+10)), none)
		out.check("health gain from loss recovery", "sanity", num(healthOn-healthOff, 3), excl(0), none)
		out.check("health with loss recovery", "sanity", num(healthOn, 3), incl(0.85), none)
		return nil
	},
}
