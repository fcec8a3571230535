package experiment

import (
	"context"
	"math"

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

// paperPeriods is the score-period count r of Figures 11 and 12.
const paperPeriods = 50

// scoreResult carries the sampled distributions.
type scoreResult struct {
	Honest     *stats.ECDF
	Freerider  *stats.ECDF
	HonestM    stats.Moments
	FreeriderM stats.Moments
	// Detection is α: the fraction of freeriders below η.
	Detection float64
	// FalsePositives is β: the fraction of honest nodes below η.
	FalsePositives float64
}

// runScores samples the normalized score of each of p.N nodes after
// p.Periods periods under the blame-process model — the first riders of them
// freeriding with degree delta, compensation off under p.NoCompensation —
// and classifies against η. The per-node trials are independent Monte-Carlo
// draws, fanned across p.Workers goroutines: every node draws from its own
// seed-derived stream and aggregation is serial in node order, so the result
// does not depend on the worker count. Cancelling ctx aborts between
// per-node trials.
func runScores(ctx context.Context, p Params, riders int, delta analysis.Delta) (*scoreResult, error) {
	comp := paperParams.WrongfulBlame()
	if p.NoCompensation {
		comp = 0
	}
	root := rng.New(p.Seed)
	res := &scoreResult{}

	scores := make([]float64, p.N)
	err := parallelRange(ctx, p.Workers, p.N, func(i int) {
		bp := BlameProcess{P: paperParams, Rand: root.ForNode(uint32(i))}
		if i < riders {
			bp.Delta = delta
		}
		scores[i] = bp.SampleScore(p.Periods, comp, 1)
	})
	if err != nil {
		return nil, err
	}

	honest := make([]float64, 0, p.N-riders)
	freeriders := make([]float64, 0, riders)
	for i, s := range scores {
		if i < riders {
			freeriders = append(freeriders, s)
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
	if riders > 0 {
		res.Detection /= float64(riders)
	}
	if n := p.N - riders; n > 0 {
		res.FalsePositives /= float64(n)
	}
	res.Honest = stats.NewECDF(honest)
	res.Freerider = stats.NewECDF(freeriders)
	return res, nil
}

// scoreDefaults are the paper's Figures 10–12 parameters: n = 10,000 nodes
// (a tenth of them freeriders where a figure has any), r = 50 periods.
var scoreDefaults = Params{N: 10_000, Seed: 1, Periods: paperPeriods, Delta: -1, Pdcc: -1}

// fig10 reproduces Figure 10: the distribution of compensated scores after
// one gossip period in an all-honest 10,000-node system with pl = 7%,
// f = 12, |R| = 4. The paper reports mean < 0.01 (compensation −b̃ = 72.95
// applied) and experimental σ(b) = 25.6.
var fig10 = Experiment{
	Name: "fig10", Paper: "§6.2, Figure 10",
	Describe:      "compensated honest scores after one period under message loss",
	DefaultParams: Params{N: scoreDefaults.N, Seed: scoreDefaults.Seed, Periods: 1, Delta: -1, Pdcc: -1},
	quick:         Params{N: 2000},
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		p.Periods = 1 // the figure is one period by definition; -periods does not apply
		res, err := runScores(ctx, p, 0, analysis.Delta{})
		if err != nil {
			return err
		}
		mean, std := res.HonestM.Mean(), res.HonestM.Std()
		t := &Table{
			Title:   "Figure 10 — impact of message losses (honest scores after one period)",
			Columns: []string{"quantity", "paper", "measured"},
		}
		t.AddRow("compensation b̃ (Eq. 5)", "72.95", F(paperParams.WrongfulBlame(), 2))
		t.AddRow("mean score", "≈0 (<0.01)", F(mean, 3))
		t.AddRow("σ(b)", "25.6", F(std, 1))
		t.AddRow("analytical σ(b)", "-", F(paperParams.WrongfulBlameStd(), 1))
		t.Notes = append(t.Notes,
			"score range ["+F(res.Honest.Min(), 1)+", "+F(res.Honest.Max(), 1)+
				"] — compare Figure 10's x-axis of [-250, 50]")
		out.addTable(obs, t)
		out.addMetric("mean-score", mean)
		out.addMetric("sigma-b", std)
		// Compensation centres the honest scores: the paper's mean < 0.01 at
		// n = 10,000, with a tolerance of ≈ 3σ(mean) at n = 5,000
		// (σ(b)/√n ≈ 0.37). Without compensation there is nothing to centre.
		if !p.NoCompensation {
			out.check("honest mean score", "§6.2", num(mean, 3), incl(-1.2), incl(1.2))
		}
		out.check("σ(b)", "§6.2", num(std, 1), incl(22), incl(29))
		return nil
	},
}

// fig11 reproduces Figure 11: normalized score distributions of honest
// nodes vs 1,000 freeriders of degree (0.1, 0.1, 0.1) after r = 50 periods,
// with the detection threshold η = −9.75.
var fig11 = Experiment{
	Name: "fig11", Paper: "§6.3.1, Figure 11",
	Describe:      "normalized score separation, honest vs freeriders, after r periods",
	DefaultParams: Params{N: scoreDefaults.N, Seed: scoreDefaults.Seed, Periods: paperPeriods, Delta: 0.1, Pdcc: -1},
	quick:         Params{N: 2000},
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		res, err := runScores(ctx, p, p.N/10, analysis.Uniform(p.Delta))
		if err != nil {
			return err
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
		out.addTable(obs, t)
		out.addMetric("detection", res.Detection)
		out.addMetric("false-positives", res.FalsePositives)
		out.addMetric("mode-gap", res.HonestM.Mean()-res.FreeriderM.Mean())
		switch {
		case p.NoCompensation:
			// §6.2's motivation: uncompensated, every score sits near −b̃
			// ≈ −72.95, far below η — every honest node would be expelled.
			out.check("β without compensation", "§6.2", num(res.FalsePositives, 3), incl(0.99), none)
		case p.Delta == 0.1 && p.Periods == paperPeriods:
			// The paper's claim, for ∆ = (0.1, 0.1, 0.1) after r = 50: α > 99%
			// and β < 1% at η = −9.75, from two pdf modes disjoint up to
			// sub-percent tails (extreme order statistics may graze at finite
			// samples). Other degrees and period counts draw the curve only.
			out.check("detection α", "§6.3.1", num(res.Detection, 3), incl(0.99), none)
			out.check("false positives β", "§6.3.1", num(res.FalsePositives, 3), none, incl(0.01))
			out.check("honest q0.5% − freerider q99.5%", "§6.3.1",
				num(res.Honest.Quantile(0.005)-res.Freerider.Quantile(0.995), 2), excl(0), none)
		}
		return nil
	},
}

// fig12Point is one sweep point of Figure 12.
type fig12Point struct {
	Delta     float64
	Detection float64
	Gain      float64
	BoundLow  float64
}

// fig12Sweep samples Figure 12's curves: detection probability α, upload
// gain and the Chebyshev bound for δ1 = δ2 = δ3 = δ from 0 to 0.2 in steps
// of 0.01, samples scores per point after p.Periods periods. Each point is
// an independent Monte-Carlo batch with its own delta-derived stream, so the
// sweep parallelizes across p.Workers without changing any number.
func fig12Sweep(ctx context.Context, p Params, samples int) ([]fig12Point, error) {
	var deltas []float64
	for d := 0.0; d <= 0.201; d += 0.01 {
		deltas = append(deltas, d)
	}
	comp := paperParams.WrongfulBlame()
	root := rng.New(p.Seed)
	points := make([]fig12Point, len(deltas))
	err := parallelRange(ctx, p.Workers, len(deltas), func(i int) {
		d := deltas[i]
		delta := analysis.Uniform(d)
		detected := 0
		bp := BlameProcess{P: paperParams, Delta: delta, Rand: root.Derive(F(d, 3))}
		for s := 0; s < samples; s++ {
			if bp.SampleScore(p.Periods, comp, 1) < paperEta {
				detected++
			}
		}
		points[i] = fig12Point{
			Delta:     d,
			Detection: float64(detected) / float64(samples),
			Gain:      delta.Gain(),
			BoundLow:  paperParams.DetectionBound(delta, p.Periods, paperEta),
		}
	})
	return points, err
}

// fig12 reproduces Figure 12: detection probability α and upload-bandwidth
// gain as functions of the degree of freeriding δ. The paper's anchors, for
// r = 50: α ≈ 0.65 at δ = 0.05; α > 0.99 beyond δ = 0.1; gain 10% at
// δ = 0.035 where α ≈ 0.5.
var fig12 = Experiment{
	Name: "fig12", Paper: "§6.3.1, Figure 12",
	Describe:      "detection probability and bandwidth gain vs degree of freeriding",
	DefaultParams: scoreDefaults,
	quick:         Params{N: 2000},
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		samples := 4000
		if p.Quick {
			samples = 1000
		}
		points, err := fig12Sweep(ctx, p, samples)
		if err != nil {
			return err
		}
		t := &Table{
			Title:   "Figure 12 — detection and gain vs degree of freeriding δ",
			Columns: []string{"delta", "detection α", "gain", "Chebyshev bound"},
		}
		for _, pt := range points {
			t.AddRow(F(pt.Delta, 3), Pct(pt.Detection), Pct(pt.Gain), Pct(pt.BoundLow))
		}
		out.addTable(obs, t)
		if p.Periods != paperPeriods {
			return nil // the anchors are stated for r = 50 only
		}
		out.check("sweep points", "sanity", count(len(points)), incl(21), incl(21))
		if len(points) != 21 {
			return nil
		}
		at := func(d float64) fig12Point { return points[int(math.Round(d/0.01))] }
		// The paper's α(0.05) ≈ 0.65 and α > 0.99 beyond δ = 0.1; δ = 0.035,
		// where α ≈ 0.5 and the gain is 10%, lies between the sweep's 0.03
		// and 0.04 points.
		out.check("α(0.05)", "§6.3.1", num(at(0.05).Detection, 3), incl(0.45), incl(0.85))
		out.check("α(0.1)", "§6.3.1", num(at(0.1).Detection, 3), incl(0.99), none)
		out.check("α(0.03)", "§6.3.1", num(at(0.03).Detection, 3), none, incl(0.75))
		out.check("α(0.04)", "§6.3.1", num(at(0.04).Detection, 3), incl(0.25), none)
		out.check("gain(0.03)", "§6.3.1", num(at(0.03).Gain, 3), none, incl(0.10))
		out.check("gain(0.04)", "§6.3.1", num(at(0.04).Gain, 3), incl(0.10), none)
		// Honest nodes are almost never flagged, and detection is monotone
		// in δ up to sampling noise.
		out.check("α(0)", "sanity", num(at(0).Detection, 3), none, incl(0.02))
		drops := 0
		for i := 1; i < len(points); i++ {
			if points[i].Detection < points[i-1].Detection-0.05 {
				drops++
			}
		}
		out.check("α drops over 0.05 along δ", "sanity", count(drops), incl(0), incl(0))
		return nil
	},
}
