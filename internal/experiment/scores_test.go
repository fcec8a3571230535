package experiment

import (
	"context"
	"math"
	"testing"

	"lifting/internal/analysis"
	"lifting/internal/rng"
	"lifting/internal/stats"
)

func TestBlameProcessMatchesEquation5(t *testing.T) {
	// The Monte-Carlo mean must converge to the closed form b̃ = 72.95.
	bp := BlameProcess{P: paperParams, Rand: rng.New(3)}
	var m stats.Moments
	for i := 0; i < 20000; i++ {
		m.Add(bp.SamplePeriod(1))
	}
	want := paperParams.WrongfulBlame()
	if math.Abs(m.Mean()-want) > 0.5 {
		t.Fatalf("MC mean = %v, closed form b̃ = %v", m.Mean(), want)
	}
	// And the spread must match the paper's experimental σ(b) = 25.6.
	if m.Std() < 22 || m.Std() > 29 {
		t.Fatalf("MC σ(b) = %v, paper reports 25.6", m.Std())
	}
	// Our analytical σ(b) should agree with the MC too.
	if aStd := paperParams.WrongfulBlameStd(); math.Abs(aStd-m.Std()) > 2 {
		t.Fatalf("analytical σ(b) = %v vs MC %v", aStd, m.Std())
	}
}

func TestBlameProcessFreeriderMatchesBPrime(t *testing.T) {
	for _, d := range []float64{0.05, 0.1, 0.2} {
		delta := analysis.Uniform(d)
		bp := BlameProcess{P: paperParams, Delta: delta, Rand: rng.New(7)}
		var m stats.Moments
		for i := 0; i < 20000; i++ {
			m.Add(bp.SamplePeriod(1))
		}
		want := paperParams.FreeriderBlame(delta)
		// The sampler rounds (1−δ1)·f to an integer partner count; allow a
		// correspondingly loose tolerance.
		if math.Abs(m.Mean()-want) > 0.05*want+2 {
			t.Fatalf("δ=%v: MC mean %v vs closed form b̃′ = %v", d, m.Mean(), want)
		}
	}
}

func TestFig10CentersAtZero(t *testing.T) {
	cfg := DefaultScoreConfig()
	cfg.N = 5000
	_, res, err := Fig10(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: mean < 0.01 at n = 10,000; scale tolerance with sample size:
	// σ(mean) = σ(b)/√n ≈ 25.6/70 ≈ 0.37.
	if math.Abs(res.HonestM.Mean()) > 1.2 {
		t.Fatalf("Fig10 mean = %v, want ≈0", res.HonestM.Mean())
	}
	if res.HonestM.Std() < 22 || res.HonestM.Std() > 29 {
		t.Fatalf("Fig10 σ = %v, paper reports 25.6", res.HonestM.Std())
	}
}

func TestFig11SeparatesModes(t *testing.T) {
	cfg := DefaultScoreConfig()
	cfg.N = 3000
	cfg.Freeriders = 300
	_, res, err := Fig11(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: two disjoint modes; α > 99% and β < 1% at η = −9.75 for
	// ∆ = (0.1, 0.1, 0.1) after r = 50.
	if res.Detection < 0.99 {
		t.Fatalf("detection = %v, paper says >99%% at δ=0.1", res.Detection)
	}
	if res.FalsePositives > 0.01 {
		t.Fatalf("false positives = %v, paper says <1%%", res.FalsePositives)
	}
	// The pdf modes are disjoint up to sub-percent tails (Figure 11a shows
	// a clear gap; extreme order statistics may graze at finite samples).
	if lo, hi := res.Honest.Quantile(0.005), res.Freerider.Quantile(0.995); lo <= hi {
		t.Fatalf("modes overlap beyond tails: honest q0.5%% %v vs freerider q99.5%% %v", lo, hi)
	}
}

func TestFig11NoCompensationAblation(t *testing.T) {
	// Without compensation every score shifts down by b̃ ≈ 72.95: honest
	// nodes land far below η and would all be expelled. This is the
	// motivation for §6.2.
	cfg := DefaultScoreConfig()
	cfg.N = 1000
	cfg.Freeriders = 0
	cfg.NoCompensation = true
	res, err := RunScores(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives < 0.99 {
		t.Fatalf("without compensation honest nodes should sit below η; β = %v", res.FalsePositives)
	}
}

func TestFig12Anchors(t *testing.T) {
	cfg := DefaultScoreConfig()
	_, points, err := Fig12(context.Background(), cfg, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 21 {
		t.Fatalf("%d sweep points, want δ = 0, 0.01, …, 0.2", len(points))
	}
	at := func(d float64) Fig12Point { return points[int(math.Round(d/0.01))] }
	// Paper anchors (§6.3.1 / Figure 12):
	// δ=0.05 → α ≈ 65%; δ ≥ 0.1 → α > 99%; δ=0.035 → α ≈ 50%, gain ≈ 10%.
	if p := at(0.05); p.Detection < 0.45 || p.Detection > 0.85 {
		t.Fatalf("α(0.05) = %v, paper says ≈0.65", p.Detection)
	}
	if p := at(0.1); p.Detection < 0.99 {
		t.Fatalf("α(0.1) = %v, paper says >0.99", p.Detection)
	}
	// δ = 0.035 lies between the sweep's 0.03 and 0.04 points.
	if lo, hi := at(0.03), at(0.04); lo.Detection > 0.75 || hi.Detection < 0.25 {
		t.Fatalf("α(0.03) = %v, α(0.04) = %v, paper says α(0.035) ≈ 0.5", lo.Detection, hi.Detection)
	}
	if lo, hi := at(0.03), at(0.04); lo.Gain > 0.10 || hi.Gain < 0.10 {
		t.Fatalf("gain(0.03) = %v, gain(0.04) = %v, paper says gain(0.035) ≈ 0.10", lo.Gain, hi.Gain)
	}
	// Honest nodes are almost never flagged.
	if p := at(0); p.Detection > 0.02 {
		t.Fatalf("α(0) = %v, honest nodes should pass", p.Detection)
	}
	// Detection is monotone in δ.
	prev := -1.0
	for _, p := range points {
		if p.Detection < prev-0.05 {
			t.Fatalf("detection not monotone at δ=%v", p.Delta)
		}
		prev = p.Detection
	}
}

func TestRunScoresDeterministic(t *testing.T) {
	cfg := DefaultScoreConfig()
	cfg.N = 500
	cfg.Freeriders = 50
	a, _ := RunScores(context.Background(), cfg)
	b, _ := RunScores(context.Background(), cfg)
	if a.HonestM.Mean() != b.HonestM.Mean() || a.Detection != b.Detection {
		t.Fatal("identical configs produced different results")
	}
}
