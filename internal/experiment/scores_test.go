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
	// The spread against the paper's experimental σ(b) = 25.6 is fig10's
	// verdict; our analytical σ(b) must agree with the MC.
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

// The oracles of Figures 10–12 are their verdicts: fig10's centring and
// σ(b), fig11's α/β and disjoint modes (and, without compensation, every
// honest node below η), fig12's anchors.
func TestFig10CentersAtZero(t *testing.T) { passes(t, "fig10", quick()) }

func TestFig11SeparatesModes(t *testing.T) { passes(t, "fig11", quick()) }

func TestFig11NoCompensationAblation(t *testing.T) {
	p := quick()
	p.NoCompensation = true
	passes(t, "fig11", p)
}

func TestFig12Anchors(t *testing.T) { passes(t, "fig12", quick()) }

func TestRunScoresDeterministic(t *testing.T) {
	p := Params{N: 500, Seed: 1, Periods: paperPeriods}
	a, _ := runScores(context.Background(), p, 50, analysis.Uniform(0.1))
	b, _ := runScores(context.Background(), p, 50, analysis.Uniform(0.1))
	if a.HonestM.Mean() != b.HonestM.Mean() || a.Detection != b.Detection {
		t.Fatal("identical configs produced different results")
	}
}
