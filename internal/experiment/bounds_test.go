package experiment

import (
	"math"
	"testing"

	"lifting/internal/analysis"
	"lifting/internal/rng"
)

// TestChebyshevBoundsHoldEmpirically validates the §6.3.1 bounds against
// the blame-process Monte Carlo: the Bienaymé–Tchebychev inequalities must
// never be violated by the empirical α and β, across δ and r.
func TestChebyshevBoundsHoldEmpirically(t *testing.T) {
	p := paperParams
	comp := p.WrongfulBlame()
	const eta = paperEta
	const samples = 1500

	for _, r := range []int{10, 50, 100} {
		for _, d := range []float64{0, 0.05, 0.1, 0.15} {
			delta := analysis.Uniform(d)
			bp := BlameProcess{P: p, Delta: delta, Rand: rng.New(uint64(r*1000) + uint64(d*100))}
			below := 0
			for i := 0; i < samples; i++ {
				if bp.SampleScore(r, comp, 1) < eta {
					below++
				}
			}
			frac := float64(below) / samples

			if d == 0 {
				// β ≤ σ(b)²/(r·η²): the false-positive bound.
				bound := p.FalsePositiveBound(r, eta)
				if frac > bound+0.02 {
					t.Errorf("r=%d: empirical β %v exceeds bound %v", r, frac, bound)
				}
				continue
			}
			// α ≥ 1 − σ(b′)²/(r·(b̃′−b̃+η)²): the detection bound.
			bound := p.DetectionBound(delta, r, eta)
			if frac < bound-0.02 {
				t.Errorf("r=%d δ=%v: empirical α %v below bound %v", r, d, frac, bound)
			}
		}
	}
}

// TestFreeriderStdMatchesMC cross-validates our σ(b′(∆)) derivation (the
// paper defers it to its technical report) against the Monte Carlo.
func TestFreeriderStdMatchesMC(t *testing.T) {
	p := paperParams
	for _, d := range []float64{0, 0.1, 0.2} {
		delta := analysis.Uniform(d)
		bp := BlameProcess{P: p, Delta: delta, Rand: rng.New(uint64(100 + d*1000))}
		var sum, sum2 float64
		const n = 30000
		for i := 0; i < n; i++ {
			x := bp.SamplePeriod(1)
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		varMC := sum2/n - mean*mean
		stdMC := math.Sqrt(math.Max(varMC, 0))
		want := p.FreeriderBlameStd(delta)
		if relErr := math.Abs(stdMC-want) / want; relErr > 0.08 {
			t.Errorf("δ=%v: σ(b′) MC %v vs closed form %v (rel err %v)", d, stdMC, want, relErr)
		}
	}
}
