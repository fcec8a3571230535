package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

// paperParams are the parameters of Figure 10: pl = 7%, f = 12, |R| = 4.
func paperParams() Params {
	return Params{F: 12, R: 4, Loss: 0.07}
}

func TestWrongfulBlameMatchesPaper(t *testing.T) {
	// §6.2: with pl = 7%, f = 12, |R| = 4 the scores are compensated by
	// −b̃ = 72.95.
	got := paperParams().WrongfulBlame()
	if math.Abs(got-72.95) > 0.05 {
		t.Fatalf("b̃ = %v, paper says 72.95", got)
	}
}

func TestWrongfulBlameIsSumOfComponents(t *testing.T) {
	p := paperParams()
	sum := p.DirectVerificationBlame() + p.CrossCheckBlameChain() + p.CrossCheckBlameWitness()
	if math.Abs(sum-p.WrongfulBlame()) > 1e-9 {
		t.Fatalf("b̃dv + b̃dcc = %v, b̃ = %v (Equation 5 violated)", sum, p.WrongfulBlame())
	}
}

func TestNoLossNoWrongfulBlame(t *testing.T) {
	p := Params{F: 12, R: 4, Loss: 0}
	if b := p.WrongfulBlame(); b != 0 {
		t.Fatalf("b̃ with no loss = %v, want 0", b)
	}
	if s := p.WrongfulBlameStd(); s != 0 {
		t.Fatalf("σ(b) with no loss = %v, want 0", s)
	}
}

func TestWrongfulBlameStdPlausible(t *testing.T) {
	// §6.2 reports an experimental σ(b) = 25.6 at the Figure 10 parameters.
	// The analytical value should be in the same range.
	got := paperParams().WrongfulBlameStd()
	if got < 15 || got > 40 {
		t.Fatalf("σ(b) = %v, expected near the paper's experimental 25.6", got)
	}
}

func TestFreeriderBlameReducesToHonest(t *testing.T) {
	p := paperParams()
	if diff := math.Abs(p.FreeriderBlame(Delta{}) - p.WrongfulBlame()); diff > 1e-9 {
		t.Fatalf("b̃′(0) differs from b̃ by %v", diff)
	}
}

func TestFreeriderBlameMonotone(t *testing.T) {
	// More freeriding ⇒ more expected blame, over the δ range of Figure 12.
	p := paperParams()
	prev := p.FreeriderBlame(Delta{})
	for d := 0.01; d <= 0.2; d += 0.01 {
		b := p.FreeriderBlame(Uniform(d))
		if b <= prev {
			t.Fatalf("b̃′ not increasing at δ=%v: %v then %v", d, prev, b)
		}
		prev = b
	}
}

func TestGain(t *testing.T) {
	if g := (Delta{}).Gain(); g != 0 {
		t.Fatalf("gain of honest node = %v", g)
	}
	// §6.3.1: a gain of 10% is achieved at δ = 0.035.
	if g := Uniform(0.035).Gain(); math.Abs(g-0.10) > 0.005 {
		t.Fatalf("gain at δ=0.035 = %v, paper says ≈0.10", g)
	}
	if g := Uniform(1).Gain(); g != 1 {
		t.Fatalf("gain at δ=1 = %v, want 1", g)
	}
}

func TestGainMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		x := float64(a%100) / 100
		y := float64(b%100) / 100
		if x > y {
			x, y = y, x
		}
		return Uniform(x).Gain() <= Uniform(y).Gain()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsBehaveWithTime(t *testing.T) {
	p := paperParams()
	// β bound decreases with r; α bound increases with r.
	if b10, b100 := p.FalsePositiveBound(10, -9.75), p.FalsePositiveBound(100, -9.75); b100 >= b10 {
		t.Fatalf("β bound did not shrink with r: %v → %v", b10, b100)
	}
	d := Uniform(0.1)
	if a10, a100 := p.DetectionBound(d, 10, -9.75), p.DetectionBound(d, 100, -9.75); a100 < a10 {
		t.Fatalf("α bound did not grow with r: %v → %v", a10, a100)
	}
	// As r → ∞, α → 1 and β → 0 (§6.3.1).
	if a := p.DetectionBound(d, 100000, -9.75); a < 0.999 {
		t.Fatalf("α bound at large r = %v, want → 1", a)
	}
	if b := p.FalsePositiveBound(100000, -9.75); b > 0.001 {
		t.Fatalf("β bound at large r = %v, want → 0", b)
	}
}

func TestDetectionBoundVacuousBelowThreshold(t *testing.T) {
	// A freerider whose expected score sits above η cannot be guaranteed
	// detected: the bound collapses to 0.
	p := paperParams()
	if a := p.DetectionBound(Uniform(0.001), 50, -9.75); a != 0 {
		t.Fatalf("α bound for negligible freeriding = %v, want 0", a)
	}
}

func TestBoundsAreProbabilities(t *testing.T) {
	p := paperParams()
	for r := 1; r < 200; r += 10 {
		for d := 0.0; d <= 0.3; d += 0.05 {
			a := p.DetectionBound(Uniform(d), r, -9.75)
			b := p.FalsePositiveBound(r, -9.75)
			if a < 0 || a > 1 || b < 0 || b > 1 {
				t.Fatalf("bounds out of range at r=%d δ=%v: α=%v β=%v", r, d, a, b)
			}
		}
	}
}

func TestCollusionEntropyEquation7(t *testing.T) {
	// The paper inverts Equation 7 for γ = 8.95, a freerider colluding with
	// 25 other nodes (coalition 26 including itself... the text says "a
	// freerider colluding with 25 other nodes" and m′ colluding nodes in
	// the history), nh·f = 600, and finds p*m ≈ 21%.
	for _, coalition := range []int{25, 26} {
		pm := MaxCollusionBias(8.95, coalition, 600)
		if pm < 0.15 || pm > 0.27 {
			t.Fatalf("p*m for coalition %d = %v, paper says ≈0.21", coalition, pm)
		}
	}
}

func TestCollusionEntropyDecreasing(t *testing.T) {
	// Beyond the uniform point, more bias means less entropy.
	prev := math.Inf(1)
	for pm := 0.05; pm <= 1.0; pm += 0.05 {
		h := CollusionEntropy(pm, 26, 600)
		if h > prev+1e-9 {
			t.Fatalf("collusion entropy not decreasing at pm=%v", pm)
		}
		prev = h
	}
}

func TestCollusionEntropyAtFullBias(t *testing.T) {
	// pm = 1: all pushes go to the coalition; entropy = log2(m′).
	h := CollusionEntropy(1, 32, 600)
	if math.Abs(h-5) > 1e-9 {
		t.Fatalf("entropy at pm=1 with coalition 32 = %v, want 5", h)
	}
}

func TestMaxCollusionBiasEdges(t *testing.T) {
	// A trivial threshold lets the freerider push everything at colluders.
	if pm := MaxCollusionBias(1, 26, 600); pm != 1 {
		t.Fatalf("p*m with tiny γ = %v, want 1", pm)
	}
	// An impossibly high threshold forbids any extra bias.
	pm := MaxCollusionBias(12, 26, 600)
	if pm > 26.0/600+1e-9 {
		t.Fatalf("p*m with impossible γ = %v, want uniform share", pm)
	}
}

func TestMaxCollusionBiasMonotoneInCoalition(t *testing.T) {
	// Larger coalitions can absorb more bias at the same threshold.
	prev := 0.0
	for _, m := range []int{5, 10, 25, 50, 100} {
		pm := MaxCollusionBias(8.95, m, 600)
		if pm < prev {
			t.Fatalf("p*m not monotone in coalition size at m=%d: %v < %v", m, pm, prev)
		}
		prev = pm
	}
}

func TestCrossCheckBlameDecomposition(t *testing.T) {
	// Equation 3 splits into the (a) broken-chain term and the (b) witness
	// term; their sum must equal the closed form pr²(1 − pr^(|R|+4))·f².
	p := paperParams()
	pr := 1 - p.Loss
	closed := pr * pr * (1 - math.Pow(pr, float64(p.R+4))) * float64(p.F*p.F)
	sum := p.CrossCheckBlameChain() + p.CrossCheckBlameWitness()
	if math.Abs(sum-closed) > 1e-9 {
		t.Fatalf("chain %v + witness %v != b̃dcc %v",
			p.CrossCheckBlameChain(), p.CrossCheckBlameWitness(), closed)
	}
	if p.CrossCheckBlameChain() <= 0 || p.CrossCheckBlameWitness() <= 0 {
		t.Fatal("both components must be positive under loss")
	}
}
