package analysis

import "math"

// CollusionEntropy returns the fanout-history entropy of a freerider that
// picks a coalition member with probability pm and an honest node otherwise,
// both classes uniformly (the entropy-maximizing strategy of §6.3.2):
//
//	H = −pm·log2(pm/m′) − (1−pm)·log2((1−pm)/(nh·f − m′))
//
// where m′ is the coalition size and nh·f the history length. This is the
// right-hand side of Equation 7.
func CollusionEntropy(pm float64, coalition, historyLen int) float64 {
	m := float64(coalition)
	hl := float64(historyLen)
	if m <= 0 || hl <= m {
		return math.NaN()
	}
	var h float64
	if pm > 0 {
		h -= pm * math.Log2(pm/m)
	}
	if pm < 1 {
		h -= (1 - pm) * math.Log2((1-pm)/(hl-m))
	}
	return h
}

// MaxCollusionBias numerically inverts Equation 7: it returns p*m, the
// largest probability of serving coalition partners that keeps the fanout
// entropy at or above the threshold γ, for a coalition of the given size and
// a history of historyLen = nh·f entries.
//
// The paper's worked example: γ = 8.95, coalition 26 (a freerider colluding
// with 25 others), nh·f = 600 gives p*m ≈ 0.21 — a freerider can direct 21%
// of its pushes at its coalition without being detected.
//
// CollusionEntropy(pm) is strictly decreasing for pm above the uniform point
// m′/(nh·f), so bisection on [m′/(nh·f), 1] finds the crossing. If even
// pm = 1 stays above γ (tiny γ) the function returns 1; if the entropy is
// below γ already at the uniform point it returns the uniform point (no
// extra bias is safe).
func MaxCollusionBias(gamma float64, coalition, historyLen int) float64 {
	uniform := float64(coalition) / float64(historyLen)
	if CollusionEntropy(1, coalition, historyLen) >= gamma {
		return 1
	}
	if CollusionEntropy(uniform, coalition, historyLen) < gamma {
		return uniform
	}
	lo, hi := uniform, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if CollusionEntropy(mid, coalition, historyLen) >= gamma {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
