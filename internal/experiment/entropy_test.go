package experiment

import "testing"

// TestFig13PaperRanges runs Figure 13 at n = 2,000 with the paper's history
// length nh·f = 600; its verdict holds the entropy ranges (which shift only
// marginally with n — the birthday correction grows as k²/n).
func TestFig13PaperRanges(t *testing.T) { passes(t, "fig13", quick()) }

// TestFig13AtPaperScaleSampled runs the paper's n = 10,000, where the
// verdict adds the paper's own ranges and γ below every fanout entropy.
func TestFig13AtPaperScaleSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10k-node entropy simulation in -short mode")
	}
	p := quick()
	p.N = 10_000
	passes(t, "fig13", p)
}

// TestEq7Table: the verdict holds the paper's worked example, p*m ≈ 21% for
// a freerider colluding with 25 others.
func TestEq7Table(t *testing.T) { passes(t, "eq7", DefaultParams()) }
