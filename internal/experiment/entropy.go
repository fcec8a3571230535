package experiment

import (
	"context"

	"lifting/internal/analysis"
	"lifting/internal/msg"
	"lifting/internal/rng"
	"lifting/internal/stats"
)

// paperHistory is the paper's history length nh in gossip periods; a
// history holds nh·f = 600 partner draws at the paper's f = 12.
const paperHistory = 50

// paperGamma is the paper's entropy threshold γ (§6.3.2), just below every
// honest history's entropy (Figure 13).
const paperGamma = 8.95

// EntropyConfig parameterizes the Figure 13 experiment: the distribution of
// history entropies under full-membership uniform partner selection, over
// histories of paperHistory periods at paperParams' fanout. Defaults match
// the paper: n = 10,000.
type EntropyConfig struct {
	N    int
	Seed uint64
	// SampleNodes bounds how many nodes' entropies are computed (0 = all);
	// fanin entropies require simulating everyone's draws regardless.
	SampleNodes int
}

// DefaultEntropyConfig returns the paper's parameters.
func DefaultEntropyConfig() EntropyConfig {
	return EntropyConfig{N: 10_000, Seed: 1}
}

// EntropyResult carries the two distributions of Figure 13.
type EntropyResult struct {
	Fanout stats.Moments
	Fanin  stats.Moments
	// FanoutMin/Max and FaninMin/Max delimit the observed ranges the paper
	// reports (9.11–9.21 and 8.98–9.34 respectively).
	MaxAttainable float64
}

// Fig13 reproduces Figure 13: every node draws nh·f uniform partners; the
// fanout entropy is the entropy of its own draw multiset, the fanin entropy
// that of the nodes that drew it. The paper observes fanout entropy in
// [9.11, 9.21] (max log2(600) = 9.23) and fanin entropy in [8.98, 9.34],
// and sets γ = 8.95 just below both.
func Fig13(ctx context.Context, cfg EntropyConfig) (*Table, *EntropyResult, error) {
	root := rng.New(cfg.Seed)
	draws := paperHistory * paperParams.F

	res := &EntropyResult{MaxAttainable: stats.MaxEntropy(draws)}
	fanin := make([]*stats.Multiset[msg.NodeID], cfg.N)
	for i := range fanin {
		fanin[i] = stats.NewMultiset[msg.NodeID]()
	}

	sample := cfg.SampleNodes
	if sample <= 0 || sample > cfg.N {
		sample = cfg.N
	}
	for i := 0; i < cfg.N; i++ {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		r := root.ForNode(uint32(i))
		fanout := stats.NewMultiset[msg.NodeID]()
		for d := 0; d < draws; d++ {
			// Uniform partner, excluding self, as the membership layer
			// guarantees (§2).
			p := r.IntN(cfg.N - 1)
			if p >= i {
				p++
			}
			fanout.Add(msg.NodeID(p))
			fanin[p].Add(msg.NodeID(i))
		}
		if i < sample {
			res.Fanout.Add(fanout.Entropy())
		}
	}
	for i := 0; i < sample; i++ {
		res.Fanin.Add(fanin[i].Entropy())
	}

	t := &Table{
		Title:   "Figure 13 — entropy of honest histories (nh·f = " + F(float64(draws), 0) + ", n = " + F(float64(cfg.N), 0) + ")",
		Columns: []string{"multiset", "paper range", "measured range", "mean"},
	}
	t.AddRow("fanout Fh", "[9.11, 9.21]",
		"["+F(res.Fanout.Min(), 2)+", "+F(res.Fanout.Max(), 2)+"]", F(res.Fanout.Mean(), 3))
	t.AddRow("fanin F'h", "[8.98, 9.34]",
		"["+F(res.Fanin.Min(), 2)+", "+F(res.Fanin.Max(), 2)+"]", F(res.Fanin.Mean(), 3))
	t.AddRow("max log2(nh·f)", "9.23", F(res.MaxAttainable, 2), "")
	t.Notes = append(t.Notes, "γ = 8.95 must sit below every honest entropy (no wrongful expulsion)")
	return t, res, nil
}

// Eq7 reproduces the numeric inversion of Equation 7 (§6.3.2): the maximum
// collusion bias p*m a freerider can apply without crossing the entropy
// threshold γ = paperGamma, as a function of the coalition size. The paper's
// worked example: colluding with 25 other nodes, nh·f = 600 → p*m ≈ 21%.
func Eq7(historyLen int) *Table {
	t := &Table{
		Title:   "Equation 7 — maximum undetectable collusion bias p*m (γ = " + F(paperGamma, 2) + ")",
		Columns: []string{"coalition m'", "p*m", "entropy at p*m"},
	}
	for _, m := range []int{5, 10, 25, 26, 50, 100} {
		pm := analysis.MaxCollusionBias(paperGamma, m, historyLen)
		t.AddRow(F(float64(m), 0), Pct(pm), F(analysis.CollusionEntropy(pm, m, historyLen), 3))
	}
	t.Notes = append(t.Notes, "paper: a freerider colluding with 25 others can bias 21% of its pushes")
	return t
}
