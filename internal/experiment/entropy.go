package experiment

import (
	"context"
	"math"

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

// fig13 reproduces Figure 13: every node draws nh·f uniform partners; the
// fanout entropy is the entropy of its own draw multiset, the fanin entropy
// that of the nodes that drew it. The paper observes fanout entropy in
// [9.11, 9.21] (max log2(600) = 9.23) and fanin entropy in [8.98, 9.34] at
// n = 10,000, and sets γ = 8.95 just below both. -quick computes the
// entropies of 500 nodes (fanin entropies need everyone's draws regardless).
var fig13 = Experiment{
	Name: "fig13", Paper: "§6.3.2, Figure 13",
	Describe:      "entropy of honest fanout/fanin histories vs the audit threshold γ",
	DefaultParams: Params{N: 10_000, Seed: 1, Delta: -1, Pdcc: -1},
	quick:         Params{N: 2000},
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		root := rng.New(p.Seed)
		draws := paperHistory * paperParams.F
		maxH := stats.MaxEntropy(draws)
		var fanoutH, faninH stats.Moments
		fanin := make([]*stats.Multiset[msg.NodeID], p.N)
		for i := range fanin {
			fanin[i] = stats.NewMultiset[msg.NodeID]()
		}
		sample := p.N
		if p.Quick {
			sample = min(500, p.N)
		}
		for i := 0; i < p.N; i++ {
			if i%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			r := root.ForNode(uint32(i))
			fanout := stats.NewMultiset[msg.NodeID]()
			for d := 0; d < draws; d++ {
				// Uniform partner, excluding self, as the membership layer
				// guarantees (§2).
				partner := r.IntN(p.N - 1)
				if partner >= i {
					partner++
				}
				fanout.Add(msg.NodeID(partner))
				fanin[partner].Add(msg.NodeID(i))
			}
			if i < sample {
				fanoutH.Add(fanout.Entropy())
			}
		}
		for i := 0; i < sample; i++ {
			faninH.Add(fanin[i].Entropy())
		}

		t := &Table{
			Title:   "Figure 13 — entropy of honest histories (nh·f = " + F(float64(draws), 0) + ", n = " + F(float64(p.N), 0) + ")",
			Columns: []string{"multiset", "paper range", "measured range", "mean"},
		}
		t.AddRow("fanout Fh", "[9.11, 9.21]",
			"["+F(fanoutH.Min(), 2)+", "+F(fanoutH.Max(), 2)+"]", F(fanoutH.Mean(), 3))
		t.AddRow("fanin F'h", "[8.98, 9.34]",
			"["+F(faninH.Min(), 2)+", "+F(faninH.Max(), 2)+"]", F(faninH.Mean(), 3))
		t.AddRow("max log2(nh·f)", "9.23", F(maxH, 2), "")
		t.Notes = append(t.Notes, "γ = 8.95 must sit below every honest entropy (no wrongful expulsion)")
		out.addTable(obs, t)
		out.addMetric("fanout-H-mean", fanoutH.Mean())
		out.addMetric("fanin-H-mean", faninH.Mean())
		out.addMetric("fanout-H-min", fanoutH.Min())

		if math.Abs(maxH-9.2288) > 0.001 {
			out.fail("max entropy log2(nh·f) = %.4f, want 9.23", maxH)
		}
		// Collisions pull the entropies down as k²/n, so the ranges are
		// stated for populations of at least 2,000 (where they sit a little
		// below the paper's) and the paper's own for its n = 10,000.
		if p.N >= 2000 {
			// Fanout entropies concentrate just below the max, fanin
			// entropies straddle it (sizes vary), and both means agree —
			// both are ≈ uniform over ≈ 600 draws.
			if fanoutH.Min() < 8.8 || fanoutH.Max() > maxH {
				out.fail("fanout entropy range [%.3f, %.3f] outside [8.8, %.3f]", fanoutH.Min(), fanoutH.Max(), maxH)
			}
			if faninH.Min() < 8.6 || faninH.Max() > 9.6 {
				out.fail("fanin entropy range [%.3f, %.3f] outside [8.6, 9.6]", faninH.Min(), faninH.Max())
			}
			if fanoutH.Mean() < 8.9 {
				out.fail("fanout entropy mean %.3f below 8.9", fanoutH.Mean())
			}
			if d := math.Abs(faninH.Mean() - fanoutH.Mean()); d > 0.15 {
				out.fail("fanin mean %.3f is %.3f from fanout mean %.3f, want ≤ 0.15", faninH.Mean(), d, fanoutH.Mean())
			}
		}
		if p.N >= 10_000 {
			if fanoutH.Min() < 9.05 || fanoutH.Max() > 9.24 {
				out.fail("fanout range [%.3f, %.3f], paper says [9.11, 9.21] (want within [9.05, 9.24])", fanoutH.Min(), fanoutH.Max())
			}
			if faninH.Min() < 8.9 || faninH.Max() > 9.45 {
				out.fail("fanin range [%.3f, %.3f], paper says [8.98, 9.34] (want within [8.9, 9.45])", faninH.Min(), faninH.Max())
			}
			// Every honest node passes γ on fanout: no wrongful expulsion.
			if fanoutH.Min() < paperGamma {
				out.fail("an honest fanout entropy %.3f fell below γ = %.2f", fanoutH.Min(), paperGamma)
			}
		}
		return nil
	},
}

// eq7 reproduces the numeric inversion of Equation 7 (§6.3.2): the maximum
// collusion bias p*m a freerider can apply without crossing the entropy
// threshold γ = paperGamma, as a function of the coalition size. The paper's
// worked example: colluding with 25 other nodes, nh·f = 600 → p*m ≈ 21%.
var eq7 = Experiment{
	Name: "eq7", Paper: "§6.3.2, Equation 7",
	Describe:      "maximum undetectable collusion bias p*m vs coalition size",
	DefaultParams: Params{Delta: -1, Pdcc: -1},
	run: func(ctx context.Context, _ Params, out *Result, obs Observer) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		historyLen := paperHistory * paperParams.F
		t := &Table{
			Title:   "Equation 7 — maximum undetectable collusion bias p*m (γ = " + F(paperGamma, 2) + ")",
			Columns: []string{"coalition m'", "p*m", "entropy at p*m"},
		}
		for _, m := range []int{5, 10, 25, 26, 50, 100} {
			pm := analysis.MaxCollusionBias(paperGamma, m, historyLen)
			t.AddRow(F(float64(m), 0), Pct(pm), F(analysis.CollusionEntropy(pm, m, historyLen), 3))
			// "A freerider colluding with 25 other nodes": m′ is 25 or 26,
			// depending on whether the freerider counts itself.
			if (m == 25 || m == 26) && (pm < 0.15 || pm > 0.27) {
				out.fail("p*m for coalition %d = %.3f, paper says ≈ 0.21 (want [0.15, 0.27])", m, pm)
			}
		}
		t.Notes = append(t.Notes, "paper: a freerider colluding with 25 others can bias 21% of its pushes")
		out.addTable(obs, t)
		return nil
	},
}
