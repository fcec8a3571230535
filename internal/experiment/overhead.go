package experiment

import (
	"context"
	"time"

	"lifting/internal/cluster"
	"lifting/internal/msg"
)

// overheadRun streams the scenario with blames travelling as messages — the
// traffic Tables 3 and 5 count — and returns the finished cluster.
func (p PlanetLabConfig) overheadRun(ctx context.Context) (*cluster.Cluster, error) {
	opts := p.buildOptions()
	opts.BlameMode = cluster.BlameMessages
	c := launch(opts, p.Duration, nil)
	return c, advance(ctx, c, nil, p.Duration+time.Second)
}

// paperPdccs are the cross-check probabilities Tables 3 and 5 sweep.
var paperPdccs = []float64{0, 0.5, 1}

// Table3 reproduces Table 3 of the paper: the per-node, per-period message
// overhead of the verifications, for each of paperPdccs. The paper gives
// the asymptotics — O(pdcc·f²) confirm traffic for the verifier and each
// witness, O(pdcc·f) for the inspected node, plus O(M·f) blames — which the
// measured counts must track.
func Table3(ctx context.Context, p PlanetLabConfig) (*Table, error) {
	t := &Table{
		Title: "Table 3 — verification messages per node per gossip period",
		Columns: []string{
			"pdcc", "ack", "confirm", "confirm-resp", "blame", "total verif",
			"theory confirm O(pdcc·f²)",
		},
	}
	for _, pdcc := range paperPdccs {
		pc := p
		pc.Pdcc = pdcc
		c, err := pc.overheadRun(ctx)
		if err != nil {
			return nil, err
		}

		f := c.Opts.Gossip.F
		periods := float64(pc.Duration / c.Opts.Gossip.Period)
		perNodePeriod := func(k msg.Kind) float64 {
			return float64(c.Collector.SentMsgs(k)) / float64(pc.N) / periods
		}
		verifMsgs, _ := c.Collector.VerificationTotals()
		t.AddRow(
			F(pdcc, 2),
			F(perNodePeriod(msg.KindAck), 2),
			F(perNodePeriod(msg.KindConfirm), 2),
			F(perNodePeriod(msg.KindConfirmResp), 2),
			F(perNodePeriod(msg.KindBlame), 2),
			F(float64(verifMsgs)/float64(pc.N)/periods, 2),
			F(pdcc*float64(f*f), 1),
		)
	}
	t.Notes = append(t.Notes,
		"acks flow even at pdcc = 0 (they are what makes later polling possible)",
		"confirm counts stay below the O(pdcc·f²) bound because the real workload has fewer than f servers per period")
	return t, nil
}

// Table5 reproduces Table 5: LiFTinG's relative bandwidth overhead
// (verification bytes / dissemination bytes) for pdcc ∈ {0, 0.5, 1} and the
// three stream rates of the paper. The paper's measurements:
//
//	stream    pdcc=0   pdcc=0.5  pdcc=1
//	 674 kbps  1.07%    4.53%     8.01%
//	1082 kbps  0.69%    3.51%     5.04%
//	2036 kbps  0.38%    1.69%     2.76%
//
// The shape to reproduce: overhead grows with pdcc and shrinks as the
// stream rate grows (verification traffic is rate-independent while the
// payload is not).
// OverheadPoint is one measured cell of Table 5.
type OverheadPoint struct {
	BitrateBps int
	Pdcc       float64
	// Ratio is verification bytes / dissemination bytes.
	Ratio float64
}

func Table5(ctx context.Context, p PlanetLabConfig) (*Table, []OverheadPoint, error) {
	t := &Table{
		Title:   "Table 5 — bandwidth overhead of cross-checking and blaming",
		Columns: []string{"stream", "pdcc=0.00", "pdcc=0.50", "pdcc=1.00", "paper (pdcc 0 / 0.5 / 1)"},
	}
	paper := map[int][]string{
		674_000:   {"1.07%", "4.53%", "8.01%"},
		1_082_000: {"0.69%", "3.51%", "5.04%"},
		2_036_000: {"0.38%", "1.69%", "2.76%"},
	}
	var points []OverheadPoint
	for _, rate := range []int{674_000, 1_082_000, 2_036_000} {
		row := []string{F(float64(rate)/1000, 0) + " kbps"}
		for _, pdcc := range paperPdccs {
			pc := p
			pc.Pdcc = pdcc
			pc.BitrateBps = rate
			c, err := pc.overheadRun(ctx)
			if err != nil {
				return nil, nil, err
			}
			ratio := c.Collector.Overhead()
			points = append(points, OverheadPoint{BitrateBps: rate, Pdcc: pdcc, Ratio: ratio})
			row = append(row, Pct(ratio))
		}
		ref := paper[rate]
		t.AddRow(append(row, "paper: "+ref[0]+" / "+ref[1]+" / "+ref[2])...)
	}
	return t, points, nil
}
