// Collusion: a coalition of freeriders that covers for each other, and the
// entropy audit that catches them (§5.3 and §6.3.2 of the paper).
//
// Eight colluders bias 80% of their partner selection toward the coalition
// and answer confirmations for each other, which defeats direct
// cross-checking. A local history audit then compares the entropy of their
// fanout/fanin histories against γ and expels them, while honest nodes pass.
// The example also prints the analytical bound: the maximum bias p*m a
// coalition this size could sustain undetected (Equation 7).
//
// Run with: go run ./examples/collusion
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"lifting/internal/analysis"
	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/stream"
)

func main() {
	// gamma is scaled for a 100-node system: honest histories measure ≈6.3
	// (max log2(99) ≈ 6.6).
	run(os.Stdout, 100, 8, 5.5, 25*time.Second)
}

// run executes the collusion story at the given scale and returns how many
// coalition members the audit expelled. gamma must be scaled to the system
// size (honest entropies approach log2(n-1)).
func run(w io.Writer, nodes, coalitionSize int, gamma float64, streamFor time.Duration) (expelled int) {
	const (
		tg   = 500 * time.Millisecond
		bias = 0.8
	)
	coalition := make([]msg.NodeID, coalitionSize)
	for i := range coalition {
		coalition[i] = msg.NodeID(nodes - coalitionSize + i)
	}

	opts := cluster.Options{
		N:           nodes,
		Seed:        11,
		Gossip:      gossip.Config{F: 7, Period: tg, HistoryPeriods: 50},
		Core:        core.Config{Pdcc: 1, Gamma: gamma, GammaFanin: 2.0},
		Rep:         reputation.Config{M: 10},
		Stream:      stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		NetDefaults: net.Uniform(0.02, 5*time.Millisecond),
		LiFTinG:     true,
		BehaviorFor: func(id msg.NodeID, dir *membership.Directory, r *rng.Stream) gossip.Behavior {
			for _, m := range coalition {
				if id == m {
					// A colluder confirms anything about the coalition.
					return freerider.NewColluder(id, coalition, bias, dir, r)
				}
			}
			return nil
		},
		ExpelOnDetection: true,
	}

	c := cluster.New(opts)
	var outcomes []core.AuditOutcome
	auditor := c.Auditor(func(out core.AuditOutcome) { outcomes = append(outcomes, out) })
	c.Start()
	c.StartStream(streamFor)

	// Audit every coalition member and a few honest nodes once histories
	// have filled (audits are sporadic and run over TCP, §5.3).
	c.After(streamFor*4/5, func() {
		for _, m := range coalition {
			auditor.Audit(m)
		}
		for _, honest := range []msg.NodeID{10, 20, 30} {
			auditor.Audit(honest)
		}
	})
	c.Run(streamFor + 3*time.Second)

	pm := analysis.MaxCollusionBias(gamma, len(coalition), 50*7)
	fmt.Fprintf(w, "coalition of %d, biasing %.0f%% of pushes toward itself.\n", len(coalition), bias*100)
	fmt.Fprintf(w, "Equation 7: at γ = %.2f a coalition this size could hide a bias of at most\n", gamma)
	fmt.Fprintf(w, "p*m = %.0f%%, so %.0f%% must fail the entropy check.\n\n", pm*100, bias*100)

	fmt.Fprintln(w, "audit outcomes:")
	fmt.Fprintln(w, "node  role      fanout-H  fanin-H  unconfirmed  verdict")
	for _, out := range outcomes {
		role := "honest"
		for _, m := range coalition {
			if out.Target == m {
				role = "colluder"
			}
		}
		verdict := "pass"
		if out.Expel {
			verdict = "EXPEL"
		}
		fmt.Fprintf(w, "%4d  %-8s  %8.2f  %7.2f  %11d  %s\n",
			out.Target, role, out.FanoutEntropy, out.FaninEntropy, out.Unconfirmed, verdict)
	}

	for _, m := range coalition {
		if _, gone := c.Expelled[m]; gone {
			expelled++
		}
	}
	fmt.Fprintf(w, "\nexpelled %d/%d colluders; honest audits passed: the randomness of partner\n",
		expelled, len(coalition))
	fmt.Fprintln(w, "selection is exactly what makes covering each other up statistically visible.")
	return expelled
}
