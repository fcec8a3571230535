// Quickstart: a 64-node gossip broadcast policed by LiFTinG.
//
// Four nodes freeride by 30% in every dimension (fanout, propose, serve).
// The example streams for 20 seconds of virtual time, then prints each
// population's score statistics and who got expelled.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

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
	run(os.Stdout, 64, 4, 20*time.Second)
}

// run executes the scenario at the given scale and returns the two
// populations' mean scores plus how many freeriders were expelled.
func run(w io.Writer, nodes, freeriders int, duration time.Duration) (honestMean, riderMean float64, detected int) {
	const tg = 500 * time.Millisecond
	opts := cluster.Options{
		N:      nodes,
		Seed:   7,
		Gossip: gossip.Config{F: 7, Period: tg, HistoryPeriods: 50},
		// Fanout, period and history horizon are Gossip's; the verifier
		// adds its own knobs.
		Core: core.Config{
			Pdcc:  1, // always cross-check
			Gamma: 8.95,
		},
		Rep:          reputation.Config{M: 10},
		Stream:       stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		NetDefaults:  net.Uniform(0.04, 5*time.Millisecond), // 4% UDP loss
		LiFTinG:      true,
		ExpectedLoss: 0.04,
		BehaviorFor: func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if int(id) >= nodes-freeriders {
				return freerider.Degree{Delta1: 0.3, Delta2: 0.3, Delta3: 0.3}
			}
			return nil
		},
	}

	// Calibrate the wrongful-blame compensation from an honest pilot, then
	// expel anyone whose normalized score drops below η. Nothing cancels the
	// example, so the background context does.
	cal, err := cluster.Calibrate(context.Background(), opts, duration)
	if err != nil {
		panic(err)
	}
	opts.Rep.Compensation = cal.Compensation
	opts.Rep.Eta = -4 * cal.ScoreStd
	opts.ExpelOnDetection = true

	c := cluster.New(opts)
	c.Start()
	c.StartStream(duration)
	c.Run(duration + 2*tg)

	fmt.Fprintf(w, "compensation b̃ = %.2f blame/period (calibrated), η = %.2f\n\n",
		cal.Compensation, opts.Rep.Eta)
	fmt.Fprintln(w, "node  role       score     expelled")
	scores := c.Scores()
	var honestSum, riderSum float64
	for i := 1; i < nodes; i++ {
		id := msg.NodeID(i)
		role := "honest"
		if c.Freeriders[id] {
			role = "freerider"
			riderSum += scores[id]
		} else {
			honestSum += scores[id]
		}
		if c.Freeriders[id] || i%16 == 0 { // print all freeriders, a few honest
			expelled := ""
			if at, ok := c.Expelled[id]; ok {
				expelled = fmt.Sprintf("at %v", at.Round(time.Second))
			}
			fmt.Fprintf(w, "%4d  %-9s  %8.2f  %s\n", i, role, scores[id], expelled)
		}
	}
	honestMean = honestSum / float64(nodes-1-freeriders)
	riderMean = riderSum / float64(freeriders)
	fmt.Fprintf(w, "\nhonest mean score    %8.2f\n", honestMean)
	fmt.Fprintf(w, "freerider mean score %8.2f\n", riderMean)

	for id := range c.Expelled {
		if c.Freeriders[id] {
			detected++
		}
	}
	fmt.Fprintf(w, "\nexpelled %d/%d freeriders, %d honest nodes\n",
		detected, freeriders, len(c.Expelled)-detected)
	fmt.Fprintln(w, "(an expelled node's displayed score recovers over time: blaming stops")
	fmt.Fprintln(w, " once it is out — detection acts on the score at expulsion time; the")
	fmt.Fprintln(w, " few honest expulsions mirror the paper's §7.3 false positives)")
	return honestMean, riderMean, detected
}
