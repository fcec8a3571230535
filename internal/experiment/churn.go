package experiment

import (
	"context"
	"time"

	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stats"
)

// churnWorkload declares churn's one run: 20 joins and 20 honest leavers
// (-quick: 6 and 6), a tenth of the initial population freeriding mildly on
// every prong.
func churnWorkload(p Params) workload {
	churned := 20
	if p.Quick {
		churned = 6
	}
	co := cohortOf(p.N, 0.10, degree(0.3, 0.3, 0.3))
	tg := 500 * time.Millisecond
	return workload{
		cohort:  co,
		seed:    p.Seed,
		backend: p.backend(),
		shards:  p.Shards,
		gossip:  gossip.Config{F: 7, Period: tg},
		core:    core.Config{Pdcc: 1, Gamma: 8},
		// M = 10 managers per node. Nothing is expelled: the subject is
		// whether the separation survives, read off the surviving
		// population's scores.
		rep:      reputation.Config{M: 10, Eta: -1e9},
		net:      net.Uniform(0.02, 5*time.Millisecond),
		stream:   p.Duration,
		tail:     tg,
		joins:    churned,
		leavers:  co.drawLeavers(rng.New(p.Seed).Derive("churn"), churned),
		backends: []runtime.Kind{runtime.KindSim, runtime.KindUDP},
	}
}

// churn is the churn workload: a LiFTinG-policed broadcast in which nodes
// join and leave mid-stream. The paper deploys on a static membership (§2
// assumes a full-membership view); churn is the natural next workload for
// the reproduction — arrivals must catch up with the stream, departures must
// not strand score state, and the reputation managers must hand their
// duties off as the membership shifts. 120 nodes stream 30 s with 20 joins
// and 20 leaves, spread uniformly over the middle half of the run (-quick:
// 50 nodes, 8 s, 6 and 6). It runs identically on the discrete-event engine
// and over loopback UDP sockets.
var churn = Experiment{
	Name: "churn", Paper: "beyond the paper — churn workload",
	Describe:      "joins and leaves mid-stream with reputation-manager handoff",
	DefaultParams: Params{N: 120, Seed: 17, Duration: 30 * time.Second, Delta: -1, Pdcc: -1},
	quick:         Params{N: 50, Duration: 8 * time.Second},
	workloads:     func(p Params) []workload { return []workload{churnWorkload(p)} },
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		w := churnWorkload(p)
		o, err := w.run(ctx, nil, hooks{})
		if err != nil {
			return err
		}
		c, joins, leaves := o.c, w.joins, len(w.leavers)
		joined, departed, handoffs, alive := len(c.Joined), len(c.Departed), c.Handoffs(), c.Dir.NAlive()
		// catchUp is the distribution over arrivals of (chunks received) /
		// (chunks generated after the join). Arrivals come in ascending id
		// order: the Moments mean is a float fold, so the order is part of
		// the result.
		var catchUp stats.Moments
		totalChunks := c.Opts.Stream.ChunksBy(w.stream)
		for i, id := range o.arrivals {
			node, ok := c.Nodes[id]
			if !ok {
				// Under the udp backend a join timer due near the end of the
				// run can be suppressed by Close; the arrival never existed.
				continue
			}
			generatedAfter := totalChunks - c.Opts.Stream.ChunksBy(o.joinAt[i])
			if generatedAfter <= 0 {
				continue
			}
			catchUp.Add(min(float64(node.ChunkCount())/float64(generatedAfter), 1))
		}
		// The min-vote score means over the surviving population.
		scores := c.Scores()
		var honestMean, riderMean float64
		var nh, nr int
		for _, id := range c.Dir.All() {
			if id == 0 || !c.Dir.Alive(id) {
				continue
			}
			if w.has(id) {
				riderMean += scores[id]
				nr++
			} else {
				honestMean += scores[id]
				nh++
			}
		}
		if nh > 0 {
			honestMean /= float64(nh)
		}
		if nr > 0 {
			riderMean /= float64(nr)
		}

		t := &Table{
			Title:   "Churn — joins/leaves mid-stream with manager handoff (backend " + w.backend.String() + ")",
			Columns: []string{"quantity", "value"},
		}
		t.AddRow("initial population", F(float64(p.N), 0))
		t.AddRow("joined mid-stream", F(float64(joined), 0))
		t.AddRow("departed mid-stream", F(float64(departed), 0))
		t.AddRow("alive at end", F(float64(alive), 0))
		t.AddRow("manager handoffs", F(float64(handoffs), 0))
		t.AddRow("arrival catch-up (mean)", Pct(catchUp.Mean()))
		t.AddRow("honest mean score", F(honestMean, 2))
		t.AddRow("freerider mean score", F(riderMean, 2))
		t.AddRow("separation gap", F(honestMean-riderMean, 2))
		t.Notes = append(t.Notes,
			"arrivals catch up on chunks generated after their join (infect-and-die does not replay history)",
			"manager duties migrate on every membership change; kept managers push their score copies to gained ones, which take the most pessimistic")
		out.addTable(obs, t)
		out.addMetric("joined", float64(joined))
		out.addMetric("departed", float64(departed))
		out.addMetric("handoffs", float64(handoffs))
		out.addMetric("catch-up", catchUp.Mean())
		out.addMetric("score-gap", honestMean-riderMean)

		// Every scheduled change happens, the managers hand off — about M
		// slots per change, so at most 5·M per join or leave, not the N·M a
		// re-dealt assignment would move on every join — arrivals catch up
		// on at least half the stream after their join, and the separation
		// survives.
		if joined != joins || departed != leaves {
			out.fail("churn events incomplete: joined %d of %d, departed %d of %d", joined, joins, departed, leaves)
		}
		if want := p.N + joins - leaves; alive != want {
			out.fail("alive at end = %d, want %d (%d in, %d out)", alive, want, joins, leaves)
		}
		if bound := 5 * w.rep.M * (joins + leaves); handoffs == 0 || handoffs > bound {
			out.fail("%d manager handoffs for %d joins and %d leaves, want within [1, %d]", handoffs, joins, leaves, bound)
		}
		if m := catchUp.Mean(); m < 0.5 {
			out.fail("arrivals caught only %.0f%% of the post-join stream, want ≥ 50%%", 100*m)
		}
		if riderMean >= honestMean {
			out.fail("separation lost under churn: honest %.2f vs freeriders %.2f", honestMean, riderMean)
		}
		return nil
	},
}
