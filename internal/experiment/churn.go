package experiment

import (
	"context"
	"time"

	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stats"
	"lifting/internal/stream"
)

// ChurnConfig describes the churn workload: a LiFTinG-policed broadcast in
// which nodes join and leave mid-stream. The paper deploys on a static
// membership (§2 assumes a full-membership view); churn is the natural next
// workload for the reproduction — arrivals must catch up with the stream,
// departures must not strand score state, and the reputation managers must
// hand their duties off as the membership shifts.
type ChurnConfig struct {
	// N is the initial population.
	N int
	// Joins and Leaves are the number of mid-stream arrivals/departures,
	// spread uniformly over the middle half of the run.
	Joins, Leaves int
	Duration      time.Duration
	Seed          uint64
	// Backend selects the execution backend; churn runs identically on the
	// discrete-event engine and over loopback UDP sockets.
	Backend runtime.Kind
	// Shards is the engine shard count (sim backend only; same semantics as
	// ScaleConfig.Shards).
	Shards int
}

// DefaultChurnConfig returns a medium-scale churn scenario.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		N:        120,
		Joins:    20,
		Leaves:   20,
		Duration: 30 * time.Second,
		Seed:     17,
	}
}

// ChurnResult aggregates the run.
type ChurnResult struct {
	Joined, Departed int
	// Handoffs counts reputation-manager state transfers.
	Handoffs int
	// CatchUp is the distribution over arrivals of (chunks received) /
	// (chunks generated after the join).
	CatchUp stats.Moments
	// HonestMean and FreeriderMean are the min-vote score means over the
	// surviving population.
	HonestMean, FreeriderMean float64
	// AliveEnd is the population size at the end.
	AliveEnd int
}

// Churn runs the churn scenario and reports whether LiFTinG's separation
// survives a shifting membership. Cancelling ctx aborts the run mid-stream.
func Churn(ctx context.Context, cfg ChurnConfig) (*Table, *ChurnResult, error) {
	// A tenth of the initial population freerides mildly on every prong.
	co := cohortOf(cfg.N, 0.10, degree(0.3, 0.3, 0.3))
	opts := cluster.Options{
		N:       cfg.N,
		Seed:    cfg.Seed,
		Backend: cfg.Backend,
		Shards:  cfg.Shards,
		Gossip:  gossip.Config{F: 7, Period: 500 * time.Millisecond, HistoryPeriods: 50},
		Core:    core.Config{Pdcc: 1, Gamma: 8},
		// M = 10 managers per node; blames travel as messages (the handoff
		// path). Nothing is expelled: the subject is whether the separation
		// survives, read off the surviving population's scores.
		Rep:         reputation.Config{M: 10, Eta: -1e9},
		Stream:      stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		NetDefaults: net.Uniform(0.02, 5*time.Millisecond),
		LiFTinG:     true,
		BlameMode:   cluster.BlameMessages,
		BehaviorFor: co.behaviorFor(),
	}
	c := launch(opts, cfg.Duration, nil)
	arrivals, joinAt := scheduleChurn(c, cfg.Duration, cfg.Joins,
		co.drawLeavers(rng.New(cfg.Seed).Derive("churn"), cfg.Leaves))
	if err := advance(ctx, c, nil, cfg.Duration+opts.Gossip.Period); err != nil {
		return nil, nil, err
	}

	res := &ChurnResult{
		Joined:   len(c.Joined),
		Departed: len(c.Departed),
		Handoffs: c.Handoffs(),
		AliveEnd: c.Dir.NAlive(),
	}
	totalChunks := opts.Stream.ChunksBy(cfg.Duration)
	// Arrivals come in ascending id order: the Moments mean is a float
	// fold, so the order is part of the result.
	for i, id := range arrivals {
		node, ok := c.Nodes[id]
		if !ok {
			// Under the udp backend a join timer due near the end of the
			// run can be suppressed by Close; the arrival never existed.
			continue
		}
		missed := opts.Stream.ChunksBy(joinAt[i])
		generatedAfter := totalChunks - missed
		if generatedAfter <= 0 {
			continue
		}
		ratio := float64(node.ChunkCount()) / float64(generatedAfter)
		if ratio > 1 {
			ratio = 1
		}
		res.CatchUp.Add(ratio)
	}
	scores := c.Scores()
	var nh, nr int
	for _, id := range c.Dir.All() {
		if id == 0 || !c.Dir.Alive(id) {
			continue
		}
		if co.has(id) {
			res.FreeriderMean += scores[id]
			nr++
		} else {
			res.HonestMean += scores[id]
			nh++
		}
	}
	if nh > 0 {
		res.HonestMean /= float64(nh)
	}
	if nr > 0 {
		res.FreeriderMean /= float64(nr)
	}

	t := &Table{
		Title:   "Churn — joins/leaves mid-stream with manager handoff (backend " + cfg.Backend.String() + ")",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("initial population", F(float64(cfg.N), 0))
	t.AddRow("joined mid-stream", F(float64(res.Joined), 0))
	t.AddRow("departed mid-stream", F(float64(res.Departed), 0))
	t.AddRow("alive at end", F(float64(res.AliveEnd), 0))
	t.AddRow("manager handoffs", F(float64(res.Handoffs), 0))
	t.AddRow("arrival catch-up (mean)", Pct(res.CatchUp.Mean()))
	t.AddRow("honest mean score", F(res.HonestMean, 2))
	t.AddRow("freerider mean score", F(res.FreeriderMean, 2))
	t.AddRow("separation gap", F(res.HonestMean-res.FreeriderMean, 2))
	t.Notes = append(t.Notes,
		"arrivals catch up on chunks generated after their join (infect-and-die does not replay history)",
		"manager duties migrate on every membership change; gaining managers adopt the most pessimistic replica")
	return t, res, nil
}
