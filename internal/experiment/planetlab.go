package experiment

import (
	"context"
	"time"

	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/stats"
	"lifting/internal/stream"
)

// PlanetLabConfig describes the §7 deployment scenario: 300 nodes, 674 kbps
// stream, fanout 7, Tg = 500 ms, M = 25 managers, 10% freeriders of degree
// (1/7, 0.1, 0.1), mean loss 4% with a tail of poorly connected nodes.
type PlanetLabConfig struct {
	N            int
	BitrateBps   int
	FreeriderPct float64
	Delta        [3]float64
	Pdcc         float64
	// PoorPct is the fraction of honest nodes with degraded connectivity
	// (higher loss, capped uplink) — the population behind the paper's
	// false positives (§7.3).
	PoorPct float64
	Seed    uint64
	// Duration is the streamed time.
	Duration time.Duration
}

// planetLabParams are the §7 deployment's size, seed and stream length:
// 300 nodes streaming 35 s (-quick: 100 nodes, 20 s).
var planetLabParams = Params{N: 300, Seed: 42, Duration: 35 * time.Second, Delta: -1, Pdcc: -1}

// planetLabQuick is what -quick shrinks the §7 deployment to.
var planetLabQuick = Params{N: 100, Duration: 20 * time.Second}

// planetLab returns the paper's deployment scenario at the resolved params'
// size, seed and stream length; a non-negative p.Pdcc overrides pdcc = 1.
func planetLab(p Params) PlanetLabConfig {
	pl := PlanetLabConfig{
		N:            p.N,
		BitrateBps:   674_000,
		FreeriderPct: 0.10,
		Delta:        [3]float64{1.0 / 7, 0.1, 0.1},
		Pdcc:         1,
		PoorPct:      0.10,
		Seed:         p.Seed,
		Duration:     p.Duration,
	}
	if p.Pdcc >= 0 {
		pl.Pdcc = p.Pdcc
	}
	return pl
}

// cohort is the scenario's freerider share: the highest node ids.
func (p PlanetLabConfig) cohort() cohort {
	return cohortOf(p.N, p.FreeriderPct, degree(p.Delta[0], p.Delta[1], p.Delta[2]))
}

// buildOptions assembles cluster options for the scenario. Poor honest
// nodes are drawn from the seed as ConditionsFor is called, node by node: the
// closure is stateful, so a calibration pilot and the run it calibrates must
// share one returned value, pilot first.
func (p PlanetLabConfig) buildOptions() cluster.Options {
	co := p.cohort()
	// Heterogeneity: a PoorPct tail of honest nodes suffers triple loss and
	// a capped uplink — they cannot contribute their fair share even though
	// they follow the protocol (§7.3's false-positive population).
	poor := rng.New(p.Seed).Derive("poor")
	// The mean loss PlanetLab measured (§7).
	const loss = 0.04
	return cluster.Options{
		N:      p.N,
		Seed:   p.Seed,
		Gossip: gossip.Config{F: 7, Period: 500 * time.Millisecond, HistoryPeriods: 50},
		Core:   core.Config{Pdcc: p.Pdcc, Gamma: paperGamma},
		// Blames are reported to the managers every 10 gossip periods:
		// scores act on the r ≈ 50-period timescale, and per-period
		// reporting to M = 25 managers would alone exceed the paper's
		// measured blaming overhead (Table 5).
		Rep: reputation.Config{M: 25, Eta: paperEta, FlushEvery: 10},
		// The chunk rate is held constant across stream rates (≈64 chunks/s,
		// as in the paper's streaming substrate [6]): a faster stream means
		// bigger chunks, not more of them. This is why Table 5's overhead
		// falls as the bitrate grows — verification traffic depends on the
		// chunk rate only.
		Stream:      stream.Config{BitrateBps: p.BitrateBps, ChunkPayload: 1316 * p.BitrateBps / 674_000},
		NetDefaults: net.Uniform(loss, 20*time.Millisecond),
		LiFTinG:     true,
		BehaviorFor: co.behaviorFor(),
		ConditionsFor: func(id msg.NodeID) (net.Conditions, bool) {
			if id == 0 || co.has(id) {
				return net.Conditions{}, false
			}
			if poor.Bernoulli(p.PoorPct) {
				// Doubled loss and high latency jitter: blamed like a mild
				// freerider (§7.3: the false positives "do not deliberately
				// freeride, but their connection does not allow them to
				// contribute their fair share").
				c := net.Uniform(2*loss, 60*time.Millisecond)
				c.LatencyJitter = 60 * time.Millisecond
				return c, true
			}
			return net.Conditions{}, false
		},
	}
}

// health is the fraction of nodes 1..N−1 (the source plays its own stream)
// viewing a clear stream at each lag, over the chunks of the first
// streamed − 1 s. The cluster must have tracked playout.
func health(c *cluster.Cluster, streamed time.Duration, lags []time.Duration) []float64 {
	playouts := make([]*stream.Playout, 0, c.Opts.N-1)
	for i := 1; i < c.Opts.N; i++ {
		playouts = append(playouts, c.Playouts[msg.NodeID(i)])
	}
	return stream.Health(playouts, c.Opts.Stream.ChunksBy(streamed-time.Second), lags)
}

// fig14Snapshot is one CDF snapshot of Figure 14.
type fig14Snapshot struct {
	Honest    []float64
	Freerider []float64
	// Detection and FalsePositives at the calibrated threshold.
	Detection      float64
	FalsePositives float64
}

// fig14Run streams one pdcc value of Figure 14 and snapshots the score CDFs
// 10 s and 5 s before the end of the stream and at its end — after 25, 30
// and 35 seconds at the paper's stream length. The paper's anchor: with
// pdcc = 1 after 30 s, 86% of freeriders are below the threshold and 12% of
// honest nodes (mostly the poorly connected tail) sit below it too;
// pdcc = 0.5 at 35 s looks like pdcc = 1 at 30 s.
//
// Compensation and the threshold are calibrated from an honest pilot run
// (our chunk workload is lighter than the saturated analysis model; the
// paper instead compensates analytically from the measured 4% loss).
func fig14Run(ctx context.Context, p PlanetLabConfig) (*Table, []fig14Snapshot, error) {
	var at []time.Duration
	for _, before := range []time.Duration{10 * time.Second, 5 * time.Second, 0} {
		at = append(at, max(p.Duration-before, 0))
	}
	// One options value for pilot and run, in that order (see buildOptions).
	// The pilot supplies b̃ only; η is placed below.
	opts := p.buildOptions()
	cal, _, err := calibrate(ctx, opts, p.Duration, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	opts.Rep.Compensation = cal.Compensation
	opts.BlameMode = cluster.BlameDirect
	c := launch(opts, p.Duration+time.Second, nil)

	// The detection threshold is placed from the observed mixture at the
	// first snapshot, at the quantile expected to be flagged: freeriders
	// plus the poorly connected tail. The paper arrives at its fixed
	// η = −9.75 the same way — from the empirical score CDF of Figure 11 —
	// and accepts ≈12% honest flags, "most of them nodes whose decreased
	// contribution is due to poor capabilities" (§7.3).
	var eta float64
	co := p.cohort()
	var snaps []fig14Snapshot
	err = advance(ctx, c, func(si int) {
		var snap fig14Snapshot
		scores := c.Scores()
		if si == 0 {
			all := make([]float64, 0, p.N-1)
			for i := 1; i < p.N; i++ {
				all = append(all, scores[msg.NodeID(i)])
			}
			eta = stats.NewECDF(all).Quantile(p.FreeriderPct + p.PoorPct)
		}
		for i := 1; i < p.N; i++ {
			id := msg.NodeID(i)
			s := scores[id]
			if co.has(id) {
				snap.Freerider = append(snap.Freerider, s)
				if s < eta {
					snap.Detection++
				}
			} else {
				snap.Honest = append(snap.Honest, s)
				if s < eta {
					snap.FalsePositives++
				}
			}
		}
		if len(snap.Freerider) > 0 {
			snap.Detection /= float64(len(snap.Freerider))
		}
		if len(snap.Honest) > 0 {
			snap.FalsePositives /= float64(len(snap.Honest))
		}
		snaps = append(snaps, snap)
	}, at...)
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title: "Figure 14 — score CDF snapshots (pdcc = " + F(p.Pdcc, 2) + ", η = " + F(eta, 2) + ")",
		Columns: []string{
			"time", "detection", "false positives", "paper (pdcc=1 @30s)",
		},
	}
	for i, s := range snaps {
		t.AddRow(at[i].String(), Pct(s.Detection), Pct(s.FalsePositives), "86% / 12%")
	}
	t.Notes = append(t.Notes,
		"compensation calibrated to "+F(cal.Compensation, 2)+" per period (honest pilot)",
		"false positives concentrate on the poorly connected tail, as in §7.3")
	return t, snaps, nil
}

// fig14 runs Figure 14 at the paper's pdcc = 1 and 0.5, or at the one pdcc
// an override pins. Its verdict always passes: on one seed the late
// false-positive rate sits at the edge of any bound worth stating, so its
// gate waits for seeded repetitions (ROADMAP item 11(b)).
var fig14 = Experiment{
	Name: "fig14", Paper: "§7.3, Figure 14",
	Describe:      "score CDF snapshots over time on the heterogeneous deployment",
	DefaultParams: planetLabParams,
	quick:         planetLabQuick,
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		pdccs := []float64{1, 0.5}
		if p.Pdcc >= 0 {
			pdccs = []float64{p.Pdcc}
		}
		pl := planetLab(p)
		for _, pd := range pdccs {
			pl.Pdcc = pd
			tab, snaps, err := fig14Run(ctx, pl)
			if err != nil {
				return err
			}
			out.addTable(obs, tab)
			last := snaps[len(snaps)-1]
			out.addMetric("detection@pdcc="+F(pd, 2), last.Detection)
			out.addMetric("false-positives@pdcc="+F(pd, 2), last.FalsePositives)
		}
		return nil
	},
}

// fig1 reproduces Figure 1: the fraction of nodes viewing a clear stream as
// a function of the stream lag, for (a) no freeriders, (b) 25% freeriders
// without LiFTinG — the system collapses, and (c) 25% freeriders policed by
// LiFTinG — wise freeriders can only deviate marginally (δ = 0.035 keeps
// P(caught) < 50%, §6.3.1) and the aggressive ones are expelled, so the
// curve stays near the baseline. Lags run from 0 to the stream length in
// 5 s steps.
var fig1 = Experiment{
	Name: "fig1", Paper: "§1/§7.3, Figure 1",
	Describe:      "stream health vs lag: baseline, unpoliced freeriders, LiFTinG",
	DefaultParams: Params{N: planetLabParams.N, Seed: planetLabParams.Seed, Duration: 45 * time.Second, Delta: -1, Pdcc: -1},
	quick:         planetLabQuick,
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		pl := planetLab(p)
		pl.PoorPct = 0 // Figure 1 isolates the freeriding effect
		var lags []time.Duration
		for s := 0; s <= int(pl.Duration/time.Second); s += 5 {
			lags = append(lags, time.Duration(s)*time.Second)
		}
		curves := []struct {
			name, metric string
			freeriders   float64
			delta        [3]float64
			lifting      bool
		}{
			{"no freeriders", "health-no-freeriders", 0, pl.Delta, false},
			// No verification: rational freeriders decrease their
			// contribution "as much as possible" (§1) — to nothing.
			{"25% freeriders", "health-freeriders", 0.25, [3]float64{1, 1, 1}, false},
			// Coerced: wise freeriders keep P(caught) < 50% → δ = 0.035.
			{"25% freeriders + LiFTinG", "health-lifting", 0.25, [3]float64{0.035, 0.035, 0.035}, true},
		}
		final := make([]float64, len(curves))
		for i, cv := range curves {
			pc := pl
			pc.FreeriderPct, pc.Delta = cv.freeriders, cv.delta
			h, err := fig1Curve(ctx, pc, cv.lifting, lags)
			if err != nil {
				return err
			}
			t := &Table{
				Title:   "Figure 1 — fraction of nodes viewing a clear stream vs stream lag (scenario " + cv.name + ")",
				Columns: []string{"lag", "health"},
			}
			for j, lag := range lags {
				t.AddRow(lag.String(), F(h[j], 3))
			}
			out.addTable(obs, t)
			final[i] = h[len(h)-1]
			out.addMetric(cv.metric, final[i])
			for j := 1; j < len(h); j++ {
				if h[j] < h[j-1]-1e-9 {
					out.fail("health not monotone in lag for %s: %.3f at %s after %.3f", cv.name, h[j], lags[j], h[j-1])
					break
				}
			}
		}
		// The baseline reaches (almost) everyone; hard freeriding without
		// LiFTinG collapses the system (the middle curve); with LiFTinG the
		// coerced freeriders leave health near the baseline and far above
		// the collapse.
		base, collapsed, policed := final[0], final[1], final[2]
		if base < 0.85 {
			out.fail("baseline health = %.3f, want ≥ 0.85", base)
		}
		if collapsed > base-0.15 {
			out.fail("25%% hard freeriders did not hurt: health %.3f vs baseline %.3f", collapsed, base)
		}
		if policed < collapsed+0.1 {
			out.fail("LiFTinG did not restore health: %.3f vs collapsed %.3f", policed, collapsed)
		}
		if policed < base-0.2 {
			out.fail("LiFTinG health %.3f too far below baseline %.3f", policed, base)
		}
		return nil
	},
}

// fig1Curve streams one curve of Figure 1 — LiFTinG on or off over p's
// freerider cohort — and returns the health at each lag.
func fig1Curve(ctx context.Context, p PlanetLabConfig, lifting bool, lags []time.Duration) ([]float64, error) {
	opts := p.buildOptions()
	opts.TrackPlayout = true
	opts.LiFTinG = lifting

	// Finite upload capacity: every node's uplink is twice the stream rate.
	// The system fits when everyone contributes (demand ≈ 1× per node) but
	// not when 25% leech (honest demand rises by a third, and burstiness beyond that) — the regime in
	// which Figure 1's middle curve collapses. PlanetLab itself imposed
	// this constraint physically. The broadcast source is provisioned
	// separately (its f partners pull the whole stream from it).
	opts.NetDefaults.UplinkBps = 2.0 * float64(p.BitrateBps) / 8
	prevCond := opts.ConditionsFor
	opts.ConditionsFor = func(id msg.NodeID) (net.Conditions, bool) {
		if id == 0 {
			c := opts.NetDefaults
			c.UplinkBps = 0 // unlimited
			return c, true
		}
		return prevCond(id)
	}

	if lifting {
		cal, eta, err := calibrate(ctx, opts, 10*time.Second, 2.5, 0)
		if err != nil {
			return nil, err
		}
		opts.Rep.Compensation = cal.Compensation
		opts.Rep.Eta = eta
		opts.ExpelOnDetection = true
	}

	c := launch(opts, p.Duration, nil)
	if err := advance(ctx, c, nil, p.Duration+lags[len(lags)-1]); err != nil {
		return nil, err
	}
	return health(c, p.Duration, lags), nil
}
