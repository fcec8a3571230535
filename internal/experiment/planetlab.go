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
	"lifting/internal/runtime"
	"lifting/internal/stats"
	"lifting/internal/stream"
)

// planetLabParams are the §7 deployment's size, seed and stream length:
// 300 nodes streaming 35 s (-quick: 100 nodes, 20 s).
var planetLabParams = Params{N: 300, Seed: 42, Duration: 35 * time.Second, Delta: -1, Pdcc: -1}

// planetLabQuick is what -quick shrinks the §7 deployment to.
var planetLabQuick = Params{N: 100, Duration: 20 * time.Second}

// freeriderShare is the §7 deployment's freerider share.
const freeriderShare = 0.10

// deployment is the §7 PlanetLab deployment at the resolved params' size,
// seed and stream length: 674 kbps, fanout 7, Tg = 500 ms, M = 25 managers,
// 10% freeriders of degree (1/7, 0.1, 0.1) in the top ids, mean loss 4%
// with a tail of poorly connected nodes, blames batched over 10 periods. A
// non-negative p.Pdcc overrides pdcc = 1.
func deployment(p Params) workload {
	pdcc := 1.0
	if p.Pdcc >= 0 {
		pdcc = p.Pdcc
	}
	return workload{
		cohort: cohortOf(p.N, freeriderShare, degree(1.0/7, 0.1, 0.1)),
		seed:   p.Seed,
		gossip: gossip.Config{F: 7, Period: 500 * time.Millisecond},
		core:   core.Config{Pdcc: pdcc, Gamma: paperGamma},
		// Blames are reported to the managers every 10 gossip periods:
		// scores act on the r ≈ 50-period timescale, and per-period
		// reporting to M = 25 managers would alone exceed the paper's
		// measured blaming overhead (Table 5).
		rep: reputation.Config{M: 25, Eta: paperEta, FlushEvery: 10},
		// The mean loss PlanetLab measured (§7).
		net: net.Uniform(0.04, 20*time.Millisecond),
		// Heterogeneity: a tenth of the honest nodes suffer doubled loss and
		// high latency jitter — they cannot contribute their fair share even
		// though they follow the protocol (§7.3's false-positive population).
		poor:     0.10,
		stream:   p.Duration,
		backends: []runtime.Kind{runtime.KindSim},
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

// fig14Workloads are Figure 14's runs: the deployment at the paper's
// pdcc = 1 and 0.5, or at the one pdcc an override pins, its blames reported
// every period. The pilot supplies b̃ only; η is placed from the run's own
// scores (fig14Run), and a snapshot of scores that still miss up to ten
// periods of batched blame reads each honest node about b̃·10/r too high —
// at FlushEvery 10 it places η above zero.
func fig14Workloads(p Params) []workload {
	pdccs := []float64{1, 0.5}
	if p.Pdcc >= 0 {
		pdccs = []float64{p.Pdcc}
	}
	var ws []workload
	for _, pdcc := range pdccs {
		w := deployment(p)
		w.core.Pdcc = pdcc
		w.rep.FlushEvery = 1
		w.pilot = w.stream
		ws = append(ws, w)
	}
	return ws
}

// fig14Run streams one pdcc value of Figure 14 and snapshots the score CDFs
// 10 s and 5 s before the end of the stream and at its end — after 25, 30
// and 35 seconds at the paper's stream length. The paper's anchor: with
// pdcc = 1 after 30 s, 86% of freeriders are below the threshold and 12% of
// honest nodes (mostly the poorly connected tail) sit below it too;
// pdcc = 0.5 at 35 s looks like pdcc = 1 at 30 s.
//
// Compensation is calibrated from an honest pilot run (our chunk workload
// is lighter than the saturated analysis model; the paper instead
// compensates analytically from the measured 4% loss).
func fig14Run(ctx context.Context, w workload) (*Table, []fig14Snapshot, error) {
	var at []time.Duration
	for _, before := range []time.Duration{10 * time.Second, 5 * time.Second, 0} {
		at = append(at, max(w.stream-before, 0))
	}
	// The detection threshold is placed from the observed mixture at the
	// first snapshot, at the quantile expected to be flagged: freeriders
	// plus the poorly connected tail. The paper arrives at its fixed
	// η = −9.75 the same way — from the empirical score CDF of Figure 11 —
	// and accepts ≈12% honest flags, "most of them nodes whose decreased
	// contribution is due to poor capabilities" (§7.3).
	var eta float64
	var snaps []fig14Snapshot
	o, err := w.run(ctx, nil, hooks{at: at, each: func(c *cluster.Cluster, si int) {
		var snap fig14Snapshot
		scores := c.Scores()
		if si == 0 {
			all := make([]float64, 0, w.n-1)
			for i := 1; i < w.n; i++ {
				all = append(all, scores[msg.NodeID(i)])
			}
			eta = stats.NewECDF(all).Quantile(freeriderShare + w.poor)
		}
		for i := 1; i < w.n; i++ {
			id := msg.NodeID(i)
			s := scores[id]
			if w.has(id) {
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
	}})
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title: "Figure 14 — score CDF snapshots (pdcc = " + F(w.core.Pdcc, 2) + ", η = " + F(eta, 2) + ")",
		Columns: []string{
			"time", "detection", "false positives", "paper (pdcc=1 @30s)",
		},
	}
	for i, s := range snaps {
		t.AddRow(at[i].String(), Pct(s.Detection), Pct(s.FalsePositives), "86% / 12%")
	}
	t.Notes = append(t.Notes,
		"compensation calibrated to "+F(o.cal.Compensation, 2)+" per period (honest pilot)",
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
	workloads:     fig14Workloads,
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		for _, w := range fig14Workloads(p) {
			tab, snaps, err := fig14Run(ctx, w)
			if err != nil {
				return err
			}
			out.addTable(obs, tab)
			last, pdcc := snaps[len(snaps)-1], F(w.core.Pdcc, 2)
			out.addMetric("detection@pdcc="+pdcc, last.Detection)
			out.addMetric("false-positives@pdcc="+pdcc, last.FalsePositives)
		}
		return nil
	},
}

// fig1Curves are Figure 1's three scenarios over the deployment.
var fig1Curves = []struct {
	name, metric string
	freeriders   float64
	behavior     behaviorFunc
	lifting      bool
}{
	{"no freeriders", "health-no-freeriders", 0, nil, false},
	// No verification: rational freeriders decrease their contribution "as
	// much as possible" (§1) — to nothing.
	{"25% freeriders", "health-freeriders", 0.25, degree(1, 1, 1), false},
	// Coerced: wise freeriders keep P(caught) < 50% → δ = 0.035.
	{"25% freeriders + LiFTinG", "health-lifting", 0.25, degree(0.035, 0.035, 0.035), true},
}

// fig1Lags are the stream lags Figure 1 reads health at: from 0 to the
// stream length in 5 s steps.
func fig1Lags(streamed time.Duration) []time.Duration {
	var lags []time.Duration
	for s := 0; s <= int(streamed/time.Second); s += 5 {
		lags = append(lags, time.Duration(s)*time.Second)
	}
	return lags
}

// fig1Workloads are Figure 1's curves: the deployment without its poorly
// connected tail (Figure 1 isolates the freeriding effect), LiFTinG on or
// off over each curve's cohort, playout tracked and run on past the stream
// by the longest lag.
func fig1Workloads(p Params) []workload {
	lags := fig1Lags(p.Duration)
	var ws []workload
	for _, cv := range fig1Curves {
		w := deployment(p)
		w.cohort = cohortOf(p.N, cv.freeriders, cv.behavior)
		w.poor, w.playout, w.unpoliced = 0, true, !cv.lifting
		// Finite upload capacity: every node's uplink is twice the stream
		// rate. The system fits when everyone contributes (demand ≈ 1× per
		// node) but not when 25% leech (honest demand rises by a third, and
		// burstiness beyond that) — the regime in which Figure 1's middle
		// curve collapses. PlanetLab itself imposed this constraint
		// physically. The broadcast source is provisioned separately.
		w.uplink = 2
		w.tail = lags[len(lags)-1]
		if cv.lifting {
			w.pilot, w.sigmas, w.expel = 10*time.Second, 2.5, true
		}
		ws = append(ws, w)
	}
	return ws
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
	workloads:     fig1Workloads,
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		lags := fig1Lags(p.Duration)
		final := make([]float64, len(fig1Curves))
		drops := 0
		for i, w := range fig1Workloads(p) {
			cv := fig1Curves[i]
			o, err := w.run(ctx, nil, hooks{})
			if err != nil {
				return err
			}
			h := health(o.c, w.stream, lags)
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
					drops++
				}
			}
		}
		// The baseline reaches (almost) everyone; hard freeriding without
		// LiFTinG collapses the system (the middle curve); with LiFTinG the
		// coerced freeriders leave health near the baseline and far above
		// the collapse.
		base, collapsed, policed := final[0], final[1], final[2]
		out.check("health drops along lag", "sanity", count(drops), incl(0), incl(0))
		out.check("health, no freeriders", "§7.3", num(base, 3), incl(0.85), none)
		out.check("health, 25% freeriders", "§7.3", num(collapsed, 3), none, incl(base-0.15))
		out.check("health with LiFTinG vs 25% freeriders", "§7.3", num(policed, 3), incl(collapsed+0.1), none)
		out.check("health with LiFTinG vs no freeriders", "§7.3", num(policed, 3), incl(base-0.2), none)
		return nil
	},
}
