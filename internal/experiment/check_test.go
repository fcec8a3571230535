package experiment

import (
	"context"
	"testing"

	"lifting/internal/runtime"
	"lifting/internal/stats"
)

// wantRow is one row a verdict must carry: its name and the range its
// value must stay in (excl: a bound the value may not reach).
type wantRow struct {
	name     string
	min, max bound
}

// TestVerdictRowsCarryListedBounds lists every bound the verdicts check —
// each condition, its comparison (strict or not) and its constant or
// computed bound — and runs every experiment at -quick, and again at the
// parameters where a check is conditional, to assert that the rows carry
// exactly those bounds, none wider and none missing, and that every verdict
// passes.
func TestVerdictRowsCarryListedBounds(t *testing.T) {
	eq := func(v float64) (bound, bound) { return incl(v), incl(v) }
	zero := func(name string) wantRow { lo, hi := eq(0); return wantRow{name, lo, hi} }
	at := func(name string, v float64) wantRow { lo, hi := eq(v); return wantRow{name, lo, hi} }
	withQuick := func(f func(*Params)) Params { p := quick(); f(&p); return p }
	metricOf := func(res *Result, name string) float64 { return metric(t, res, name) }

	cases := []struct {
		exp  string
		p    Params
		want func(p Params, res *Result) []wantRow
	}{
		{"fig10", quick(), func(Params, *Result) []wantRow {
			return []wantRow{{"honest mean score", incl(-1.2), incl(1.2)}, {"σ(b)", incl(22), incl(29)}}
		}},
		{"fig10", withQuick(func(p *Params) { p.NoCompensation = true }), func(Params, *Result) []wantRow {
			return []wantRow{{"σ(b)", incl(22), incl(29)}}
		}},
		{"fig11", quick(), func(Params, *Result) []wantRow {
			return []wantRow{
				{"detection α", incl(0.99), none},
				{"false positives β", none, incl(0.01)},
				// honest q0.5% <= freerider q99.5% failed: their difference > 0.
				{"honest q0.5% − freerider q99.5%", excl(0), none},
			}
		}},
		{"fig11", withQuick(func(p *Params) { p.NoCompensation = true }), func(Params, *Result) []wantRow {
			return []wantRow{{"β without compensation", incl(0.99), none}}
		}},
		{"fig11", withQuick(func(p *Params) { p.Delta = 0.05 }), func(Params, *Result) []wantRow { return nil }},
		{"fig12", quick(), func(Params, *Result) []wantRow {
			return []wantRow{
				at("sweep points", 21),
				{"α(0.05)", incl(0.45), incl(0.85)},
				{"α(0.1)", incl(0.99), none},
				{"α(0.03)", none, incl(0.75)},
				{"α(0.04)", incl(0.25), none},
				{"gain(0.03)", none, incl(0.10)},
				{"gain(0.04)", incl(0.10), none},
				{"α(0)", none, incl(0.02)},
				zero("α drops over 0.05 along δ"),
			}
		}},
		{"fig12", withQuick(func(p *Params) { p.Periods = 10 }), func(Params, *Result) []wantRow { return nil }},
		{"fig13", withQuick(func(p *Params) { p.N = 1000 }), func(Params, *Result) []wantRow {
			return []wantRow{{"max entropy log2(nh·f) − 9.2288", incl(-0.001), incl(0.001)}}
		}},
		{"fig13", quick(), func(p Params, _ *Result) []wantRow { return fig13Rows(p) }},
		{"fig13", withQuick(func(p *Params) { p.N = 10_000 }), func(p Params, _ *Result) []wantRow { return fig13Rows(p) }},
		{"eq7", quick(), func(Params, *Result) []wantRow {
			return []wantRow{
				{"p*m at coalition 25", incl(0.15), incl(0.27)},
				{"p*m at coalition 26", incl(0.15), incl(0.27)},
			}
		}},
		{"ablate", quick(), func(p Params, _ *Result) []wantRow {
			gapOff := crossCheckGap(p.Seed, 0)
			return []wantRow{
				{"β with compensation", none, incl(0.05)},
				{"β without compensation", incl(0.95), none},
				// gapOn < 5·gapOff && gapOn < gapOff + 10 failed.
				{"δ2 score gap with cross-checking", incl(min(5*gapOff, gapOff+10)), none},
				{"health gain from loss recovery", excl(0), none},
				{"health with loss recovery", incl(0.85), none},
			}
		}},
		{"table3", quick(), func(p Params, _ *Result) []wantRow {
			o := table3Workloads(p)[0].options()
			f, m := float64(o.Gossip.F), float64(o.Rep.M)
			return []wantRow{
				zero("confirms per node-period at pdcc 0"),
				{"acks per node-period at pdcc 0", excl(0), none},
				{"confirms per node-period at pdcc 1", excl(0), incl(f * f)},
				{"verification growth pdcc 0 → 1", excl(0), none},
				{"verification per node-period at pdcc 1", none, incl(f + 2*f*f + m*f)},
			}
		}},
		{"table5", quick(), func(Params, *Result) []wantRow {
			return []wantRow{
				{"overhead at 674 kbps pdcc 1", excl(0), excl(0.10)},
				{"overhead at 1082 kbps pdcc 1", excl(0), excl(0.08)},
				{"overhead at 2036 kbps pdcc 1", excl(0), excl(0.08)},
				{"overhead at 674 kbps pdcc 0", incl(0.001), none},
				{"overhead growth pdcc 0 → 1 at 674 kbps", excl(0), none},
				{"overhead growth pdcc 0 → 1 at 1082 kbps", excl(0), none},
				{"overhead growth pdcc 0 → 1 at 2036 kbps", excl(0), none},
				{"overhead drop 674 → 2036 kbps at pdcc 1", excl(0), none},
			}
		}},
		{"churn", quick(), func(p Params, _ *Result) []wantRow {
			w := churnWorkload(p)
			joins, leaves := w.joins, len(w.leavers)
			return []wantRow{
				at("joined", float64(joins)),
				at("departed", float64(leaves)),
				at("alive at end", float64(p.N+joins-leaves)),
				{"manager handoffs", incl(1), incl(float64(5 * w.rep.M * (joins + leaves)))},
				{"arrival catch-up", incl(0.5), none},
				{"separation gap", excl(0), none},
			}
		}},
		{"scale", quick(), func(p Params, _ *Result) []wantRow {
			ws := scaleWorkloads(p)
			rows := []wantRow{{"target overhead", excl(0), excl(0.25)}, {"target dup serves", none, excl(0.5)}}
			for _, w := range ws {
				n := " at N=" + F(float64(w.n), 0)
				rows = append(rows,
					wantRow{"goodput" + n, excl(0), none},
					wantRow{"stream lag" + n, excl(0), excl(float64(p.Duration))},
					wantRow{"stream jitter" + n, none, excl(float64(ws[1].gossip.Period))},
					at("freeriders expelled"+n, float64(w.k)),
					zero("honest expelled"+n))
			}
			return append(rows,
				zero("verdict mismatches"),
				wantRow{"calibrated η", none, excl(0)},
				wantRow{"target mean detection", excl(0), incl(float64(p.Duration))},
				wantRow{"target snapshots", incl(2), none},
				zero("snapshots out of order or not cumulative"),
				wantRow{"final snapshot's least count", excl(0), none})
		}},
		{"soak", quick(), func(p Params, _ *Result) []wantRow {
			w := soakWorkload(p)
			events := float64(len(w.chaos.Events))
			return []wantRow{
				zero("invariant violations"),
				{"fault plan events", incl(1), none},
				at("fault events applied", events),
				{"joined", incl(1), none},
				{"departed", incl(1), none},
				{"max tracked per manager", none, incl(float64(w.n + w.joins))},
				{"goodput", excl(0), none},
				{"metrics snapshots", incl(1), none},
				zero("live honest expelled"),
				at("freeriders expelled", float64(w.k)),
			}
		}},
		{"matrix", withQuick(func(p *Params) { p.Backends = []runtime.Kind{runtime.KindSim} }), func(Params, *Result) []wantRow {
			rows := []wantRow{{"scenarios run", incl(1), none}}
			for _, o := range matrixOracles {
				rows = append(rows, matrixRows(o.name)...)
			}
			return rows
		}},
		{"fig14", quick(), func(Params, *Result) []wantRow { return nil }},
		{"fig1", quick(), func(_ Params, res *Result) []wantRow {
			base, collapsed := metricOf(res, "health-no-freeriders"), metricOf(res, "health-freeriders")
			return []wantRow{
				zero("health drops along lag"),
				{"health, no freeriders", incl(0.85), none},
				{"health, 25% freeriders", none, incl(base - 0.15)},
				{"health with LiFTinG vs 25% freeriders", incl(collapsed + 0.1), none},
				{"health with LiFTinG vs no freeriders", incl(base - 0.2), none},
			}
		}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.exp] = true
		if testing.Short() && tc.exp == "fig13" && tc.p.N == 10_000 {
			continue
		}
		e, _ := Lookup(tc.exp)
		res, err := e.Run(context.Background(), tc.p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verdict.Pass {
			t.Errorf("%s %+v: verdict failed:\n  %s", tc.exp, tc.p, failed(res.Verdict))
		}
		want := tc.want(tc.p.resolve(e.DefaultParams, e.quick), res)
		got := res.Verdict.Checks
		if len(got) != len(want) {
			t.Errorf("%s %+v: %d rows, want %d", tc.exp, tc.p, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if g, w := got[i], want[i]; g.name != w.name || g.min != w.min || g.max != w.max {
				t.Errorf("%s %+v row %d: %q %+v %+v, want %q %+v %+v", tc.exp, tc.p, i, g.name, g.min, g.max, w.name, w.min, w.max)
			}
		}
	}
	for _, e := range Experiments() {
		if !covered[e.Name] {
			t.Errorf("%s: no bound listed", e.Name)
		}
	}
}

// fig13Rows are Figure 13's bounds at p.N: the maximum entropy always, the
// concentration bounds from 2,000 nodes, the paper's ranges and γ from
// 10,000.
func fig13Rows(p Params) []wantRow {
	maxH := stats.MaxEntropy(paperHistory * paperParams.F)
	rows := []wantRow{{"max entropy log2(nh·f) − 9.2288", incl(-0.001), incl(0.001)}}
	if p.N >= 2000 {
		rows = append(rows,
			wantRow{"fanout entropy min", incl(8.8), none},
			wantRow{"fanout entropy max", none, incl(maxH)},
			wantRow{"fanin entropy min", incl(8.6), none},
			wantRow{"fanin entropy max", none, incl(9.6)},
			wantRow{"fanout entropy mean", incl(8.9), none},
			wantRow{"fanin mean − fanout mean", incl(-0.15), incl(0.15)})
	}
	if p.N >= 10_000 {
		rows = append(rows,
			wantRow{"fanout entropy min at paper scale", incl(9.05), none},
			wantRow{"fanout entropy max at paper scale", none, incl(9.24)},
			wantRow{"fanin entropy min at paper scale", incl(8.9), none},
			wantRow{"fanin entropy max at paper scale", none, incl(9.45)},
			wantRow{"fanout entropy min vs γ", incl(8.95), none})
	}
	return rows
}

// matrixOracles are the matrix scenarios' bounds: α where alpha is not
// negative, β always, the gap where gap is not zero, and no honest
// expulsion where hx is set.
var matrixOracles = []struct {
	name             string
	alpha, beta, gap float64
	hx               bool
}{
	{"fanout-decrease", 0.9, 0.02, 2, false},
	{"partial-propose", 0.9, 0.02, 2, false},
	{"partial-serve", 0.9, 0.02, 2, false},
	{"wise-degree", 0.75, 0.1, 3, false},
	{"period-stretch", 0.9, 0, 0, false},
	{"biased-selection", 0.9, 0, 0, false},
	{"mitm", 0.9, 0, 0, false},
	{"history-forgery", 0.9, 0, 0, false},
	{"colluder-stretcher", 0.9, 0, 0, false},
	{"blame-spam", -1, 0, 0, true},
}

// matrixRows are one scenario's rows on sim, and the goodput row every
// scenario carries.
func matrixRows(scenario string) []wantRow {
	for _, o := range matrixOracles {
		if o.name != scenario {
			continue
		}
		pre := scenario + " on sim: "
		var rows []wantRow
		if o.alpha >= 0 {
			rows = append(rows, wantRow{pre + "α", incl(o.alpha), none})
		}
		rows = append(rows, wantRow{pre + "β", none, incl(o.beta)})
		if o.gap != 0 {
			rows = append(rows, wantRow{pre + "gap", incl(o.gap), none})
		}
		if o.hx {
			rows = append(rows, wantRow{pre + "honest expelled", none, incl(0)})
		}
		return append(rows, wantRow{pre + "goodput", excl(0), none})
	}
	return nil
}
