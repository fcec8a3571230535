package experiment

import (
	"context"
	"strconv"
	"testing"
	"time"
)

// smallPL shrinks the PlanetLab scenario so the full pipeline runs in test
// time; the paper-scale runs live behind the CLI and the benchmarks.
func smallPL() PlanetLabConfig {
	p := DefaultPlanetLabConfig()
	p.N = 80
	p.Duration = 15 * time.Second
	return p
}

func TestFig14DetectionShape(t *testing.T) {
	p := smallPL()
	// More pronounced freeriding than the paper's (1/7, 0.1, 0.1) to get a
	// clean signal from 8 freeriders within a minute of simulated time (the
	// test system's chunk workload yields fewer blame opportunities per
	// period than PlanetLab's saturated one).
	p.Delta = [3]float64{3.0 / 7, 0.3, 0.3}
	p.Duration = 35 * time.Second
	tab, res, err := Fig14(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || len(res.Snapshots) != 3 {
		t.Fatal("missing snapshots")
	}
	early, late := res.Snapshots[0], res.Snapshots[2]
	// Detection must grow over time (the widening gap of Figure 14) and be
	// substantial by the end.
	if late.Detection < early.Detection-0.05 {
		t.Fatalf("detection shrank over time: %v → %v", early.Detection, late.Detection)
	}
	if late.Detection < 0.5 {
		t.Fatalf("late detection = %v, want a majority of freeriders flagged", late.Detection)
	}
	// False positives stay a small minority (the paper's 12% were mostly
	// the poorly connected tail).
	if late.FalsePositives > 0.25 {
		t.Fatalf("false positives = %v, too many honest nodes flagged", late.FalsePositives)
	}
	// Freeriders score lower than honest nodes on average.
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(late.Freerider) >= mean(late.Honest) {
		t.Fatal("freerider scores not below honest scores")
	}
}

func TestFig1Shape(t *testing.T) {
	p := smallPL()
	p.Duration = 12 * time.Second
	lags := []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second, 12 * time.Second}

	_, base, _ := Fig1(context.Background(), p, Fig1NoFreeriders, lags)
	_, collapsed, _ := Fig1(context.Background(), p, Fig1Freeriders, lags)
	_, protected, _ := Fig1(context.Background(), p, Fig1FreeridersLiFTinG, lags)

	last := len(lags) - 1
	// Health curves are monotone in lag.
	for _, r := range []*Fig1Result{base, collapsed, protected} {
		for i := 1; i < len(r.Health); i++ {
			if r.Health[i] < r.Health[i-1]-1e-9 {
				t.Fatalf("health not monotone for scenario %v: %v", r.Scenario, r.Health)
			}
		}
	}
	// The baseline reaches (almost) everyone.
	if base.Health[last] < 0.85 {
		t.Fatalf("baseline health = %v, want > 0.85", base.Health[last])
	}
	// Hard freeriding without LiFTinG collapses the system (Figure 1's
	// middle curve).
	if collapsed.Health[last] > base.Health[last]-0.15 {
		t.Fatalf("25%% hard freeriders did not hurt: %v vs baseline %v",
			collapsed.Health[last], base.Health[last])
	}
	// With LiFTinG, coerced freeriders (δ = 0.035) leave health near the
	// baseline and far above the collapse.
	if protected.Health[last] < collapsed.Health[last]+0.1 {
		t.Fatalf("LiFTinG did not restore health: %v vs collapsed %v",
			protected.Health[last], collapsed.Health[last])
	}
	if protected.Health[last] < base.Health[last]-0.2 {
		t.Fatalf("LiFTinG health %v too far below baseline %v",
			protected.Health[last], base.Health[last])
	}
}

func TestTable5OverheadShape(t *testing.T) {
	p := smallPL()
	p.Duration = 10 * time.Second
	tab, points, err := Table5(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse := func(s string) float64 { return parsePct(t, s) }
	low0, low1 := parse(tab.Rows[0][1]), parse(tab.Rows[0][3])
	high0, high1 := parse(tab.Rows[2][1]), parse(tab.Rows[2][3])
	// Overhead grows with pdcc…
	if low1 <= low0 || high1 <= high0 {
		t.Fatalf("overhead not increasing in pdcc: %v→%v, %v→%v", low0, low1, high0, high1)
	}
	// …and shrinks with the stream rate (Table 5's second shape).
	if high1 >= low1 {
		t.Fatalf("overhead did not shrink with bitrate: %v (674k) vs %v (2036k)", low1, high1)
	}
	// Magnitudes in the paper's ballpark: ≤ ~12% at pdcc=1, ≥ ~0.1% at 0.
	if low1 > 0.15 || low0 < 0.001 {
		t.Fatalf("overhead magnitudes off: pdcc0=%v pdcc1=%v", low0, low1)
	}
	// The measured points mirror the rendered cells exactly, row by row.
	if len(points) != 9 {
		t.Fatalf("points = %+v", points)
	}
	for i, pt := range points {
		cell := parse(tab.Rows[i/3][1+i%3])
		if diff := pt.Ratio - cell; diff > 0.001 || diff < -0.001 {
			t.Fatalf("point %+v disagrees with rendered cell %v", pt, cell)
		}
	}
}

func TestTable3MessageCounts(t *testing.T) {
	p := smallPL()
	p.Duration = 8 * time.Second
	tab, err := Table3(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse := func(s string) float64 { return parseNum(t, s) }
	// pdcc = 0: no confirm traffic, but acks flow.
	if c := parse(tab.Rows[0][2]); c != 0 {
		t.Fatalf("confirms at pdcc=0: %v", c)
	}
	if a := parse(tab.Rows[0][1]); a <= 0 {
		t.Fatal("no acks at pdcc=0")
	}
	// pdcc = 1: confirm traffic present and bounded by O(f²).
	opts := p.buildOptions()
	f, m := float64(opts.Gossip.F), float64(opts.Rep.M)
	c1 := parse(tab.Rows[2][2])
	if c1 <= 0 {
		t.Fatal("no confirms at pdcc=1")
	}
	if c1 > f*f {
		t.Fatalf("confirms per node-period %v exceed f² = %v", c1, f*f)
	}
	// The total grows with pdcc and stays within the paper's
	// O(pdcc·f² + M·f): an ack to each of f servers, a confirm and its
	// response per witness, a blame for at most f partners to M managers.
	total0, total1 := parse(tab.Rows[0][5]), parse(tab.Rows[2][5])
	if bound := f + 2*f*f + m*f; total1 <= total0 || total1 > bound {
		t.Fatalf("verification messages per node-period: %v at pdcc=0, %v at pdcc=1, bound %v", total0, total1, bound)
	}
}

// parsePct parses a "12.3%" cell into a fraction.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	if n := len(s); n > 0 && s[n-1] == '%' {
		s = s[:n-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad percentage cell %q: %v", s, err)
	}
	return v / 100
}

// parseNum parses a plain numeric cell.
func parseNum(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q: %v", s, err)
	}
	return v
}
