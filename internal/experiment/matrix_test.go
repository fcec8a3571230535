package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"lifting/internal/runtime"
)

// TestMatrixRegistryCoversAttackSpace pins the registry to the §4/§5 attack
// enumeration: every strategy the paper names has a scenario, and the sweep
// is large enough for the acceptance bar of ≥ 8 distinct attacks.
func TestMatrixRegistryCoversAttackSpace(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 8 {
		t.Fatalf("registry has %d scenarios, want >= 8", len(scs))
	}
	want := []string{
		"fanout-decrease", "partial-propose", "partial-serve", "wise-degree",
		"period-stretch", "biased-selection", "mitm", "history-forgery",
		"colluder-stretcher", "blame-spam",
	}
	byName := map[string]Scenario{}
	for _, s := range scs {
		if _, dup := byName[s.Name]; dup {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		byName[s.Name] = s
	}
	for _, name := range want {
		s, ok := byName[name]
		if !ok {
			t.Errorf("registry missing scenario %q", name)
			continue
		}
		if len(s.spec.backends) == 0 {
			t.Errorf("scenario %q declares no backend", name)
		}
		if s.spec.behavior == nil {
			t.Errorf("scenario %q has no behavior constructor", name)
		}
	}
	// The cross-backend entry must cover the whole runtime seam.
	if wd := byName["wise-degree"]; len(wd.spec.backends) != 2 {
		t.Errorf("wise-degree covers %d backends, want sim+udp", len(wd.spec.backends))
	}
}

// TestMatrixQuickAllScenariosPass runs the whole quick sweep on the sim
// backend — the same regression net CI runs: every oracle holds, and the
// sweep covers at least 8 distinct attacks.
func TestMatrixQuickAllScenariosPass(t *testing.T) {
	p := quick()
	p.Backends = []runtime.Kind{runtime.KindSim}
	res := passes(t, "matrix", p)
	if n := metric(t, res, "scenarios"); n < 8 {
		t.Fatalf("quick matrix ran %v scenarios, want >= 8", n)
	}
	if rows := metric(t, res, "rows"); len(res.Tables[0].Rows) != int(rows) {
		t.Fatalf("table has %d rows for %v results", len(res.Tables[0].Rows), rows)
	}
}

// rowFingerprint renders everything a row measures — exact float bits, no
// wall-clock — for byte-identity comparisons.
func rowFingerprint(rows []MatrixRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s|%s|%d|%016x|%016x|%016x|%016x|%d|%v\n",
			r.Scenario, r.Backend, r.Reps,
			math.Float64bits(r.Eta), math.Float64bits(r.Detection),
			math.Float64bits(r.FalsePositives), math.Float64bits(r.Gap),
			r.HonestExpelled, r.Failures)
	}
	return b.String()
}

// TestMatrixDeterministicPerBackend runs one matrix scenario under varied
// execution knobs with the same seed and asserts byte-identical outcomes on
// the deterministic backend: the registry, the per-rep seed derivation, the
// parallel repetition driver and the sharded engine must not leak
// scheduling into the results.
func TestMatrixDeterministicPerBackend(t *testing.T) {
	// history-forgery is the regression scenario: the forger's rewrite
	// draws consume randomness in audit-snapshot record order, so a
	// map-ordered history snapshot made seeded runs diverge. Every scenario
	// runs sharded; blame-spam, the one that expels, stands for them — its
	// rows must be identical for every shard count.
	for _, tc := range []struct {
		filter string
		shards []int // engine shard counts beyond the base run's
	}{
		{"fanout-decrease", nil},
		{"history-forgery", nil},
		{"blame-spam", []int{2, 8}},
	} {
		p := Params{
			Quick:    true,
			Filter:   tc.filter,
			Backends: []runtime.Kind{runtime.KindSim},
			Seed:     42,
		}
		if tc.shards != nil {
			p.Shards = 1
		}
		sweep := func(p Params) (*matrixResult, error) {
			ws := matrixWorkloads(p)
			for i := range ws {
				ws[i].reps = 2
			}
			_, res, err := sweepMatrix(context.Background(), p, ws)
			return res, err
		}
		a, errA := sweep(p)
		p.Workers = 1 // worker count must not change a single bit either
		b, errB := sweep(p)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a.ScenariosRun != 1 || b.ScenariosRun != 1 {
			t.Fatalf("filter %q matched %d/%d scenarios, want 1", tc.filter, a.ScenariosRun, b.ScenariosRun)
		}
		fa, fb := rowFingerprint(a.Rows), rowFingerprint(b.Rows)
		if fa != fb {
			t.Fatalf("two identically seeded %s runs diverged:\n--- first ---\n%s--- second ---\n%s", tc.filter, fa, fb)
		}
		for _, s := range tc.shards {
			p.Shards = s
			c, err := sweep(p)
			if err != nil {
				t.Fatal(err)
			}
			if fc := rowFingerprint(c.Rows); fc != fa {
				t.Fatalf("%s with %d engine shards diverged from 1 shard:\n--- S=1 ---\n%s--- S=%d ---\n%s",
					tc.filter, s, fa, s, fc)
			}
		}
	}
}

// TestMatrixScenarioAgreesAcrossBackends is the matrix extension of the
// cluster-level TestScenarioAgreesAcrossBackends: the wise-degree matrix
// entry runs under the discrete-event engine and over loopback UDP
// sockets, and the oracle verdict — freeriders detected, honest clean,
// modes separated — agrees.
func TestMatrixScenarioAgreesAcrossBackends(t *testing.T) {
	p := quick()
	p.Filter = "wise-degree"
	p.Backends = []runtime.Kind{runtime.KindSim, runtime.KindUDP}
	// Both rows passing IS the agreement pinned here: the same oracle —
	// freeriders detected, honest clean, modes separated — holds under
	// both execution backends.
	res := passes(t, "matrix", p)
	if rows := metric(t, res, "rows"); rows != 2 {
		t.Fatalf("got %v rows, want sim and udp", rows)
	}
}

// TestMatrixOracleBounds exercises the oracle algebra directly: each bound
// fails exactly when violated, and disabled checks stay silent.
func TestMatrixOracleBounds(t *testing.T) {
	cases := []struct {
		name   string
		o      Oracle
		row    MatrixRow
		failed bool
	}{
		{"pass", Oracle{MinDetection: 0.9, MaxFalsePositive: 0.02, MinGap: 2},
			MatrixRow{Detection: 0.95, FalsePositives: 0.01, Gap: 3}, false},
		{"alpha", Oracle{MinDetection: 0.9}, MatrixRow{Detection: 0.5}, true},
		{"alpha-disabled", Oracle{MinDetection: -1}, MatrixRow{Detection: 0}, false},
		{"beta", Oracle{MaxFalsePositive: 0.01}, MatrixRow{FalsePositives: 0.02}, true},
		{"gap", Oracle{MinGap: 2}, MatrixRow{Gap: 1}, true},
		{"gap-disabled", Oracle{}, MatrixRow{Gap: -5}, false},
		{"expulsion", Oracle{NoHonestExpulsion: true}, MatrixRow{HonestExpelled: 1}, true},
	}
	for _, c := range cases {
		row := c.row
		c.o.check(&row)
		if got := len(row.Failures) > 0; got != c.failed {
			t.Errorf("%s: failed=%v (%v), want %v", c.name, got, row.Failures, c.failed)
		}
	}
}

// TestMatrixFilterMiss: an unmatched filter runs nothing and fails the
// verdict saying so.
func TestMatrixFilterMiss(t *testing.T) {
	p := quick()
	p.Filter = "no-such-attack"
	res, err := matrix.Run(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, res, "scenarios") != 0 || metric(t, res, "rows") != 0 {
		t.Fatalf("unmatched filter ran scenarios: %+v", res.Metrics)
	}
	if res.Verdict.Pass || !strings.Contains(strings.Join(res.Verdict.Failures, "\n"), "ran no scenario") {
		t.Fatalf("unmatched filter verdict = %+v, want a 'ran no scenario' failure", res.Verdict)
	}
}
