package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

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
		if len(s.Backends) == 0 {
			t.Errorf("scenario %q declares no backend", name)
		}
		if s.Behavior == nil {
			t.Errorf("scenario %q has no behavior constructor", name)
		}
	}
	// The cross-backend entry must cover the whole runtime seam.
	if wd := byName["wise-degree"]; len(wd.Backends) != 2 {
		t.Errorf("wise-degree covers %d backends, want sim+udp", len(wd.Backends))
	}
}

// TestMatrixShapes pins every scenario's resolved cluster shape at both
// sizes. `make identical` runs only the quick sweep, so this is the one
// standing check on the full-size shapes; η's σ-multiple is the same
// matrixEtaSigmas = 6 for all of them.
func TestMatrixShapes(t *testing.T) {
	if matrixEtaSigmas != 6 {
		t.Errorf("matrixEtaSigmas = %v, want 6", matrixEtaSigmas)
	}
	type size struct {
		n, k int
		dur  time.Duration
	}
	def, quick := size{60, 6, 10 * time.Second}, size{40, 6, 5 * time.Second}
	wise := size{24, 4, 2400 * time.Millisecond}
	for _, c := range []struct {
		name        string
		full, quick size
		f           int
		period      time.Duration
		floor       float64
	}{
		{"fanout-decrease", def, quick, 7, 100 * time.Millisecond, 1.5},
		{"partial-propose", def, quick, 7, 100 * time.Millisecond, 1.5},
		{"partial-serve", def, quick, 7, 100 * time.Millisecond, 1.5},
		{"wise-degree", wise, wise, 6, 60 * time.Millisecond, 3},
		{"period-stretch", def, quick, 7, 100 * time.Millisecond, 1.5},
		{"biased-selection", def, quick, 7, 100 * time.Millisecond, 1.5},
		{"mitm", def, quick, 7, 100 * time.Millisecond, 1.5},
		{"history-forgery", def, quick, 7, 100 * time.Millisecond, 1.5},
		{"colluder-stretcher", def, quick, 7, 100 * time.Millisecond, 1.5},
		{"blame-spam", def, quick, 7, 100 * time.Millisecond, 6},
	} {
		i := slices.Index(ScenarioNames(), c.name)
		if i < 0 {
			t.Errorf("no scenario %q", c.name)
			continue
		}
		sc := Scenarios()[i]
		for _, q := range []bool{false, true} {
			want := c.full
			if q {
				want = c.quick
			}
			sh := sc.resolve(q)
			got := size{sh.n, sh.k, sh.dur}
			if got != want || sh.F != c.f || sh.Period != c.period || sh.EtaFloor != c.floor {
				t.Errorf("%s quick=%v: n, k, dur = %v, F %d, Tg %v, floor %v; want %v, F %d, Tg %v, floor %v",
					c.name, q, got, sh.F, sh.Period, sh.EtaFloor, want, c.f, c.period, c.floor)
			}
		}
	}
	if n := len(Scenarios()); n != 10 {
		t.Errorf("%d scenarios, the table pins 10", n)
	}
}

// TestMatrixQuickAllScenariosPass runs the whole quick sweep on the sim
// backend — the same regression net CI runs — and requires every oracle to
// hold.
func TestMatrixQuickAllScenariosPass(t *testing.T) {
	tab, res, err := Matrix(context.Background(), MatrixConfig{Quick: true, Backends: []runtime.Kind{runtime.KindSim}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosRun < 8 {
		t.Fatalf("quick matrix ran %d scenarios, want >= 8", res.ScenariosRun)
	}
	if res.Failed {
		for _, r := range res.Rows {
			if len(r.Failures) > 0 {
				t.Errorf("%s on %s: %s", r.Scenario, r.Backend, strings.Join(r.Failures, "; "))
			}
		}
		t.Fatal("quick matrix failed its oracles")
	}
	if len(tab.Rows) != len(res.Rows) {
		t.Fatalf("table has %d rows for %d results", len(tab.Rows), len(res.Rows))
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
	// map-ordered history snapshot made seeded runs diverge. blame-spam is
	// the message-mode scenario, the one that actually runs sharded — its
	// rows must be identical for every shard count.
	for _, tc := range []struct {
		filter string
		shards []int // engine shard counts beyond the base run's
	}{
		{"fanout-decrease", nil},
		{"history-forgery", nil},
		{"blame-spam", []int{2, 8}},
	} {
		cfg := MatrixConfig{
			Quick:    true,
			Filter:   tc.filter,
			Backends: []runtime.Kind{runtime.KindSim},
			Seed:     42,
		}
		if tc.shards != nil {
			cfg.Shards = 1
		}
		_, a, errA := matrix(context.Background(), cfg, 2)
		cfg.Workers = 1 // worker count must not change a single bit either
		_, b, errB := matrix(context.Background(), cfg, 2)
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
			cfg.Shards = s
			_, c, err := matrix(context.Background(), cfg, 2)
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
	_, res, err := Matrix(context.Background(), MatrixConfig{
		Quick:    true,
		Filter:   "wise-degree",
		Backends: []runtime.Kind{runtime.KindSim, runtime.KindUDP},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want sim and udp", len(res.Rows))
	}
	// Both rows passing IS the agreement pinned here: the same oracle —
	// freeriders detected, honest clean, modes separated — holds under
	// both execution backends.
	for _, r := range res.Rows {
		if len(r.Failures) > 0 {
			t.Errorf("%s on %s failed: %s", r.Scenario, r.Backend, strings.Join(r.Failures, "; "))
		}
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

// TestMatrixFilterMiss: an unmatched filter runs nothing and reports it.
func TestMatrixFilterMiss(t *testing.T) {
	_, res, err := Matrix(context.Background(), MatrixConfig{Quick: true, Filter: "no-such-attack"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosRun != 0 || len(res.Rows) != 0 {
		t.Fatalf("unmatched filter ran %d scenarios", res.ScenariosRun)
	}
}
