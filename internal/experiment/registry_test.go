package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"lifting/internal/runtime"
)

// wantExperiments is the inventory this PR ships, in `all` execution order:
// cheap analytic experiments first, long cluster streams last.
var wantExperiments = []string{
	"fig10", "fig11", "fig12", "fig13", "eq7", "ablate",
	"table3", "table5", "churn", "scale", "soak", "matrix", "fig14", "fig1",
}

// TestRegistryInventory pins the registry: every experiment of the
// reproduction is registered, in batch order, with paper citation,
// description and a run function.
func TestRegistryInventory(t *testing.T) {
	names := Names()
	if len(names) != len(wantExperiments) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(names), len(wantExperiments), names)
	}
	for i, want := range wantExperiments {
		if names[i] != want {
			t.Errorf("registry order [%d] = %q, want %q", i, names[i], want)
		}
	}
	for _, e := range Experiments() {
		if e.Paper == "" || e.Describe == "" || e.run == nil {
			t.Errorf("experiment %q is missing paper/describe/run", e.Name)
		}
		if e.DefaultParams.Delta != -1 && e.Name != "fig11" {
			t.Errorf("experiment %q default Delta = %v, want the -1 sentinel", e.Name, e.DefaultParams.Delta)
		}
	}
	if e, ok := Lookup("matrix"); !ok || !e.MultiBackend {
		t.Error("matrix must be registered as the multi-backend experiment")
	}
	if _, ok := Lookup("no-such"); ok {
		t.Error("Lookup invented an experiment")
	}
}

// collectObserver records the tables streamed during a run.
type collectObserver struct{ tables []*Table }

func (o *collectObserver) OnTable(t *Table) { o.tables = append(o.tables, t) }

// TestRegistryRunStreamsTables: the observer sees exactly the tables the
// result carries, in order — the contract the ASCII renderer builds on.
func TestRegistryRunStreamsTables(t *testing.T) {
	e, _ := Lookup("eq7")
	obs := &collectObserver{}
	res, err := e.Run(context.Background(), DefaultParams(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 || len(obs.tables) != len(res.Tables) {
		t.Fatalf("observer saw %d tables, result carries %d", len(obs.tables), len(res.Tables))
	}
	for i := range res.Tables {
		if obs.tables[i] != res.Tables[i] {
			t.Fatalf("table %d streamed out of order", i)
		}
	}
	if !res.Verdict.Pass {
		t.Fatalf("eq7 verdict failed: %v", res.Verdict.Failures)
	}
	if res.Experiment != "eq7" || res.Paper == "" {
		t.Fatalf("result not self-describing: %+v", res)
	}
}

// encodeRun executes a registry experiment and returns its JSON document
// bytes.
func encodeRun(t *testing.T, name string, p Params) []byte {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	res, err := e.Run(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewDocument([]*Result{res}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStructuredOutputDeterministic extends the PR 4 determinism tests to
// the structured path: the JSON document of a seeded matrix scenario — the
// workload whose map-order and scheduling hazards PR 4 chased — is
// byte-identical across repeated runs and across worker counts.
func TestStructuredOutputDeterministic(t *testing.T) {
	base := DefaultParams()
	base.Quick = true
	base.Seed = 42
	base.Filter = "fanout-decrease"
	base.Backends = []runtime.Kind{runtime.KindSim}

	first := encodeRun(t, "matrix", base)
	for _, workers := range []int{0, 1, 7} {
		p := base
		p.Workers = workers
		got := encodeRun(t, "matrix", p)
		if !bytes.Equal(got, first) {
			t.Fatalf("workers=%d produced different JSON:\n--- first ---\n%s--- now ---\n%s",
				workers, first, got)
		}
	}
	if again := encodeRun(t, "matrix", base); !bytes.Equal(again, first) {
		t.Fatal("repeated seeded run produced different JSON")
	}
}

// keysOf returns the sorted key set of a JSON object.
func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func assertKeys(t *testing.T, what string, m map[string]json.RawMessage, required, optional []string) {
	t.Helper()
	allowed := map[string]bool{}
	for _, k := range append(append([]string{}, required...), optional...) {
		allowed[k] = true
	}
	for _, k := range required {
		if _, ok := m[k]; !ok {
			t.Errorf("%s: missing required key %q (has %v)", what, k, keysOf(m))
		}
	}
	for k := range m {
		if !allowed[k] {
			t.Errorf("%s: unexpected key %q — the JSON schema drifted; bump experiment.Schema and update this golden test", what, k)
		}
	}
}

// TestJSONGoldenSchema pins the shape of the -json document so it cannot
// drift silently: top-level keys, result keys, params keys, table keys,
// verdict keys. Consumers (CI, dashboards) parse exactly this.
func TestJSONGoldenSchema(t *testing.T) {
	p := DefaultParams()
	p.Quick = true
	p.N = 400
	p.Seed = 3
	doc := encodeRun(t, "fig10", p)

	var top map[string]json.RawMessage
	if err := json.Unmarshal(doc, &top); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "document", top, []string{"schema", "results"}, nil)

	var schema string
	if err := json.Unmarshal(top["schema"], &schema); err != nil || schema != Schema {
		t.Fatalf("schema = %q (%v), want %q", schema, err, Schema)
	}

	var results []map[string]json.RawMessage
	if err := json.Unmarshal(top["results"], &results); err != nil || len(results) != 1 {
		t.Fatalf("results malformed: %v", err)
	}
	res := results[0]
	assertKeys(t, "result", res,
		[]string{"experiment", "paper", "params", "tables", "verdict"},
		[]string{"metrics", "metrics_snapshots"})

	var params map[string]json.RawMessage
	if err := json.Unmarshal(res["params"], &params); err != nil {
		t.Fatal(err)
	}
	// workers is deliberately absent: an execution knob that cannot change
	// results must not break byte-identity of the document across machines.
	assertKeys(t, "params", params,
		[]string{"delta", "pdcc"},
		[]string{"n", "seed", "duration", "periods", "quick", "backends", "filter", "no_compensation"})

	var tables []map[string]json.RawMessage
	if err := json.Unmarshal(res["tables"], &tables); err != nil || len(tables) == 0 {
		t.Fatalf("tables malformed: %v", err)
	}
	assertKeys(t, "table", tables[0], []string{"title", "columns", "rows"}, []string{"notes"})

	var verdict map[string]json.RawMessage
	if err := json.Unmarshal(res["verdict"], &verdict); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "verdict", verdict, []string{"pass"}, []string{"failures"})

	if raw, ok := res["metrics"]; ok {
		var metrics []map[string]json.RawMessage
		if err := json.Unmarshal(raw, &metrics); err != nil || len(metrics) == 0 {
			t.Fatalf("metrics malformed: %v", err)
		}
		assertKeys(t, "metric", metrics[0], []string{"name", "value"}, nil)
	} else {
		t.Error("fig10 result carries no metrics")
	}
}

// TestRegistryRunCancels: a cancelled context aborts a cluster-streaming
// experiment through the registry with context.Canceled and no result.
func TestRegistryRunCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"churn", "fig12", "matrix"} {
		e, _ := Lookup(name)
		p := DefaultParams()
		p.Quick = true
		res, err := e.Run(ctx, p, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled run returned %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Errorf("%s: cancelled run still produced a result", name)
		}
	}
}

// TestParamsResolution pins the one precedence every experiment resolves
// its parameters by: explicit value > -quick value > DefaultParams. A
// parameterless resolution is DefaultParams field for field, for every
// registered experiment — so what `list -json` and `-describe` print is what
// runs.
func TestParamsResolution(t *testing.T) {
	quick := Params{N: 7, Seed: 8, Duration: 9 * time.Second, Periods: 10}
	for _, e := range Experiments() {
		def := e.DefaultParams
		got := DefaultParams().resolve(def, quick)
		got.Shards = def.Shards // an execution knob, passed through
		if !reflect.DeepEqual(got, def) {
			t.Errorf("%s: parameterless resolution %+v, want DefaultParams %+v", e.Name, got, def)
		}

		p := DefaultParams()
		p.Quick = true
		got = p.resolve(def, quick)
		if got.N != 7 || got.Seed != 8 || got.Duration != 9*time.Second || got.Periods != 10 {
			t.Errorf("%s: -quick did not override the defaults: %+v", e.Name, got)
		}
		if got.Delta != def.Delta || got.Pdcc != def.Pdcc {
			t.Errorf("%s: -quick moved Delta/Pdcc to %v/%v, want the defaults %v/%v", e.Name, got.Delta, got.Pdcc, def.Delta, def.Pdcc)
		}
		if got = p.resolve(def, Params{}); got.N != def.N || got.Duration != def.Duration {
			t.Errorf("%s: an empty quick set overrode the defaults: %+v", e.Name, got)
		}

		p.N, p.Seed, p.Duration, p.Periods, p.Delta, p.Pdcc = 11, 12, 13*time.Second, 14, 0, 0.5
		got = p.resolve(def, quick)
		if got.N != 11 || got.Seed != 12 || got.Duration != 13*time.Second || got.Periods != 14 || got.Delta != 0 || got.Pdcc != 0.5 {
			t.Errorf("%s: explicit values did not override -quick and the defaults: %+v", e.Name, got)
		}
	}

	// The §7 scenario's sizes, fig1's longer stream included.
	resolved := func(name string, p Params) Params {
		e, _ := Lookup(name)
		return p.resolve(e.DefaultParams, e.quick)
	}
	p := DefaultParams()
	if d := resolved("fig1", p).Duration; d != 45*time.Second {
		t.Errorf("fig1 streams %v by default, want 45s", d)
	}
	if d := resolved("fig14", p).Duration; d != planetLabParams.Duration {
		t.Errorf("fig14 streams %v by default, want the §7 scenario's %v", d, planetLabParams.Duration)
	}
	p.Quick = true
	if r := resolved("fig1", p); r.Duration != 20*time.Second || r.N != 100 {
		t.Errorf("fig1 -quick runs n=%d for %v, want n=100 for 20s", r.N, r.Duration)
	}
	p.Duration = 35 * time.Second
	if d := resolved("fig1", p).Duration; d != 35*time.Second {
		t.Errorf("fig1 -quick -duration 35s streams %v", d)
	}
}

// quick is the -quick parameter set.
func quick() Params {
	p := DefaultParams()
	p.Quick = true
	return p
}

// passes runs the named experiment and fails the test, listing every
// violated bound, unless its verdict passes.
func passes(t *testing.T, name string, p Params) *Result {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	res, err := e.Run(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.Pass {
		t.Fatalf("%s verdict failed:\n  %s", name, strings.Join(res.Verdict.Failures, "\n  "))
	}
	return res
}

// metric returns the named metric of a result.
func metric(t *testing.T, res *Result, name string) float64 {
	t.Helper()
	for _, m := range res.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("%s carries no metric %q", res.Experiment, name)
	return 0
}
