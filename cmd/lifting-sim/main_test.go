package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lifting/internal/experiment"
)

// capture runs the driver with stdout and stderr swapped for buffers.
func capture(t *testing.T, ctx context.Context, args []string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	oldOut, oldErr := stdoutW, stderrW
	stdoutW, stderrW = &out, &errBuf
	defer func() { stdoutW, stderrW = oldOut, oldErr }()
	code = run(ctx, args)
	return code, out.String(), errBuf.String()
}

func TestRunFastExperiments(t *testing.T) {
	// The analytic experiments complete in milliseconds; run them for real.
	for _, args := range [][]string{
		{"eq7"},
		{"-quick", "fig10"},
		{"-quick", "-periods", "10", "fig11"},
		{"-quick", "-n", "500", "fig13"},
	} {
		if code := run(context.Background(), args); code != 0 {
			t.Fatalf("run(%v) = %d, want 0", args, code)
		}
	}
}

func TestRunChurnAndWorkers(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-duration", "4s", "-n", "30", "churn"},
		{"-quick", "-workers", "4", "fig10"},
		{"-quick", "-workers", "1", "fig10"},
	} {
		if code := run(context.Background(), args); code != 0 {
			t.Fatalf("run(%v) = %d, want 0", args, code)
		}
	}
}

// TestRunChurnOverUDP runs the churn workload end-to-end on the UDP backend:
// every node gets its own loopback socket in this process, and joins bind
// new sockets mid-run. Duration is wall-clock here, so the scenario is kept
// small.
func TestRunChurnOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("udp churn streams in wall-clock time")
	}
	args := []string{"-quick", "-backend", "udp", "-duration", "3s", "-n", "24", "-json", "churn"}
	code, out, errOut := capture(t, context.Background(), args)
	if code != 0 {
		t.Fatalf("run(%v) = %d, want 0: %s", args, code, errOut)
	}
	var doc experiment.Document
	if err := json.Unmarshal([]byte(out), &doc); err != nil || len(doc.Results) != 1 {
		t.Fatalf("-json output is not one result: %v\n%s", err, out)
	}
	for _, m := range doc.Results[0].Metrics {
		if m.Name == "joined" && m.Value > 0 {
			return
		}
	}
	t.Fatalf("udp churn saw no arrivals: %+v", doc.Results[0].Metrics)
}

// TestRunScale runs the scale workload end-to-end at a reduced target
// population, in both flag orders (`-n 600 scale` and `scale -n 600` — the
// documented invocation is `lifting-sim scale -n 10000`).
func TestRunScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale runs a full baseline + target simulation")
	}
	for _, args := range [][]string{
		{"-n", "600", "scale"},
		{"scale", "-n", "600"},
	} {
		if code := run(context.Background(), args); code != 0 {
			t.Fatalf("run(%v) = %d, want 0", args, code)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if code := run(context.Background(), []string{"no-such-experiment"}); code == 0 {
		t.Fatal("unknown experiment accepted")
	}
	if code := run(context.Background(), []string{"-backend", "quantum", "churn"}); code == 0 {
		t.Fatal("unknown backend accepted")
	}
	if code := run(context.Background(), []string{}); code == 0 {
		t.Fatal("missing experiment accepted")
	}
	if code := run(context.Background(), []string{"-bogus-flag", "fig10"}); code == 0 {
		t.Fatal("bad flag accepted")
	}
}

// TestRunRejectsIgnoredBackend: an experiment refuses a backend it does not
// run on — one line naming the experiment and the backend, exit 2, no
// document — instead of running on sim and echoing the backend it ignored.
// `all` takes only what every experiment runs on.
func TestRunRejectsIgnoredBackend(t *testing.T) {
	for _, args := range [][]string{
		{"eq7", "-backend", "udp", "-json"},
		{"-quick", "-backend", "udp", "fig14"},
		{"scale", "-backend", "udp"},
		{"-quick", "-backend", "udp", "all"},
	} {
		code, out, errOut := capture(t, context.Background(), args)
		if code != 2 || out != "" {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and nothing", args, code, out)
		}
		if lines := strings.Split(strings.TrimSuffix(errOut, "\n"), "\n"); len(lines) != 1 ||
			!strings.Contains(lines[0], "does not run on -backend udp") {
			t.Errorf("run(%v) stderr %q, want one line refusing udp", args, errOut)
		}
	}
	for _, e := range experiment.Experiments() {
		want := "[sim]"
		switch e.Name {
		case "churn", "soak", "matrix":
			want = "[sim udp]"
		}
		if got := fmt.Sprint(e.Backends()); got != want {
			t.Errorf("%s runs on %s, want %s", e.Name, got, want)
		}
	}
}

// TestRunRejectsBadFlags: a population or probability no experiment can run
// is refused right after parsing — one line naming the flag, exit 2 — not
// handed to a run that panics on it (or, for -delta, silently uses it).
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-n", []string{"fig13", "-n", "1"}},
		{"-n", []string{"churn", "-n", "1"}},
		{"-n", []string{"scale", "-n", "1"}},
		{"-n", []string{"fig14", "-n", "1"}},
		{"-n", []string{"-n", "-3", "fig10"}},
		{"-pdcc", []string{"fig14", "-quick", "-pdcc", "3"}},
		{"-pdcc", []string{"-pdcc", "NaN", "fig14"}},
		{"-delta", []string{"fig11", "-delta", "3"}},
		{"-delta", []string{"-delta", "-0.5", "fig11"}},
	} {
		code, out, errOut := capture(t, context.Background(), c.args)
		if code != 2 || out != "" {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and nothing", c.args, code, out)
		}
		if lines := strings.Split(strings.TrimSuffix(errOut, "\n"), "\n"); len(lines) != 1 ||
			!strings.HasPrefix(lines[0], "lifting-sim: "+c.flag+" ") {
			t.Errorf("run(%v) stderr %q, want one lifting-sim line naming %s", c.args, errOut, c.flag)
		}
	}
}

func TestRunOverrides(t *testing.T) {
	if code := run(context.Background(), []string{"-seed", "9", "-delta", "0.2", "-periods", "5", "-n", "400", "fig11"}); code != 0 {
		t.Fatal("overrides rejected")
	}
	if code := run(context.Background(), []string{"-no-compensation", "-n", "300", "-periods", "3", "fig11"}); code != 0 {
		t.Fatal("ablation flag rejected")
	}
}

// TestUsageListsExperiments covers the help contract: the usage text and
// the unknown-experiment error both enumerate the registry — no pinned name
// list, so a newly registered experiment appears automatically.
func TestUsageListsExperiments(t *testing.T) {
	code, _, out := capture(t, context.Background(), nil)
	if code != 2 {
		t.Fatalf("run with no experiment = %d, want 2", code)
	}
	for _, name := range append(experiment.Names(), "all", "list") {
		if !strings.Contains(out, name) {
			t.Errorf("usage does not list experiment %q:\n%s", name, out)
		}
	}

	code, _, out = capture(t, context.Background(), []string{"no-such-experiment"})
	if code != 2 {
		t.Fatalf("unknown experiment = %d, want 2", code)
	}
	if !strings.Contains(out, `unknown experiment "no-such-experiment"`) ||
		!strings.Contains(out, "matrix") {
		t.Errorf("unknown-experiment error does not list the registry:\n%s", out)
	}
}

// TestRunMatrix runs one matrix scenario end-to-end through the CLI: the
// oracle must hold (exit 0), an unmatched filter must fail, and the
// backend-set parsing must reject garbage.
func TestRunMatrix(t *testing.T) {
	if code := run(context.Background(), []string{"-quick", "-filter", "fanout-decrease", "matrix"}); code != 0 {
		t.Fatalf("quick matrix fanout-decrease = %d, want 0", code)
	}
	code, _, out := capture(t, context.Background(), []string{"-quick", "-filter", "no-such-attack", "matrix"})
	if code == 0 {
		t.Fatal("matrix with unmatched filter reported success")
	}
	if !strings.Contains(out, "matrix: scenarios run = 0, want >= 1 (sanity)") {
		t.Errorf("filter miss not explained:\n%s", out)
	}
	code, _, out = capture(t, context.Background(), []string{"-backend", "sim,quantum", "matrix"})
	if code == 0 {
		t.Fatal("bad backend list accepted")
	}
	if !strings.Contains(out, "unknown backend") {
		t.Errorf("bad backend not explained:\n%s", out)
	}
	code, _, out = capture(t, context.Background(), []string{"-backend", "live", "churn"})
	if code == 0 {
		t.Fatal("removed live backend accepted")
	}
	if !strings.Contains(out, "removed") || !strings.Contains(out, "udp") {
		t.Errorf("removed backend not explained with its replacement:\n%s", out)
	}
	code, _, out = capture(t, context.Background(), []string{"-backend", "sim,udp", "churn"})
	if code == 0 {
		t.Fatal("backend list accepted for a single-backend experiment")
	}
	if !strings.Contains(out, "takes a single -backend") {
		t.Errorf("multi-backend rejection not explained:\n%s", out)
	}
}

// TestListInventory checks the registry-generated inventory: every
// registered experiment appears in both the plain and the JSON listing, and
// the JSON carries paper sections and default params.
func TestListInventory(t *testing.T) {
	code, out, _ := capture(t, context.Background(), []string{"list"})
	if code != 0 {
		t.Fatalf("list = %d, want 0", code)
	}
	for _, name := range experiment.Names() {
		if !strings.Contains(out, name+"\t") {
			t.Errorf("plain list missing %q:\n%s", name, out)
		}
	}

	code, out, _ = capture(t, context.Background(), []string{"list", "-json"})
	if code != 0 {
		t.Fatalf("list -json = %d, want 0", code)
	}
	var entries []struct {
		Name          string            `json:"name"`
		Paper         string            `json:"paper"`
		Describe      string            `json:"describe"`
		DefaultParams experiment.Params `json:"default_params"`
	}
	if err := json.Unmarshal([]byte(out), &entries); err != nil {
		t.Fatalf("list -json is not valid JSON: %v\n%s", err, out)
	}
	if len(entries) != len(experiment.Names()) {
		t.Fatalf("list -json has %d entries for %d experiments", len(entries), len(experiment.Names()))
	}
	for i, name := range experiment.Names() {
		if entries[i].Name != name {
			t.Errorf("entry %d is %q, want %q", i, entries[i].Name, name)
		}
		if entries[i].Paper == "" || entries[i].Describe == "" {
			t.Errorf("entry %q lacks paper/describe", name)
		}
	}
}

// TestDescribe covers -describe: a known name explains itself, an unknown
// one fails with the registry list.
func TestDescribe(t *testing.T) {
	code, out, _ := capture(t, context.Background(), []string{"-describe", "fig10"})
	if code != 0 {
		t.Fatalf("-describe fig10 = %d, want 0", code)
	}
	if !strings.Contains(out, "fig10") || !strings.Contains(out, "Figure 10") {
		t.Errorf("describe output incomplete:\n%s", out)
	}
	code, _, errOut := capture(t, context.Background(), []string{"-describe", "nope"})
	if code != 2 || !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("-describe nope = %d (%q), want 2 + unknown-experiment error", code, errOut)
	}
}

// TestJSONOutputDeterministic pins the structured path: the -json document
// of a seeded run is byte-identical across repeated runs and across worker
// counts (the PR 4 determinism contract, extended to the machine-readable
// output).
func TestJSONOutputDeterministic(t *testing.T) {
	args := []string{"-quick", "-n", "600", "-seed", "5", "-json", "fig10"}
	_, first, _ := capture(t, context.Background(), args)
	for _, extra := range [][]string{nil, {"-workers", "1"}, {"-workers", "7"}} {
		code, out, errOut := capture(t, context.Background(), append(append([]string{}, args...), extra...))
		if code != 0 {
			t.Fatalf("run(%v) = %d: %s", extra, code, errOut)
		}
		if out != first {
			t.Fatalf("JSON output diverged for %v:\n--- first ---\n%s--- now ---\n%s", extra, first, out)
		}
	}
	var doc experiment.Document
	if err := json.Unmarshal([]byte(first), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if doc.Schema != experiment.Schema || len(doc.Results) != 1 || doc.Results[0].Experiment != "fig10" {
		t.Fatalf("unexpected document: %+v", doc)
	}
}

// TestJSONVerdictFailure: a failed verdict still emits the JSON document
// (with the failed row recorded under verdict.checks), prints the row on
// stderr and exits 1.
func TestJSONVerdictFailure(t *testing.T) {
	code, out, errOut := capture(t, context.Background(), []string{"-quick", "-filter", "no-such-attack", "-json", "matrix"})
	if code != 1 {
		t.Fatalf("failed matrix -json = %d, want 1", code)
	}
	if want := "matrix: scenarios run = 0, want >= 1 (sanity)\n"; errOut != want {
		t.Errorf("stderr = %q, want the failed row %q", errOut, want)
	}
	var doc struct {
		Results []struct {
			Verdict struct {
				Pass   bool `json:"pass"`
				Checks []struct {
					Name, Value, Ref string
					Min              struct {
						Value     string
						Inclusive bool
					}
					Pass bool
				} `json:"checks"`
			} `json:"verdict"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("failure document is not valid JSON: %v\n%s", err, out)
	}
	if len(doc.Results) != 1 || doc.Results[0].Verdict.Pass || len(doc.Results[0].Verdict.Checks) != 1 {
		t.Fatalf("verdict not recorded: %+v", doc.Results)
	}
	c := doc.Results[0].Verdict.Checks[0]
	if c.Name != "scenarios run" || c.Value != "0" || c.Min.Value != "1" || !c.Min.Inclusive || c.Ref != "sanity" || c.Pass {
		t.Errorf("failed row = %+v, want scenarios run = 0 against an inclusive min of 1, not passing", c)
	}
}

// TestRunCancelled: a cancelled context aborts the run with exit 130 before
// any experiment work happens.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, _, errOut := capture(t, ctx, []string{"-quick", "churn"})
	if code != 130 {
		t.Fatalf("cancelled run = %d, want 130", code)
	}
	if !strings.Contains(errOut, "interrupted") {
		t.Errorf("cancellation not reported:\n%s", errOut)
	}
}
