package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRepositoryClean: the suite passes over the module it ships in —
// every configured package pattern still selects a package, nothing is an
// orphan, no suppression is stale. `make lint` and CI run exactly this.
func TestRunRepositoryClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d over the repository:\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestRunFlagsStalePackagePattern: over a module where the configured
// packages do not exist, each pattern that selects nothing is a finding and
// the run exits 1 — the list cannot silently outlive a deleted package.
func TestRunFlagsStalePackagePattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "testdata/stale"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d over the stale fixture, want 1:\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{
		`no-wallclock: package pattern "lifting/internal/sim" matches no loaded package`,
		`ordered-map-range: package pattern "lifting/internal/sim" matches no loaded package`,
		`no-time-in-results: package pattern "lifting/internal/metrics" matches no loaded package`,
		`one-value: package pattern "lifting/internal/..." matches no loaded package`,
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("findings lack %q:\n%s", want, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), `package pattern "lifting" matches`) {
		t.Errorf("the root pattern selects the fixture's one package and must not be flagged:\n%s", stdout.String())
	}
}

// TestRulesCatalog: -rules prints one line per analyzer of the suite.
func TestRulesCatalog(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	suite := analyzers()
	if len(lines) != len(suite) {
		t.Fatalf("%d lines for %d analyzers:\n%s", len(lines), len(suite), stdout.String())
	}
	for i, a := range suite {
		if !strings.HasPrefix(lines[i], a.Name()+" ") {
			t.Errorf("line %d = %q, want rule %s", i, lines[i], a.Name())
		}
	}
}
