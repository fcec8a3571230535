// Command lifting-lint runs the lint suite over the module and exits nonzero
// on any finding. It mechanically enforces the repository's byte-identical
// contract — seeded runs emit identical lifting.experiments/v2 documents
// across shard counts, worker counts and OS processes — and, with no-orphan,
// that every package, function and method is reachable from something that
// ships and every struct field is set by it; with one-value, that no field or
// parameter under internal/ is one the product only ever sets to one
// constant.
//
//	go run ./cmd/lifting-lint ./...
//
// The suite always analyzes the whole module — the contract is module-global
// — so the package pattern argument is accepted for familiarity and
// validated, nothing more. Findings are suppressed in place with
// `//lint:allow <rule> <reason>` on the flagged line or the line above;
// see internal/lint and the "Determinism lint" section of DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lifting/internal/lint"
)

// deterministicPackages is where the byte-identical contract holds: every
// package on the seeded path from root rng stream to emitted document. The
// wall-clock packages — internal/transport (real timers and sockets are its
// job; it is the only wall-clock half of the runtime seam), internal/obs and
// internal/gateway (ops HTTP surfaces reporting real uptime and latency),
// cmd and examples (drivers that time and print runs for humans) — are
// deliberately absent.
var deterministicPackages = lint.PackageSet{
	"lifting",
	"lifting/internal/analysis",
	"lifting/internal/chaos",
	"lifting/internal/cluster",
	"lifting/internal/content",
	"lifting/internal/core",
	"lifting/internal/experiment",
	"lifting/internal/freerider",
	"lifting/internal/gossip",
	"lifting/internal/history",
	"lifting/internal/membership",
	"lifting/internal/metrics",
	"lifting/internal/msg",
	"lifting/internal/net",
	"lifting/internal/reputation",
	"lifting/internal/rng",
	"lifting/internal/runtime",
	"lifting/internal/sim",
	"lifting/internal/stats",
	"lifting/internal/stream",
}

// analyzers assembles the suite with this repository's configuration.
func analyzers() []lint.Analyzer {
	documentRoots := []lint.TypeRef{
		{Pkg: "lifting/internal/experiment", Name: "Document"},
	}
	return []lint.Analyzer{
		lint.NoWallclock{Packages: deterministicPackages},
		lint.NoGlobalRand{},
		lint.OrderedMapRange{Packages: deterministicPackages},
		lint.NoFloatInDocument{Roots: documentRoots},
		lint.NoTimeInResults{
			Roots: documentRoots,
			Packages: lint.PackageSet{
				"lifting/internal/experiment",
				"lifting/internal/metrics",
			},
		},
		lint.NoOrphan{},
		// Writes and calls count everywhere; findings are reported only in
		// internal/, so none can ask for an edit under benchmark/, cmd/ or
		// examples/.
		lint.OneValue{Packages: lint.PackageSet{"lifting/internal/..."}},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lifting-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.Bool("rules", false, "print the rule catalog and exit")
	dir := fs.String("C", ".", "module root to analyze")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lifting-lint [-C dir] [-rules] [./...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := analyzers()
	if *rules {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	for _, arg := range fs.Args() {
		if !strings.HasPrefix(arg, ".") {
			fmt.Fprintf(stderr, "lifting-lint: unsupported pattern %q (the suite always analyzes the whole module; use ./...)\n", arg)
			return 2
		}
	}
	mod, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "lifting-lint: %v\n", err)
		return 2
	}
	ds := lint.Run(mod, suite)
	for _, d := range ds {
		fmt.Fprintln(stdout, d.String())
	}
	if n := len(ds); n > 0 {
		fmt.Fprintf(stderr, "lifting-lint: %d finding(s)\n", n)
		return 1
	}
	return 0
}
