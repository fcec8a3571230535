// Command lifting-sim regenerates the tables and figures of the LiFTinG
// paper (Guerraoui et al., Middleware 2010) from the reproduction library.
//
// Usage:
//
//	lifting-sim [flags] <experiment> [flags]
//	lifting-sim list [-json]
//	lifting-sim -describe <experiment>
//
// The experiment inventory lives in the registry of internal/experiment;
// `lifting-sim list` prints it (name, paper artifact, description, default
// parameters), `all` runs every registered experiment, and `-describe`
// explains one. Output is ASCII tables by default; `-json` emits one
// structured JSON document (schema `lifting.experiments/v2`) with every
// table as data, headline metrics, and the verdict's check rows — the format
// CI and tooling consume. Runs are cancellable: SIGINT/SIGTERM aborts the
// current experiment promptly (sockets closed, goroutines drained) and exits
// 130. A failed verdict — the oracle of every experiment but fig14, checked
// on the run itself — prints its failed rows and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"lifting/internal/experiment"
	"lifting/internal/runtime"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:]))
}

// stdoutW/stderrW are where results and errors go; tests swap them for
// buffers.
var (
	stdoutW io.Writer = os.Stdout
	stderrW io.Writer = os.Stderr
)

// asciiObserver streams each table as soon as its experiment produces it —
// the incremental output long runs want.
type asciiObserver struct{ w io.Writer }

func (o asciiObserver) OnTable(t *experiment.Table) { t.Render(o.w) }

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("lifting-sim", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	def := experiment.DefaultParams()
	var (
		n        = fs.Int("n", 0, "override system size (0 = experiment default)")
		seed     = fs.Uint64("seed", 0, "override random seed (0 = experiment default)")
		duration = fs.Duration("duration", 0, "override streamed duration (cluster experiments)")
		pdcc     = fs.Float64("pdcc", def.Pdcc, "override pdcc (fig14; -1 = default)")
		periods  = fs.Int("periods", 0, "override score periods r (fig11/fig12)")
		delta    = fs.Float64("delta", def.Delta, "override degree of freeriding (fig11; -1 = default 0.1)")
		noComp   = fs.Bool("no-compensation", false, "ablation: disable wrongful-blame compensation (fig10/fig11)")
		quick    = fs.Bool("quick", false, "shrink paper-scale experiments for a fast pass")
		workers  = fs.Int("workers", 0, "Monte-Carlo worker goroutines (0 = GOMAXPROCS, 1 = serial)")
		shards   = fs.Int("shards", def.Shards, "discrete-event engine shards for eligible experiments on the sim backend (-1 = one per CPU, 0 or 1 = one shard, n = n; results are identical for every value; ignored by udp)")
		backendF = fs.String("backend", "sim", "execution backend: sim (deterministic discrete-event engine) or udp (loopback sockets, wall-clock time); matrix accepts a comma list or 'all' (= sim,udp)")
		filter   = fs.String("filter", "", "matrix: run only scenarios whose name contains this substring")
		jsonOut  = fs.Bool("json", false, "emit one structured JSON document instead of ASCII tables")
		describe = fs.String("describe", "", "describe the named experiment and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: lifting-sim [flags] <experiment> [flags]\nexperiments: %s\n",
			strings.Join(append(experiment.Names(), "all", "list"), ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe != "" {
		return describeExperiment(*describe, *jsonOut)
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	name := strings.ToLower(fs.Arg(0))
	// Flags may also follow the experiment name (`lifting-sim scale -n
	// 10000`): re-parse the remainder with the same flag set.
	if rest := fs.Args()[1:]; len(rest) > 0 {
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() != 0 {
			fs.Usage()
			return 2
		}
	}
	// The flags are the one outside input of the experiments, which panic
	// on a population or a probability they cannot run.
	if *n != 0 && *n < 2 {
		fmt.Fprintf(stderrW, "lifting-sim: -n must be 0 (the experiment's default) or at least 2, got %d\n", *n)
		return 2
	}
	for _, p := range []struct {
		flag string
		v    float64
	}{{"pdcc", *pdcc}, {"delta", *delta}} {
		if p.v != -1 && !(p.v >= 0 && p.v <= 1) {
			fmt.Fprintf(stderrW, "lifting-sim: -%s must be -1 (the experiment's default) or in [0, 1], got %v\n", p.flag, p.v)
			return 2
		}
	}
	if name == "list" {
		return list(*jsonOut)
	}

	// Resolve the backend set. A multi-backend set (a comma list or "all")
	// only means something to experiments that declare MultiBackend; every
	// other experiment — including the ones inside `all` — takes exactly
	// one.
	var backends []runtime.Kind
	if *backendF != "all" {
		for _, b := range strings.Split(*backendF, ",") {
			k, err := runtime.ParseKind(strings.TrimSpace(b))
			if err != nil {
				fmt.Fprintf(stderrW, "lifting-sim: %v\n", err)
				return 2
			}
			backends = append(backends, k)
		}
	}

	var batch []experiment.Experiment
	if name == "all" {
		batch = experiment.Experiments()
	} else {
		e, ok := experiment.Lookup(name)
		if !ok {
			fmt.Fprintf(stderrW, "lifting-sim: unknown experiment %q (experiments: %s)\n",
				name, strings.Join(append(experiment.Names(), "all", "list"), ", "))
			fs.Usage()
			return 2
		}
		batch = []experiment.Experiment{e}
	}
	if len(backends) != 1 {
		for _, e := range batch {
			if !e.MultiBackend {
				fmt.Fprintf(stderrW, "lifting-sim: experiment %q takes a single -backend\n", name)
				return 2
			}
		}
	}
	// An experiment runs only on the backends it declares; echoing one it
	// would ignore into the document would be a lie about the run.
	for _, e := range batch {
		runsOn := e.Backends()
		for _, b := range backends {
			if !slices.Contains(runsOn, b) {
				fmt.Fprintf(stderrW, "lifting-sim: experiment %q does not run on -backend %s (it runs on %v)\n",
					e.Name, b, runsOn)
				return 2
			}
		}
	}

	params := experiment.Params{
		N:              *n,
		Seed:           *seed,
		Duration:       *duration,
		Periods:        *periods,
		Delta:          *delta,
		Pdcc:           *pdcc,
		Quick:          *quick,
		Workers:        *workers,
		Shards:         *shards,
		Backends:       backends,
		Filter:         *filter,
		NoCompensation: *noComp,
	}

	var obs experiment.Observer
	if !*jsonOut {
		obs = asciiObserver{stdoutW}
	}
	var results []*experiment.Result
	failed := false
	for _, e := range batch {
		start := time.Now()
		res, err := e.Run(ctx, params, obs)
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(stderrW, "lifting-sim: %s interrupted: %v\n", e.Name, err)
			return 130
		case err != nil:
			fmt.Fprintf(stderrW, "lifting-sim: %s: %v\n", e.Name, err)
			return 1
		}
		for _, c := range res.Verdict.Checks {
			if !c.Holds() {
				fmt.Fprintf(stderrW, "%s: %s\n", e.Name, c)
			}
		}
		if !res.Verdict.Pass {
			failed = true
		}
		if *jsonOut {
			results = append(results, res)
		} else {
			fmt.Fprintf(stdoutW, "(%s finished in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
	}
	if *jsonOut {
		if err := experiment.NewDocument(results).Encode(stdoutW); err != nil {
			fmt.Fprintf(stderrW, "lifting-sim: encoding results: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// entry is one experiment's inventory record as `list -json` and
// `-describe -json` print it.
type entry struct {
	Name          string            `json:"name"`
	Paper         string            `json:"paper"`
	Describe      string            `json:"describe"`
	MultiBackend  bool              `json:"multi_backend,omitempty"`
	DefaultParams experiment.Params `json:"default_params"`
}

// list prints the experiment inventory from the registry: plain
// tab-separated lines, or the full entries as JSON.
func list(jsonOut bool) int {
	if jsonOut {
		entries := make([]entry, 0)
		for _, e := range experiment.Experiments() {
			entries = append(entries, entry{e.Name, e.Paper, e.Describe, e.MultiBackend, e.DefaultParams})
		}
		return encodeJSON(entries)
	}
	for _, e := range experiment.Experiments() {
		fmt.Fprintf(stdoutW, "%s\t%s\t%s\n", e.Name, e.Paper, e.Describe)
	}
	return 0
}

// describeExperiment explains one registry entry, defaults included.
func describeExperiment(name string, jsonOut bool) int {
	e, ok := experiment.Lookup(name)
	if !ok {
		fmt.Fprintf(stderrW, "lifting-sim: unknown experiment %q (experiments: %s)\n",
			name, strings.Join(experiment.Names(), ", "))
		return 2
	}
	if jsonOut {
		return encodeJSON(entry{e.Name, e.Paper, e.Describe, e.MultiBackend, e.DefaultParams})
	}
	fmt.Fprintf(stdoutW, "%s — %s\n  %s\n", e.Name, e.Paper, e.Describe)
	fmt.Fprintf(stdoutW, "  defaults: n=%d seed=%d duration=%v periods=%d delta=%v pdcc=%v\n",
		e.DefaultParams.N, e.DefaultParams.Seed, e.DefaultParams.Duration,
		e.DefaultParams.Periods, e.DefaultParams.Delta, e.DefaultParams.Pdcc)
	return 0
}

func encodeJSON(v any) int {
	enc := json.NewEncoder(stdoutW)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(stderrW, "lifting-sim: %v\n", err)
		return 1
	}
	return 0
}
