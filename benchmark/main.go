// Command benchmark is the repository's whole-system benchmark: four
// workloads that between them exercise every layer under internal/, the
// end-to-end metrics a user of the system sees, and — on a second, traced
// pass — what each layer contributed. BENCHMARK.json at the repository root
// declares the same workloads and metrics; README.md in this directory is
// the catalogue.
//
// Usage, from the repository root:
//
//	go run ./benchmark                      every workload, untraced
//	go run ./benchmark -traced              ... then every workload traced
//	go run ./benchmark -workload wire_udp   one workload
//	go run ./benchmark -seed 7              other inputs
//	go run ./benchmark -workload sim_scale -seed 23 -seconds 20 -trace 0
//
// The last form runs one pass of one workload in this process and ends its
// standard output with one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Without -trace the command is a driver: it re-executes itself
// in that form once per workload and pass, one child at a time, so peak
// memory and collector state are each workload's own.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Uint64("seed", 23, "root of every workload's randomness")
	seconds := fs.Int("seconds", 20, "seconds streamed (cluster workloads) or loaded (gateway_edge) per run, 1-60")
	trace := fs.Int("trace", 0, "run one pass in this process: 0 untraced (end-to-end metrics), 1 traced (per-layer metrics)")
	traced := fs.Bool("traced", false, "driver mode: follow the untraced pass of each workload with the traced one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *seconds > 60 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	all := benchmarkWorkloads(time.Duration(*seconds) * time.Second)
	selected := all
	if *name != "" {
		selected = nil
		for _, w := range all {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}
	inProcess := false
	fs.Visit(func(f *flag.Flag) { inProcess = inProcess || f.Name == "trace" })
	if inProcess {
		if len(selected) != 1 {
			fmt.Fprintln(stderr, "benchmark: -trace needs -workload")
			return 2
		}
		return runPass(ctx, selected[0], *seed, *trace == 1, stdout, stderr)
	}
	return drive(ctx, selected, *seed, *seconds, *traced, stdout, stderr)
}

// resultLine is the last line of a pass's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runPass runs one pass of one workload in this process and prints its
// report, ending with the result line.
func runPass(ctx context.Context, w workload, seed uint64, traced bool, stdout, stderr io.Writer) int {
	pass, declared, runner := "untraced", endToEnd, w.measure
	if traced {
		pass, declared, runner = "traced", perLayer, w.trace
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  pass %s\n", w.name, seed, pass)
	fmt.Fprintf(stdout, "why: %s\n", w.why)
	out, err := runner(ctx, seed)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "env: %s\n", out.env)
	if out.env.busy() {
		fmt.Fprintf(stdout, "warning: load average %.2f at start is above nproc/2 = %.1f; timings are not comparable\n",
			out.env.Load1, float64(out.env.NProc)/2)
	}
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "note: %s\n", n)
	}
	if out.digest != "" {
		fmt.Fprintf(stdout, "sim_digest: %s\n", out.digest)
	}
	fmt.Fprintf(stdout, "ops: %d  failed: %d\n", out.attempted, out.failed)

	res := resultLine{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue, len(declared))}
	for _, d := range declared {
		// A layer the workload never enters did no work: its counters read 0.
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
			out.problems = append(out.problems, fmt.Sprintf("metric %s = %v is not a usable measurement", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-36s %16s %s\n", d.name, strconv.FormatFloat(v, 'f', -1, 64), d.unit)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "problem: %s\n", p)
	}
	res.Correct = len(out.problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// drive re-executes this binary once per workload and pass, one child at a
// time, relays each child's report and closes with one summary line per
// pass.
func drive(ctx context.Context, selected []workload, seed uint64, seconds int, traced bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	passes := []int{0}
	if traced {
		passes = append(passes, 1)
	}
	var summary []string
	failed := false
	for _, w := range selected {
		for _, pass := range passes {
			res, err := child(ctx, exe, w.name, seed, seconds, pass, stdout, stderr)
			fmt.Fprintln(stdout)
			status := "ok"
			if err != nil {
				status, failed = "FAILED: "+err.Error(), true
			}
			summary = append(summary, fmt.Sprintf("%-13s trace=%d  ops %-8d failed %-6d %s", w.name, pass, res.Attempted, res.Failed, status))
		}
	}
	fmt.Fprintln(stdout, "summary:")
	for _, s := range summary {
		fmt.Fprintln(stdout, "  "+s)
	}
	if failed {
		return 1
	}
	return 0
}

// child runs one pass in a process of its own, relaying its output, and
// returns its result line.
func child(ctx context.Context, exe, name string, seed uint64, seconds, pass int, stdout, stderr io.Writer) (resultLine, error) {
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(pass))
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return resultLine{}, err
	}
	if err := cmd.Start(); err != nil {
		return resultLine{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Fprintln(stdout, last)
		}
	}
	waitErr := cmd.Wait()
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, errors.Join(fmt.Errorf("no result line: %w", err), waitErr)
	}
	if waitErr != nil {
		return res, waitErr
	}
	return res, nil
}
