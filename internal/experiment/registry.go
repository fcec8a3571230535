package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/runtime"
)

// The experiment registry is the public face of this package: every table
// and figure is one Experiment value, and everything downstream
// — the lifting-sim driver, its `all` batch, `list`, usage text, the JSON
// output CI consumes — derives from the registry instead of hand-maintained
// name lists and per-experiment flag plumbing. Adding an experiment is
// declaring its value and listing it in experiments; the CLI, the batch and
// the docs pick it up without another edit.

// Params is the one typed parameter set every experiment runs from. It
// carries exactly the overrides the lifting-sim flags expose; each
// experiment resolves them against its defaults (Params.resolve), maps the
// fields it understands onto its own config and ignores the rest. The zero
// value of the sentinel fields means "experiment default": use DefaultParams
// as the base so Delta and Pdcc start at −1.
type Params struct {
	// N overrides the system size (0 = experiment default).
	N int `json:"n,omitempty"`
	// Seed overrides the root random seed (0 = experiment default).
	Seed uint64 `json:"seed,omitempty"`
	// Duration overrides the streamed duration of cluster experiments
	// (JSON: nanoseconds). It is an input knob echoed into the document,
	// not a measurement.
	//lint:allow no-time-in-results configured input echoed verbatim; not a measured time
	Duration time.Duration `json:"duration,omitempty"`
	// Periods overrides the score-period count r (fig11/fig12).
	Periods int `json:"periods,omitempty"`
	// Delta overrides the degree of freeriding (fig11; −1 = default).
	//lint:allow no-float-in-document configured input echoed verbatim; no reduction touches it
	Delta float64 `json:"delta"`
	// Pdcc overrides the cross-check probability (fig14; −1 = default).
	//lint:allow no-float-in-document configured input echoed verbatim; no reduction touches it
	Pdcc float64 `json:"pdcc"`
	// Quick shrinks paper-scale experiments for a fast pass.
	Quick bool `json:"quick,omitempty"`
	// Workers fans Monte-Carlo work across goroutines (0 = GOMAXPROCS,
	// 1 = serial). Results are bit-identical for any worker count, which is
	// why it is excluded from the JSON echo: it is an execution knob, not a
	// result parameter, and the document of a seeded run must not depend on
	// the machine that produced it.
	Workers int `json:"-"`
	// Shards is how many shards (goroutines) the discrete-event engine
	// runs one cluster on (churn, scale, soak, matrix): 0 or 1 = one,
	// −1 = one per CPU, n = n. The cluster's eligibility rule, not the
	// experiment, decides whether more than one is possible. Results are
	// bit-identical for every value — the engine's lockstep merge
	// guarantees it — so like Workers this is an execution knob, excluded
	// from the JSON echo.
	Shards int `json:"-"`
	// Backends restricts execution backends. Nil means the experiment
	// default (sim; for the matrix, every backend a scenario declares).
	// Single-backend experiments use the first entry.
	Backends []runtime.Kind `json:"backends,omitempty"`
	// Filter keeps only matrix scenarios whose name contains the substring.
	Filter string `json:"filter,omitempty"`
	// NoCompensation disables wrongful-blame compensation (ablation).
	NoCompensation bool `json:"no_compensation,omitempty"`
}

// DefaultParams returns the neutral parameter set: every override off, the
// Delta/Pdcc sentinels at −1 and the engine sharding on auto.
//
//lint:allow no-orphan the registry tests and benchmarks (TestRegistryRunStreamsTables, BenchmarkRegistryDispatch, …) start every run from it
func DefaultParams() Params {
	return Params{Delta: -1, Pdcc: -1, Shards: -1}
}

// resolve fills every parameter the caller left at "experiment default", in
// the one precedence every experiment shares: an explicit value, else — under
// Quick — the experiment's quick value, else its DefaultParams. Sizes, seeds,
// durations and period counts are set when positive; Delta and Pdcc (−1 =
// unset, no quick values) when non-negative. Execution knobs pass through. A
// Result echoes the Params it was given, never these.
func (p Params) resolve(def, quick Params) Params {
	if !p.Quick {
		quick = Params{}
	}
	r := p
	for _, l := range []Params{def, quick, p} {
		if l.N > 0 {
			r.N = l.N
		}
		if l.Seed > 0 {
			r.Seed = l.Seed
		}
		if l.Duration > 0 {
			r.Duration = l.Duration
		}
		if l.Periods > 0 {
			r.Periods = l.Periods
		}
	}
	if p.Delta < 0 {
		r.Delta = def.Delta
	}
	if p.Pdcc < 0 {
		r.Pdcc = def.Pdcc
	}
	return r
}

// backend returns the single execution backend the params select.
func (p Params) backend() runtime.Kind {
	if len(p.Backends) > 0 {
		return p.Backends[0]
	}
	return runtime.KindSim
}

// backendsLabel names the backend set for messages ("all" when unrestricted).
func (p Params) backendsLabel() string {
	if len(p.Backends) == 0 {
		return "all"
	}
	s := ""
	for i, k := range p.Backends {
		if i > 0 {
			s += ","
		}
		s += k.String()
	}
	return s
}

// Metric is one named scalar of a structured result.
type Metric struct {
	Name string `json:"name"`
	// Value is computed by a serial, seed-determined reduction in every
	// experiment (worker fan-out never reorders the fold), so the formatted
	// bytes are identical across worker and shard counts.
	//lint:allow no-float-in-document serial seed-determined reduction; byte-stable across worker and shard counts
	Value float64 `json:"value"`
}

// Verdict is an experiment's pass/fail outcome: the oracle of its paper
// artefact or workload, checked on the run itself, with every violated bound
// listed. fig14 alone always passes — its gate waits for seeded repetitions,
// as one seed decides nothing there.
type Verdict struct {
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// Result is the structured outcome of one experiment run: the tables as
// data, scalar metrics, and the verdict. Everything in it is deterministic
// for a fixed seed — wall-clock timings deliberately stay out, so the JSON
// encoding of a seeded run is byte-identical across repetitions and worker
// counts.
type Result struct {
	// Experiment is the registry name that produced this result.
	Experiment string `json:"experiment"`
	// Paper cites the paper artifact the experiment reproduces.
	Paper string `json:"paper"`
	// Params echoes the parameters the run used.
	Params Params `json:"params"`
	// Tables holds the experiment's tables in render order.
	Tables []*Table `json:"tables"`
	// Metrics are the headline scalars, in a fixed per-experiment order.
	Metrics []Metric `json:"metrics,omitempty"`
	// MetricsSnapshots is the run's periodic metrics section: cumulative
	// traffic/redundancy/verification counts sampled on sim-time period
	// boundaries. Counts and integer ratios only — no wall-clock — so a
	// seeded run's document is byte-identical across repetitions, worker
	// counts and engine shard counts.
	MetricsSnapshots []metrics.Snapshot `json:"metrics_snapshots,omitempty"`
	// Verdict is the pass/fail outcome.
	Verdict Verdict `json:"verdict"`
}

// addTable records a table and streams it to the observer.
func (r *Result) addTable(obs Observer, t *Table) {
	r.Tables = append(r.Tables, t)
	if obs != nil {
		obs.OnTable(t)
	}
}

// addMetric records one named scalar.
func (r *Result) addMetric(name string, value float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value})
}

// fail records a verdict failure.
func (r *Result) fail(format string, args ...any) {
	r.Verdict.Pass = false
	r.Verdict.Failures = append(r.Verdict.Failures, fmt.Sprintf(format, args...))
}

// Observer streams experiment progress to a consumer. A nil Observer is
// always allowed. OnTable is invoked from the experiment's goroutine as each
// table completes, in render order — the lifting-sim ASCII mode prints them
// incrementally, exactly as the pre-registry driver did.
type Observer interface {
	OnTable(t *Table)
}

// Experiment is one registry entry, declared in the file that runs it.
type Experiment struct {
	// Name is the CLI name (`lifting-sim <name>`).
	Name string
	// Paper cites the paper artifact ("§6.2, Figure 10") or names the
	// beyond-the-paper workload.
	Paper string
	// Describe is a one-line description for `lifting-sim list`.
	Describe string
	// MultiBackend marks experiments that accept a backend *set* (the
	// matrix); every other experiment takes exactly one backend, which the
	// driver enforces generically from this flag.
	MultiBackend bool
	// DefaultParams are the defaults a parameterless run uses — what `list
	// -json` and `-describe` print and what Params.resolve falls back to, so
	// the two cannot drift.
	DefaultParams Params
	// quick holds the sizes -quick shrinks to (Params.resolve).
	quick Params
	// run executes the experiment on resolved params: it adds its tables
	// (streaming each to obs), its metrics and every verdict failure to out.
	// It must honor ctx — threading it into cluster runs and Monte-Carlo
	// drivers — and return ctx.Err() when cancelled.
	run func(ctx context.Context, p Params, out *Result, obs Observer) error
}

// Run executes the experiment: it resolves p against the experiment's
// defaults, runs, and returns the structured result with its verdict — or
// ctx.Err(), not a partial result, when cancelled.
func (e Experiment) Run(ctx context.Context, p Params, obs Observer) (*Result, error) {
	out := &Result{Experiment: e.Name, Paper: e.Paper, Params: p, Verdict: Verdict{Pass: true}}
	if err := e.run(ctx, p.resolve(e.DefaultParams, e.quick), out, obs); err != nil {
		return nil, err
	}
	return out, nil
}

// experiments is the registry, in the order `all` runs it and usage lists
// it: cheap analytic experiments first, the long cluster streams (fig14,
// fig1) last. It is one list, not per-file init functions, because Go runs
// those in file-name order.
var experiments = []Experiment{
	fig10, fig11, fig12, fig13, eq7, ablate,
	table3, table5, churn, scale, soak, matrix, fig14, fig1,
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Experiments returns every registered experiment in batch order — the
// order `lifting-sim all` runs them.
func Experiments() []Experiment {
	return slices.Clone(experiments)
}

// Names returns the registered experiment names in batch order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// Schema identifies the JSON document layout. Bump it when the shape of
// Document/Result changes; the golden-schema test pins the current shape.
const Schema = "lifting.experiments/v1"

// Document is the JSON document `lifting-sim -json` emits: one entry per
// experiment run, in run order. CI consumes it directly.
type Document struct {
	//lint:allow one-value the JSON field consumers check (TestJSONGoldenSchema, lifting-sim's TestJSONOutputDeterministic)
	Schema  string    `json:"schema"`
	Results []*Result `json:"results"`
}

// NewDocument wraps results in a versioned document.
func NewDocument(results []*Result) *Document {
	return &Document{Schema: Schema, Results: results}
}

// Encode writes the document as indented JSON with a trailing newline. The
// bytes are deterministic: encoding/json is order-stable and the document
// carries no wall-clock fields.
func (d *Document) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
