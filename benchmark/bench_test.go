package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The smoke tests run every workload in-process at toy size. They check the
// benchmark's plumbing — every declared metric comes out, once, finite; the
// sim digest is what it claims to be — not the numbers. Verdict ops are not
// asserted: a toy stream is shorter than the 24-period grace.

func toyCluster(s clusterSpec, n int, t *testing.T) clusterSpec {
	s.n, s.verdicts, s.probeDiv, s.outDir = n, false, 64, t.TempDir()
	if s.pilotN > 0 {
		s.pilotN = n / 2
	}
	s.joins, s.leaves = s.joins/30, s.leaves/30
	return s
}

func toyWorkloads(t *testing.T) []workload {
	scale := toyCluster(simScaleSpec(3*time.Second), 60, t)
	churn := toyCluster(simChurnSpec(3*time.Second), 60, t)
	udp := toyCluster(wireUDPSpec(time.Second), 12, t)
	udp.drain = gossipPeriod / 2
	gw := gatewayEdgeSpec(500 * time.Millisecond)
	gw.warmup, gw.probeDiv, gw.outDir = 20*time.Millisecond, 64, t.TempDir()
	return []workload{scale.workload(), churn.workload(), udp.workload(), gw.workload()}
}

func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range toyWorkloads(t) {
		for _, traced := range []bool{false, true} {
			pass, declared := "untraced", endToEnd
			if traced {
				pass, declared = "traced", perLayer
			}
			t.Run(w.name+"/"+pass, func(t *testing.T) {
				if !traced {
					// A traced pass owns the process's CPU profiler; the
					// untraced ones share nothing and may overlap.
					t.Parallel()
				}
				var stdout, stderr bytes.Buffer
				if code := runPass(context.Background(), w, 23, traced, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d", res.Correct, res.Attempted)
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					got, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s: not emitted", d.name)
					case got.Unit != d.unit:
						t.Errorf("%s: unit %q, declared %q", d.name, got.Unit, d.unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s: value %v", d.name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("%s: end-to-end value %v must be positive", d.name, got.Value)
					}
					if !name.MatchString(d.name) {
						t.Errorf("%s: not a metric name", d.name)
					}
					if n := strings.Count(stdout.String(), "  "+d.name+" "); n != 1 {
						t.Errorf("%s: printed %d times", d.name, n)
					}
				}
			})
		}
	}
}

func TestSimDigestIsStable(t *testing.T) {
	ctx := context.Background()
	digest := func(s clusterSpec, tr *tracer) string {
		p, err := s.pass(ctx, 23, tr)
		if err != nil {
			t.Fatal(err)
		}
		return simDigest(p)
	}
	scale := toyCluster(simScaleSpec(3*time.Second), 60, t)
	want := digest(scale, nil)
	if got := digest(scale, nil); got != want {
		t.Errorf("second run: digest %s, first %s", got, want)
	}
	for _, shards := range []int{1, 2} {
		s := scale
		s.shards = shards
		if got := digest(s, nil); got != want {
			t.Errorf("%d shards: digest %s, default %s", shards, got, want)
		}
	}
	if got := digest(scale, &tracer{}); got != want {
		t.Errorf("span wrapper changed the digest: %s, unwrapped %s", got, want)
	}
	churn := toyCluster(simChurnSpec(3*time.Second), 60, t)
	if plain, wrapped := digest(churn, nil), digest(churn, &tracer{}); plain != wrapped {
		t.Errorf("span wrapper changed the churn digest: %s, unwrapped %s", wrapped, plain)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the driver
// reads, in step with what the command emits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	workloads := benchmarkWorkloads(20 * time.Second)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, run %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Fatalf("%s: %d declared, %d emitted", kind, len(declared), len(emitted))
		}
		for i, d := range emitted {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: declared %+v, emitted %+v", kind, i, declared[i], d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
