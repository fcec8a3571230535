package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"lifting/internal/metrics"
)

// TestScaleVerdictScaleInvariant runs the scale workload at the -quick
// target population (600 in -short mode): the verdict asks for the
// 300-node baseline's expulsion outcome at both sizes, the QoE bounds and a
// well-formed metrics section. The 10k-node target is exercised by
// `lifting-sim scale` and the CI smoke step; here it would dominate the
// package's test time. The snapshot carries the JSON keys the document
// schema promises.
func TestScaleVerdictScaleInvariant(t *testing.T) {
	p := quick()
	if testing.Short() {
		p.N = 600
	}
	res := passes(t, "scale", p)
	last := res.MetricsSnapshots[len(res.MetricsSnapshots)-1]
	encoded, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"period"`, `"kinds"`, `"protocol_bytes"`, `"verification_bytes"`,
		`"overhead_ppm"`, `"dup_chunks"`, `"useful_chunks"`, `"blames_received"`,
		`"audits"`, `"expulsions"`, `"serve_latency"`,
		`"goodput_bytes"`, `"invalid_serves"`, `"stream_lag_mean_ns"`, `"stream_jitter_mean_ns"`} {
		if !bytes.Contains(encoded, []byte(key)) {
			t.Fatalf("snapshot JSON missing %s: %s", key, encoded)
		}
	}
}

// TestScaleShardInvariant pins the engine's contract at the workload level:
// one calibration, then the same seeded population run under 1, 2 and 8
// engine shards must produce identical results — same expulsions, same
// virtual detection times, same event count.
func TestScaleShardInvariant(t *testing.T) {
	ws := scaleWorkloads(Params{N: 600, Duration: 15 * time.Second, Seed: scale.DefaultParams.Seed})
	base, target := ws[0], ws[1]
	cal, err := base.calibrate(context.Background(), base.options())
	if err != nil {
		t.Fatal(err)
	}
	var ref scalePop
	var refSnaps []byte
	for i, s := range []int{1, 2, 8} {
		target.shards = s
		var snaps []metrics.Snapshot
		o, err := target.run(context.Background(), &cal, sampleSnapshots(&snaps))
		if err != nil {
			t.Fatal(err)
		}
		run := scalePop{N: target.n, tallyResult: o.tallyResult}
		encoded, err := json.Marshal(snaps)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref, refSnaps = run, encoded
			if !run.CohortExpelled() || !run.HonestClean() {
				t.Fatalf("S=1 verdict %q, want cohort expelled and honest clean", run.Verdict())
			}
			if len(snaps) == 0 {
				t.Fatal("run produced no metrics snapshots")
			}
			if run.UsefulChunks == 0 || run.OverheadPpm == 0 {
				t.Fatalf("redundancy/overhead accounting empty: %+v", run)
			}
			if run.GoodputBytes == 0 || run.StreamLagMeanNs == 0 {
				t.Fatalf("QoE accounting empty: %+v", run)
			}
			continue
		}
		if run != ref {
			t.Fatalf("S=%d diverged from S=1:\n S=1: %+v\n S=%d: %+v", s, ref, s, run)
		}
		// The metrics snapshots — every counter, every histogram bucket —
		// must be byte-identical across shard counts too: they are sampled
		// at global-phase barriers over commuting atomic adds.
		if !bytes.Equal(encoded, refSnaps) {
			t.Fatalf("S=%d metrics snapshots diverged from S=1:\n S=1: %s\n S=%d: %s", s, refSnaps, s, encoded)
		}
	}
}

// TestScaleShortDuration pins the configuration the CI 10k smoke uses: a
// 15-second stream still leaves room for the 24-period grace plus detection
// slack, so shrinking the smoke's duration must not shrink the verdict.
func TestScaleShortDuration(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestScaleVerdictScaleInvariant in short mode")
	}
	p := DefaultParams()
	p.N, p.Duration = 800, 15*time.Second
	passes(t, "scale", p)
}
