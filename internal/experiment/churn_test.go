package experiment

import (
	"bytes"
	"testing"
)

// TestChurnSeparationSurvives: every join and leave happens, the managers
// hand off, arrivals catch up and the separation survives — the verdict.
func TestChurnSeparationSurvives(t *testing.T) { passes(t, "churn", quick()) }

// Two runs of one seed agree — on one engine shard and on four: joins and
// leaves apply from the global phase, so the shard count cannot move them.
func TestChurnDeterministic(t *testing.T) {
	p := quick()
	p.Shards = 1
	one := encodeRun(t, "churn", p)
	p.Shards = 4
	if four := encodeRun(t, "churn", p); !bytes.Equal(one, four) {
		t.Fatalf("two identical churn runs diverged:\n--- 1 shard ---\n%s--- 4 shards ---\n%s", one, four)
	}
}

// TestChurnHandoffsScaleWithChanges runs the default scenario, where the
// verdict's bound of 5·M handoffs per join or leave is 2,000 — not the N·M a
// re-dealt assignment would move on every join.
func TestChurnHandoffsScaleWithChanges(t *testing.T) { passes(t, "churn", DefaultParams()) }
