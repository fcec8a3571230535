package experiment

import (
	"context"
	"testing"
	"time"
)

func quickChurnConfig() ChurnConfig {
	cfg := DefaultChurnConfig()
	cfg.N = 50
	cfg.Joins = 6
	cfg.Leaves = 6
	cfg.Duration = 8 * time.Second
	return cfg
}

func TestChurnSeparationSurvives(t *testing.T) {
	_, res, err := Churn(context.Background(), quickChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Joined != 6 || res.Departed != 6 {
		t.Fatalf("churn events incomplete: joined %d, departed %d", res.Joined, res.Departed)
	}
	if res.AliveEnd != 50 {
		t.Errorf("alive at end = %d, want 50 (6 in, 6 out)", res.AliveEnd)
	}
	if res.Handoffs == 0 {
		t.Error("no manager handoffs under churn")
	}
	if res.CatchUp.Mean() < 0.5 {
		t.Errorf("arrivals caught only %.0f%% of the post-join stream", 100*res.CatchUp.Mean())
	}
	if res.FreeriderMean >= res.HonestMean {
		t.Errorf("separation lost under churn: honest %.2f vs freeriders %.2f",
			res.HonestMean, res.FreeriderMean)
	}
}

// Two runs of one seed agree — on one engine shard and on four: joins and
// leaves apply from the global phase, so the shard count cannot move them.
func TestChurnDeterministic(t *testing.T) {
	sharded := quickChurnConfig()
	sharded.Shards = 4
	_, a, errA := Churn(context.Background(), quickChurnConfig())
	_, b, errB := Churn(context.Background(), sharded)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.HonestMean != b.HonestMean || a.FreeriderMean != b.FreeriderMean ||
		a.Handoffs != b.Handoffs || a.CatchUp.Mean() != b.CatchUp.Mean() {
		t.Fatalf("two identical churn runs diverged: %+v vs %+v", a, b)
	}
}

// TestChurnHandoffsScaleWithChanges: a membership change moves about M
// manager slots, so the default scenario's handoffs stay within 5·M per
// join or leave — not the N·M a re-dealt assignment would move on every
// join.
func TestChurnHandoffsScaleWithChanges(t *testing.T) {
	const m = 10 // Churn's reputation.Config.M
	cfg := DefaultChurnConfig()
	_, res, err := Churn(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bound := 5 * m * (cfg.Joins + cfg.Leaves); res.Handoffs > bound {
		t.Fatalf("%d handoffs for %d joins and %d leaves, want at most %d",
			res.Handoffs, cfg.Joins, cfg.Leaves, bound)
	}
}
