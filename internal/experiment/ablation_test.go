package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"lifting/internal/rng"
)

func TestAblationsTable(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.ScoreN = 500
	cfg.ClusterN = 50
	cfg.Duration = 8 * time.Second
	tab, err := Ablations(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}

	// 1. Compensation: β jumps from ≈0 to ≈1 when disabled.
	betaOn := parsePct(t, tab.Rows[0][2])
	betaOff := parsePct(t, tab.Rows[0][3])
	if betaOn > 0.05 {
		t.Fatalf("β with compensation = %v, want ≈0", betaOn)
	}
	if betaOff < 0.95 {
		t.Fatalf("β without compensation = %v, want ≈1", betaOff)
	}

	// 2. Cross-checking: the δ2 gap collapses when pdcc = 0.
	gapOn := parseNum(t, tab.Rows[1][2])
	gapOff := parseNum(t, tab.Rows[1][3])
	if gapOn < 5*gapOff && gapOn < gapOff+10 {
		t.Fatalf("pdcc gap %v vs %v: cross-checking contributed too little", gapOn, gapOff)
	}

	// 3. Loss recovery: health drops without re-requests.
	healthOn := parseNum(t, tab.Rows[2][2])
	healthOff := parseNum(t, tab.Rows[2][3])
	if healthOn <= healthOff {
		t.Fatalf("recovery off did not hurt: %v vs %v", healthOn, healthOff)
	}
	if healthOn < 0.85 {
		t.Fatalf("baseline health with recovery = %v", healthOn)
	}
}

func TestSamplePeriodPdccZeroDropsWitnessBlame(t *testing.T) {
	// With pdcc = 0, expected blame = DV + chain terms only.
	bp := BlameProcess{P: paperParams, Rand: rng.New(7)}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += bp.SamplePeriod(0)
	}
	mean := sum / n
	want := paperParams.DirectVerificationBlame() + paperParams.CrossCheckBlameChain()
	if diff := mean - want; diff > 0.6 || diff < -0.6 {
		t.Fatalf("pdcc=0 mean blame %v, want %v", mean, want)
	}
}

func TestAblationsRender(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.ScoreN = 200
	cfg.ClusterN = 30
	cfg.Duration = 5 * time.Second
	tab, err := Ablations(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"compensation", "cross-checking", "loss recovery"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
