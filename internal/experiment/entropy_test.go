package experiment

import (
	"context"
	"math"
	"testing"
)

func TestFig13PaperRanges(t *testing.T) {
	// Scaled to n = 2000 with the paper's history length nh·f = 600; the
	// entropy ranges shift only marginally with n (the birthday correction
	// grows as k²/n).
	cfg := DefaultEntropyConfig()
	cfg.N = 2000
	cfg.SampleNodes = 500
	_, res, err := Fig13(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Max attainable is log2(600) = 9.23.
	if math.Abs(res.MaxAttainable-9.2288) > 0.001 {
		t.Fatalf("max entropy = %v, want 9.23", res.MaxAttainable)
	}
	// Fanout entropies concentrate just below the max (paper: 9.11–9.21 at
	// n = 10,000; at n = 2,000 collisions push slightly lower).
	if res.Fanout.Min() < 8.8 || res.Fanout.Max() > res.MaxAttainable {
		t.Fatalf("fanout entropy range [%v, %v] implausible", res.Fanout.Min(), res.Fanout.Max())
	}
	// Fanin entropies straddle the max (sizes vary): paper 8.98–9.34.
	if res.Fanin.Min() < 8.6 || res.Fanin.Max() > 9.6 {
		t.Fatalf("fanin entropy range [%v, %v] implausible", res.Fanin.Min(), res.Fanin.Max())
	}
	// γ = 8.95 would sit below every honest fanout entropy here — the
	// paper's "negligible wrongful expulsion" claim — modulo the small-n
	// collision shift.
	if res.Fanout.Mean() < 8.9 {
		t.Fatalf("fanout mean %v too low", res.Fanout.Mean())
	}
	// Fanin mean ≈ fanout mean (both ≈ uniform over ≈600 draws).
	if math.Abs(res.Fanin.Mean()-res.Fanout.Mean()) > 0.15 {
		t.Fatalf("fanin mean %v far from fanout mean %v", res.Fanin.Mean(), res.Fanout.Mean())
	}
}

func TestFig13AtPaperScaleSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10k-node entropy simulation in -short mode")
	}
	cfg := DefaultEntropyConfig() // n = 10,000
	cfg.SampleNodes = 300
	_, res, err := Fig13(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper ranges: fanout [9.11, 9.21], fanin [8.98, 9.34].
	if res.Fanout.Min() < 9.05 || res.Fanout.Max() > 9.24 {
		t.Fatalf("fanout range [%v, %v], paper says [9.11, 9.21]", res.Fanout.Min(), res.Fanout.Max())
	}
	if res.Fanin.Min() < 8.9 || res.Fanin.Max() > 9.45 {
		t.Fatalf("fanin range [%v, %v], paper says [8.98, 9.34]", res.Fanin.Min(), res.Fanin.Max())
	}
	// Every honest node passes γ = 8.95 on fanout (no wrongful expulsion).
	if res.Fanout.Min() < 8.95 {
		t.Fatalf("an honest fanout entropy %v fell below γ = 8.95", res.Fanout.Min())
	}
}

func TestEq7Table(t *testing.T) {
	tab := Eq7(600)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The 25/26-coalition rows carry the paper's 21% anchor; checked
	// numerically in the analysis package — here we check the table wiring.
	if tab.Rows[2][0] != "25" {
		t.Fatalf("third row = %v", tab.Rows[2])
	}
}
