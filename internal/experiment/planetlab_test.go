package experiment

import (
	"context"
	"testing"
	"time"
)

func TestFig14DetectionShape(t *testing.T) {
	// Shrunk so the full pipeline runs in test time, with more pronounced
	// freeriding than the paper's (1/7, 0.1, 0.1) to get a clean signal
	// from 8 freeriders within a minute of simulated time (the test
	// system's chunk workload yields fewer blame opportunities per period
	// than PlanetLab's saturated one).
	p := planetLab(Params{N: 80, Seed: planetLabParams.Seed, Duration: 35 * time.Second, Pdcc: -1})
	p.Delta = [3]float64{3.0 / 7, 0.3, 0.3}
	tab, snaps, err := fig14Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || len(snaps) != 3 {
		t.Fatal("missing snapshots")
	}
	early, late := snaps[0], snaps[2]
	// Detection must grow over time (the widening gap of Figure 14) and be
	// substantial by the end.
	if late.Detection < early.Detection-0.05 {
		t.Fatalf("detection shrank over time: %v → %v", early.Detection, late.Detection)
	}
	if late.Detection < 0.5 {
		t.Fatalf("late detection = %v, want a majority of freeriders flagged", late.Detection)
	}
	// False positives stay a small minority (the paper's 12% were mostly
	// the poorly connected tail).
	if late.FalsePositives > 0.25 {
		t.Fatalf("false positives = %v, too many honest nodes flagged", late.FalsePositives)
	}
	// Freeriders score lower than honest nodes on average.
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(late.Freerider) >= mean(late.Honest) {
		t.Fatal("freerider scores not below honest scores")
	}
}

// TestFig14SnapshotsWithinStream: the snapshots follow the stream length, so
// a -quick run's 20 s stream is sampled at 10, 15 and 20 s — none after the
// stream stopped — and its last snapshot flags freeriders at both pdcc
// values.
func TestFig14SnapshotsWithinStream(t *testing.T) {
	res := passes(t, "fig14", quick())
	streamed := planetLabQuick.Duration
	for _, tab := range res.Tables {
		for _, row := range tab.Rows {
			at, err := time.ParseDuration(row[0])
			if err != nil || at > streamed {
				t.Errorf("%s: snapshot at %q, want at or before the %v stream's end", tab.Title, row[0], streamed)
			}
		}
	}
	for _, m := range []string{"detection@pdcc=1.00", "detection@pdcc=0.50"} {
		if v := metric(t, res, m); v == 0 {
			t.Errorf("%s = 0 at the last snapshot", m)
		}
	}
}

// Figure 1's curve shapes and Tables 3 and 5's bounds are their verdicts.
func TestFig1Shape(t *testing.T) { passes(t, "fig1", quick()) }

func TestTable5OverheadShape(t *testing.T) { passes(t, "table5", quick()) }

func TestTable3MessageCounts(t *testing.T) { passes(t, "table3", quick()) }
