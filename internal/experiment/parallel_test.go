package experiment

import (
	"context"
	"math"
	"testing"
)

// TestRunScoresParallelMatchesSerial pins the determinism contract of the
// parallel Monte-Carlo driver: any worker count produces bit-identical
// results, because per-node streams are derived independently and
// aggregation is serial.
func TestRunScoresParallelMatchesSerial(t *testing.T) {
	cfg := DefaultScoreConfig()
	cfg.N = 1200
	cfg.Freeriders = 120
	cfg.Periods = 5

	cfg.Workers = 1
	serial, err := RunScores(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, 64} {
		cfg.Workers = workers
		par, err := RunScores(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		pairs := [][2]float64{
			{serial.HonestM.Mean(), par.HonestM.Mean()},
			{serial.HonestM.Std(), par.HonestM.Std()},
			{serial.FreeriderM.Mean(), par.FreeriderM.Mean()},
			{serial.Detection, par.Detection},
			{serial.FalsePositives, par.FalsePositives},
			{serial.Honest.Min(), par.Honest.Min()},
			{serial.Honest.Max(), par.Honest.Max()},
			{serial.Freerider.Min(), par.Freerider.Min()},
		}
		for i, p := range pairs {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("workers=%d: metric %d diverged from serial: %v vs %v", workers, i, p[0], p[1])
			}
		}
	}
}

// TestFig12ParallelMatchesSerial does the same for the delta sweep.
func TestFig12ParallelMatchesSerial(t *testing.T) {
	cfg := DefaultScoreConfig()
	cfg.Periods = 10

	cfg.Workers = 1
	_, serial, err := Fig12(context.Background(), cfg, 150)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	_, par, err := Fig12(context.Background(), cfg, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("sweep point %d diverged: %+v vs %+v", i, serial[i], par[i])
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatal("Workers(0) must resolve to at least one worker")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}
