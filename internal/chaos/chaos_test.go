package chaos

import (
	"reflect"
	"testing"
	"time"

	"lifting/internal/msg"
)

func testConfig() Config {
	cands := make([]msg.NodeID, 0, 20)
	for i := 1; i <= 20; i++ {
		cands = append(cands, msg.NodeID(i))
	}
	return Config{
		Seed:          42,
		Duration:      20 * time.Second,
		Candidates:    cands,
		Crashes:       3,
		Outage:        time.Second,
		Partitions:    2,
		PartitionSpan: 2 * time.Second,
		PartitionSize: 5,
		LossBursts:    2,
		BurstSpan:     time.Second,
		BurstSize:     4,
		ReorderDelay:  20 * time.Millisecond,
		SkewCount:     4,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testConfig())
	b := Generate(testConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config produced different plans:\n%+v\nvs\n%+v", a, b)
	}
	other := testConfig()
	other.Seed++
	c := Generate(other)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("different seeds produced identical schedules")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := testConfig()
	p := Generate(cfg)

	counts := p.Counts()
	if counts[Crash] != cfg.Crashes || counts[Restart] != cfg.Crashes {
		t.Fatalf("want %d crash/restart pairs, got %d/%d",
			cfg.Crashes, counts[Crash], counts[Restart])
	}
	if counts[Partition] != cfg.Partitions || counts[Heal] != cfg.Partitions {
		t.Fatalf("want %d partition/heal pairs, got %d/%d",
			cfg.Partitions, counts[Partition], counts[Heal])
	}
	if counts[LossBurst] != cfg.LossBursts || counts[LossHeal] != cfg.LossBursts {
		t.Fatalf("want %d burst/heal pairs, got %d/%d",
			cfg.LossBursts, counts[LossBurst], counts[LossHeal])
	}
	if len(p.Skew) != cfg.SkewCount {
		t.Fatalf("want %d skewed clocks, got %d", cfg.SkewCount, len(p.Skew))
	}

	candidate := map[msg.NodeID]bool{}
	for _, id := range cfg.Candidates {
		candidate[id] = true
	}
	lo, hi := cfg.Duration/4, cfg.Duration*3/4
	last := time.Duration(0)
	for _, e := range p.Events {
		if e.At < lo || e.At > hi {
			t.Fatalf("event %v at %v outside fault window [%v, %v]", e.Kind, e.At, lo, hi)
		}
		if e.At < last {
			t.Fatalf("events not sorted: %v after %v", e.At, last)
		}
		last = e.At
		if len(e.Nodes) == 0 {
			t.Fatalf("event %v has no targets", e.Kind)
		}
		for _, id := range e.Nodes {
			if !candidate[id] {
				t.Fatalf("event %v targets non-candidate %d", e.Kind, id)
			}
		}
	}
	for id, f := range p.Skew {
		if !candidate[id] {
			t.Fatalf("skew targets non-candidate %d", id)
		}
		if f < 1-skewMax || f > 1+skewMax {
			t.Fatalf("skew factor %v outside ±%v", f, skewMax)
		}
	}
}

func TestGeneratePairsOrdered(t *testing.T) {
	p := Generate(testConfig())
	down := map[msg.NodeID]bool{}
	for _, e := range p.Events {
		switch e.Kind {
		case Crash:
			for _, id := range e.Nodes {
				down[id] = true
			}
		case Restart:
			for _, id := range e.Nodes {
				if !down[id] {
					t.Fatalf("restart of %d before its crash", id)
				}
				down[id] = false
			}
		}
	}
	for id, stillDown := range down {
		if stillDown {
			t.Fatalf("node %d crashed but never restarted", id)
		}
	}
}

func TestGenerateZeroConfig(t *testing.T) {
	p := Generate(Config{Seed: 1})
	if len(p.Events) != 0 || len(p.Skew) != 0 {
		t.Fatalf("zero config should produce an empty plan, got %+v", p)
	}
	if p.SkewFactor(3) != 1 {
		t.Fatalf("unskewed node should have factor 1")
	}
}
