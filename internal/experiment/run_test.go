package experiment

import (
	"testing"
	"time"

	"lifting/internal/cluster"
	"lifting/internal/metrics"
	"lifting/internal/msg"
)

// finished hand-builds the state a closed cluster leaves behind: who was
// expelled and when, who had left, and what the collector counted.
func finished(expelled, departed map[msg.NodeID]time.Duration) *cluster.Cluster {
	return &cluster.Cluster{Collector: metrics.NewCollector(), Expelled: expelled, Departed: departed}
}

// TestTally pins the one tally every cluster experiment reads its outcome
// from: the expulsion split against the cohort, the detection mean and the
// overhead ratio, edge cases included.
func TestTally(t *testing.T) {
	co := cohort{n: 10, k: 2} // ids 8 and 9 adversarial
	sec := time.Second

	c := finished(
		map[msg.NodeID]time.Duration{
			8:  4 * sec, // cohort
			9:  6 * sec, // cohort
			3:  5 * sec, // live honest node
			0:  7 * sec, // the source counts as honest
			5:  9 * sec, // left at 2 s, blamed past η afterwards
			12: 8 * sec, // a churn arrival: outside the cohort by id
		},
		map[msg.NodeID]time.Duration{5: 2 * sec, 6: 3 * sec})
	c.Collector.OnSend(1, &msg.Serve{}, 4000)
	c.Collector.OnSend(1, &msg.Propose{}, 1000)
	c.Collector.OnSend(2, &msg.Ack{}, 300)
	c.Collector.OnSend(2, &msg.Blame{}, 100)
	c.Collector.OnUsefulChunk(1, time.Millisecond, 1316)
	c.Collector.OnUsefulChunk(2, time.Millisecond, 1316)
	c.Collector.OnUsefulChunk(3, time.Millisecond, 1316)
	c.Collector.OnDuplicateChunk(1)
	c.Collector.OnStreamLag(30 * time.Millisecond)
	c.Collector.OnJitter(4 * time.Millisecond)

	got := tally(c, co)
	want := tallyResult{
		Freeriders: 2, FreeridersExpelled: 2, HonestExpelled: 3, DepartedExpelled: 1,
		DetectionMean: 5 * sec,
		OverheadPpm:   80_000, verifBytes: 400, protoBytes: 5000,
		DupChunks: 1, UsefulChunks: 3, GoodputBytes: 3 * 1316,
		StreamLagMeanNs: 30_000_000, StreamJitterMeanNs: 4_000_000,
	}
	if got != want {
		t.Fatalf("tally:\n got  %+v\n want %+v", got, want)
	}
	if !got.CohortExpelled() || got.HonestClean() {
		t.Errorf("verdict helpers: cohort expelled %v (want true), honest clean %v (want false)", got.CohortExpelled(), got.HonestClean())
	}
	if got.Overhead() != 0.08 || got.DupRatio() != 0.25 {
		t.Errorf("ratios: overhead %v (want 0.08), dup %v (want 0.25)", got.Overhead(), got.DupRatio())
	}

	// Nobody expelled, nothing sent: no detection mean, no overhead, no
	// division by zero.
	quiet := tally(finished(nil, nil), co)
	if quiet != (tallyResult{Freeriders: 2}) {
		t.Errorf("tally of a silent run = %+v, want only the cohort size", quiet)
	}
	if quiet.CohortExpelled() || !quiet.HonestClean() || quiet.Overhead() != 0 || quiet.DupRatio() != 0 {
		t.Errorf("silent run: %+v reads as cohort expelled %v, honest clean %v", quiet, quiet.CohortExpelled(), quiet.HonestClean())
	}

	// A departed node inside the cohort range is still the cohort's.
	gone := tally(finished(map[msg.NodeID]time.Duration{9: sec}, map[msg.NodeID]time.Duration{9: sec / 2}), co)
	if gone.FreeridersExpelled != 1 || gone.DepartedExpelled != 0 || gone.DetectionMean != sec {
		t.Errorf("departed cohort member: %+v", gone)
	}
}

// TestCohort pins the cohort's three views of the same id range.
func TestCohort(t *testing.T) {
	co := cohortOf(120, 0.10, degree(0.7, 0.7, 0))
	if co.k != 12 || co.first() != 108 {
		t.Fatalf("10%% of 120: k = %d from id %d, want 12 from 108", co.k, co.first())
	}
	ids := co.ids()
	if len(ids) != 12 || ids[0] != 108 || ids[11] != 119 {
		t.Errorf("ids = %v", ids)
	}
	behave := co.behaviorFor()
	for _, tc := range []struct {
		id  msg.NodeID
		adv bool
	}{{0, false}, {107, false}, {108, true}, {119, true}, {120, false}, {500, false}} {
		if co.has(tc.id) != tc.adv {
			t.Errorf("has(%d) = %v", tc.id, !tc.adv)
		}
		if (behave(tc.id, nil, nil) != nil) != tc.adv {
			t.Errorf("behaviorFor()(%d) adversarial = %v, want %v", tc.id, !tc.adv, tc.adv)
		}
	}
	if cohortOf(80, 0, nil).behaviorFor() != nil {
		t.Error("an empty cohort must leave BehaviorFor nil")
	}
}
