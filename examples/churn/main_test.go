package main

import (
	"context"
	"io"
	"testing"
	"time"

	"lifting/internal/experiment"
	"lifting/internal/runtime"
)

// TestChurnExampleCompletes runs the example at reduced scale through the
// experiment registry on the default discrete-event backend.
func TestChurnExampleCompletes(t *testing.T) {
	params := experiment.DefaultParams()
	params.Quick = true
	params.N = 40
	params.Duration = 6 * time.Second
	res, err := run(context.Background(), io.Discard, params)
	if err != nil {
		t.Fatal(err)
	}
	joined, _ := res.Metric("joined")
	departed, _ := res.Metric("departed")
	if joined != 6 || departed != 6 {
		t.Fatalf("churn incomplete: joined %.0f, departed %.0f", joined, departed)
	}
	if gap, ok := res.Metric("score-gap"); !ok || gap <= 0 {
		t.Fatalf("separation lost: gap %.2f", gap)
	}
}

// TestChurnExampleLiveBackend is the wall-clock smoke test: a short run
// over live loopback sockets (-backend=udp) must complete with the same
// invariants.
func TestChurnExampleLiveBackend(t *testing.T) {
	params := experiment.DefaultParams()
	params.Backends = []runtime.Kind{runtime.KindUDP}
	params.Quick = true
	params.N = 20
	params.Duration = 3 * time.Second
	res, err := run(context.Background(), io.Discard, params)
	if err != nil {
		t.Fatal(err)
	}
	if joined, _ := res.Metric("joined"); joined == 0 {
		t.Fatal("udp churn saw no arrivals")
	}
}

// TestChurnExampleCancels pins the cancellation path end to end: a context
// cancelled mid-run aborts the experiment with context.Canceled.
func TestChurnExampleCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	params := experiment.DefaultParams()
	params.Quick = true
	if _, err := run(ctx, io.Discard, params); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}
