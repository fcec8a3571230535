package cluster

import (
	"context"
	"errors"
	gort "runtime"
	"testing"
	"time"

	"lifting/internal/runtime"
)

// waitGoroutines polls until the goroutine count returns to (near) the
// baseline. Wall-clock backends park short-lived timer and delivery
// goroutines; a couple of runtime-internal stragglers are tolerated.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := gort.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:gort.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d now vs %d before cancellation\n%s",
				gort.NumGoroutine(), baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// testCancelMidStream is the cancellation acceptance check for a wall-clock
// backend: a cluster streaming far past the test's patience is cancelled
// mid-run; RunContext must report context.Canceled within a bounded delay,
// and Close must tear everything down — sockets, timers, goroutines —
// without waiting out the remaining schedule.
func testCancelMidStream(t *testing.T, backend runtime.Kind) {
	before := gort.NumGoroutine()

	const streamFor = 30 * time.Second // far beyond the cancellation point
	opts := fastOptions(backend, 12)
	c := New(opts)
	c.Start()
	c.StartStream(streamFor)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(250 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	err := c.RunContext(ctx, streamFor+time.Second)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}

	// Close after a cancelled run must also be prompt: the backend cancels
	// its pending timers (stream injections scheduled out to 30s) instead of
	// draining them on schedule.
	closeStart := time.Now()
	c.Close()
	if d := time.Since(closeStart); d > 5*time.Second {
		t.Fatalf("Close after cancellation took %v", d)
	}
	waitGoroutines(t, before)
}

func TestRunContextCancelUDP(t *testing.T) {
	testCancelMidStream(t, runtime.KindUDP)
}

// TestRunContextCancelSim: the discrete-event backend checks the context
// between event bursts, so even a pre-cancelled context aborts before any
// virtual time passes.
func TestRunContextCancelSim(t *testing.T) {
	c := New(fastOptions(runtime.KindSim, 12))
	c.Start()
	c.StartStream(10 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RunContext(ctx, 10*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if now := c.RT.Now(); now != 0 {
		t.Fatalf("pre-cancelled run advanced the clock to %v", now)
	}
	c.Close()
}

// TestCalibrateCancels: the honest pilot honors the context too — a matrix
// or scale run interrupted during calibration must not stream on.
func TestCalibrateCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Calibrate(ctx, fastOptions(runtime.KindSim, 12), 5*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Calibrate = %v, want context.Canceled", err)
	}
}

// TestRunContextCompletesUncancelled: a context that is never cancelled
// leaves RunContext equivalent to Run, returning nil after the full advance.
func TestRunContextCompletesUncancelled(t *testing.T) {
	c := New(fastOptions(runtime.KindSim, 10))
	c.Start()
	c.StartStream(500 * time.Millisecond)
	if err := c.RunContext(context.Background(), 600*time.Millisecond); err != nil {
		t.Fatalf("RunContext = %v, want nil", err)
	}
	if now := c.RT.Now(); now != 600*time.Millisecond {
		t.Fatalf("clock at %v, want 600ms", now)
	}
	c.Close()
}
