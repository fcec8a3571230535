package stream

import (
	"math"
	"testing"
	"time"

	"lifting/internal/msg"
)

// paperStream is the paper's 674 kbps stream in 1316-byte chunks, roughly 64
// per second.
var paperStream = Config{BitrateBps: 674_000, ChunkPayload: 1316}

func TestConfigValidate(t *testing.T) {
	if err := paperStream.Validate(); err != nil {
		t.Fatalf("paper stream invalid: %v", err)
	}
	if err := (Config{BitrateBps: 0, ChunkPayload: 1}).Validate(); err == nil {
		t.Fatal("zero bitrate accepted")
	}
	if err := (Config{BitrateBps: 1, ChunkPayload: 0}).Validate(); err == nil {
		t.Fatal("zero payload accepted")
	}
}

func TestChunkInterval674(t *testing.T) {
	// 674 kbps / 8 = 84250 B/s; 1316-byte chunks → ~64 chunks/s.
	if iv := paperStream.ChunkInterval(); math.Abs(iv.Seconds()-1.0/64) > 0.001 {
		t.Fatalf("chunk interval = %v, want ~15.6ms", iv)
	}
}

func TestGenTimeMonotone(t *testing.T) {
	cfg := paperStream
	prev := time.Duration(-1)
	for i := 0; i < 100; i++ {
		g := cfg.GenTime(msg.ChunkID(i))
		if g <= prev {
			t.Fatalf("GenTime not strictly increasing at %d", i)
		}
		prev = g
	}
	if cfg.GenTime(0) != 0 {
		t.Fatal("first chunk should be generated at t=0")
	}
}

func TestChunksBy(t *testing.T) {
	cfg := Config{BitrateBps: 8000, ChunkPayload: 1000} // 1 chunk per second
	if got := cfg.ChunksBy(0); got != 1 {
		t.Fatalf("ChunksBy(0) = %d, want 1", got)
	}
	if got := cfg.ChunksBy(2500 * time.Millisecond); got != 3 {
		t.Fatalf("ChunksBy(2.5s) = %d, want 3", got)
	}
	if got := cfg.ChunksBy(-time.Second); got != 0 {
		t.Fatalf("ChunksBy(-1s) = %d, want 0", got)
	}
}

func TestPlayoutEarliestArrivalWins(t *testing.T) {
	p := NewPlayout(paperStream)
	p.Received(5, 100*time.Millisecond)
	p.Received(5, 50*time.Millisecond)
	p.Received(5, 200*time.Millisecond)
	// The earliest arrival (50ms) must be the one retained: with total=6 the
	// chunk is on time for a 50ms lag but would not be at its later arrivals.
	lag := 50*time.Millisecond - paperStream.GenTime(5)
	if r := p.DeliveredRatio(6, lag); math.Abs(r-1.0/6) > 1e-12 {
		t.Fatalf("ratio = %v, want 1/6 (earliest arrival retained)", r)
	}
}

func TestDeliveredRatio(t *testing.T) {
	cfg := Config{BitrateBps: 8000, ChunkPayload: 1000} // 1 chunk/s
	p := NewPlayout(cfg)
	// Chunks 0,1,2 generated at 0s,1s,2s. Receive 0 at 1s (lag 1s),
	// 1 at 3s (lag 2s); chunk 2 never arrives.
	p.Received(0, time.Second)
	p.Received(1, 3*time.Second)
	if r := p.DeliveredRatio(3, time.Second); math.Abs(r-1.0/3) > 1e-12 {
		t.Fatalf("ratio at lag 1s = %v, want 1/3", r)
	}
	if r := p.DeliveredRatio(3, 2*time.Second); math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("ratio at lag 2s = %v, want 2/3", r)
	}
	if r := p.DeliveredRatio(3, 10*time.Second); math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("missing chunk should cap ratio at 2/3, got %v", r)
	}
	if r := p.DeliveredRatio(0, time.Second); r != 0 {
		t.Fatalf("ratio over zero chunks = %v, want 0", r)
	}
}

func TestViewsClearStream(t *testing.T) {
	cfg := Config{BitrateBps: 8000, ChunkPayload: 1000}
	p := NewPlayout(cfg)
	for i := 0; i < 99; i++ {
		p.Received(msg.ChunkID(i), cfg.GenTime(msg.ChunkID(i))+time.Millisecond)
	}
	// 99/100 on time is clear at ClearThreshold (0.99); 99/101 is not.
	if !p.ViewsClearStream(100, time.Second) {
		t.Fatal("99% delivery should be clear")
	}
	if p.ViewsClearStream(101, time.Second) {
		t.Fatal("98% delivery should not be clear")
	}
}

func TestHealthCurveMonotone(t *testing.T) {
	cfg := Config{BitrateBps: 8000, ChunkPayload: 1000}
	var playouts []*Playout
	for n := 0; n < 10; n++ {
		p := NewPlayout(cfg)
		for i := 0; i < 50; i++ {
			// Node n receives chunk i with lag n·100ms.
			p.Received(msg.ChunkID(i), cfg.GenTime(msg.ChunkID(i))+time.Duration(n)*100*time.Millisecond)
		}
		playouts = append(playouts, p)
	}
	lags := []time.Duration{0, 250 * time.Millisecond, 450 * time.Millisecond, time.Second}
	h := Health(playouts, 50, lags)
	// Health must be non-decreasing in lag and reach 1 at 1s.
	for i := 1; i < len(h); i++ {
		if h[i] < h[i-1] {
			t.Fatalf("health not monotone: %v", h)
		}
	}
	if h[len(h)-1] != 1 {
		t.Fatalf("health at 1s = %v, want 1", h[len(h)-1])
	}
	// At lag 250ms, nodes 0,1,2 view clear (lag 0,100,200ms): 3/10.
	if math.Abs(h[1]-0.3) > 1e-12 {
		t.Fatalf("health at 250ms = %v, want 0.3", h[1])
	}
}

func TestHealthEmpty(t *testing.T) {
	h := Health(nil, 10, []time.Duration{0, time.Second})
	for _, v := range h {
		if v != 0 {
			t.Fatal("health of empty population should be 0")
		}
	}
}
