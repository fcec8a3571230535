// Package stream models the broadcast content: a source emitting fixed-size
// chunks at a target bitrate, and per-node playout tracking used to compute
// the paper's health metric — the fraction of nodes able to view a clear
// stream as a function of the stream lag (Figure 1).
package stream

import (
	"fmt"
	"time"

	"lifting/internal/msg"
)

// Config describes the broadcast stream.
type Config struct {
	// BitrateBps is the stream bitrate in bits per second (the paper uses
	// 674, 1082 and 2036 kbps).
	BitrateBps int
	// ChunkPayload is the chunk payload size in bytes.
	ChunkPayload int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BitrateBps <= 0 {
		return fmt.Errorf("stream: bitrate must be positive, got %d", c.BitrateBps)
	}
	if c.ChunkPayload <= 0 {
		return fmt.Errorf("stream: chunk payload must be positive, got %d", c.ChunkPayload)
	}
	return nil
}

// ChunkInterval returns the time between consecutive chunk emissions.
func (c Config) ChunkInterval() time.Duration {
	bytesPerSecond := float64(c.BitrateBps) / 8
	return time.Duration(float64(c.ChunkPayload) / bytesPerSecond * float64(time.Second))
}

// GenTime returns the instant chunk c is generated by the source, measured
// from the start of the broadcast.
func (c Config) GenTime(id msg.ChunkID) time.Duration {
	return time.Duration(id) * c.ChunkInterval()
}

// ChunksBy returns the number of chunks generated by time t (chunk ids
// 0..n-1).
func (c Config) ChunksBy(t time.Duration) int {
	if t < 0 {
		return 0
	}
	return int(t/c.ChunkInterval()) + 1
}

// Playout records chunk arrival times at one node.
type Playout struct {
	cfg     Config
	arrived map[msg.ChunkID]time.Duration
}

// NewPlayout returns an empty playout tracker.
func NewPlayout(cfg Config) *Playout {
	return &Playout{cfg: cfg, arrived: make(map[msg.ChunkID]time.Duration)}
}

// Received records that chunk id arrived at time at. Duplicate arrivals keep
// the earliest time.
func (p *Playout) Received(id msg.ChunkID, at time.Duration) {
	if prev, ok := p.arrived[id]; ok && prev <= at {
		return
	}
	p.arrived[id] = at
}

// DeliveredRatio returns the fraction of the first total chunks that arrived
// within lag of their generation time. This is the per-node ingredient of
// the paper's "clear stream" metric.
func (p *Playout) DeliveredRatio(total int, lag time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	ok := 0
	for i := 0; i < total; i++ {
		id := msg.ChunkID(i)
		at, got := p.arrived[id]
		if got && at <= p.cfg.GenTime(id)+lag {
			ok++
		}
	}
	return float64(ok) / float64(total)
}

// ViewsClearStream reports whether the node can view a clear stream at the
// given lag: at least ClearThreshold of the first total chunks arrived within
// lag of generation.
func (p *Playout) ViewsClearStream(total int, lag time.Duration) bool {
	return p.DeliveredRatio(total, lag) >= ClearThreshold
}

// ClearThreshold is the delivered-ratio above which a stream is considered
// clear (99%, following the jitter-free convention of the gossip streaming
// literature the paper builds on).
const ClearThreshold = 0.99

// Health computes the fraction of nodes viewing a clear stream at each lag,
// over the first total chunks — the y-axis of Figure 1.
func Health(playouts []*Playout, total int, lags []time.Duration) []float64 {
	out := make([]float64, len(lags))
	if len(playouts) == 0 {
		return out
	}
	for li, lag := range lags {
		viewing := 0
		for _, p := range playouts {
			if p.ViewsClearStream(total, lag) {
				viewing++
			}
		}
		out[li] = float64(viewing) / float64(len(playouts))
	}
	return out
}
