package net

import (
	"math"
	"testing"
	"time"

	"lifting/internal/rng"
)

// oracleLink is the link code SimNet.Send carried inline before Link stated
// it once, kept as Link's differential oracle: the cut check, the loss
// draw, the latency with its jitter, the reliable-setup factor, the reorder
// hold and the duplicate, drawn from rand in that order. It returns the
// latency, the copies that arrive (0: cut or lost) and whether the message
// was held back.
func oracleLink(src, dst *Conditions, mode Mode, rand *rng.Stream) (time.Duration, int, bool) {
	if src.Down || dst.Down || Partitioned(src.PartitionGroup, dst.PartitionGroup) {
		return 0, 0, false
	}
	if mode == Unreliable {
		if rand.Bernoulli(dst.LossIn) {
			return 0, 0, false
		}
	}
	latency := src.LatencyBase/2 + dst.LatencyBase/2
	jitter := src.LatencyJitter/2 + dst.LatencyJitter/2
	if jitter > 0 {
		latency += time.Duration(rand.Float64() * float64(jitter))
	}
	if mode == Reliable {
		latency *= ReliableSetupFactor
	}
	held := false
	if mode == Unreliable && rand.Bernoulli(src.ReorderProb) {
		held = true
		latency += src.ReorderDelay
	}
	copies := 1
	if mode == Unreliable && rand.Bernoulli(src.DupProb) {
		copies = 2
	}
	return latency, copies, held
}

// FuzzLinkModel drives Link and oracleLink from two streams of one seed, for
// fuzzer-written conditions and mode, and demands the same latency, copies
// and hold, and the same next draw from both streams afterwards: Link moves
// the stream exactly as the sim's inline code did, so every seeded document
// stays byte-equal. Probabilities are folded into [0, 1] and durations are
// at most a uint32 of nanoseconds (odd ones test the halving). The fields
// of the end Link must not read get other values than the ones it must, so
// reading the wrong end shows.
//
// flags: bit 0 Reliable, bit 1 a lossless destination (what a udp sender
// passes, its receiver drawing the loss), bits 2 and 3 src and dst down,
// bits 4–5 and 6–7 the src and dst partition groups. The committed corpus
// under testdata/fuzz replays on every plain `go test`.
func FuzzLinkModel(f *testing.F) {
	f.Add(uint64(1), uint8(0x00), 0.04, 0.0, 0.0, uint32(20e6), uint32(20e6), uint32(0), uint32(0), uint32(0))
	f.Add(uint64(7), uint8(0x00), 0.5, 0.5, 0.5, uint32(5e6+1), uint32(3), uint32(4e6+1), uint32(7), uint32(20e6))
	f.Add(uint64(9), uint8(0x01), 0.3, 1.0, 1.0, uint32(2e6), uint32(2e6), uint32(4e6), uint32(4e6), uint32(1e6))
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8, loss, reorder, dup float64, srcBase, dstBase, srcJitter, dstJitter, hold uint32) {
		loss, reorder, dup = prob(loss), prob(reorder), prob(dup)
		mode := Unreliable
		if flags&1 != 0 {
			mode = Reliable
		}
		src := Conditions{
			LossIn:         1 - loss,
			LatencyBase:    time.Duration(srcBase),
			LatencyJitter:  time.Duration(srcJitter),
			Down:           flags&4 != 0,
			PartitionGroup: flags >> 4 & 3,
			ReorderProb:    reorder,
			ReorderDelay:   time.Duration(hold),
			DupProb:        dup,
		}
		dst := Conditions{
			LossIn:         loss,
			LatencyBase:    time.Duration(dstBase),
			LatencyJitter:  time.Duration(dstJitter),
			Down:           flags&8 != 0,
			PartitionGroup: flags >> 6,
			ReorderProb:    1 - reorder,
			ReorderDelay:   time.Duration(hold/3 + 1),
			DupProb:        1 - dup,
		}
		if flags&2 != 0 {
			dst.LossIn = 0
		}
		got, oracle := rng.New(seed), rng.New(seed)
		gotLatency, gotCopies, gotHeld := Link(&src, &dst, mode, got)
		wantLatency, wantCopies, wantHeld := oracleLink(&src, &dst, mode, oracle)
		if gotLatency != wantLatency || gotCopies != wantCopies || gotHeld != wantHeld {
			t.Fatalf("Link = %v, %d copies, held %v; the oracle says %v, %d, %v", gotLatency, gotCopies, gotHeld, wantLatency, wantCopies, wantHeld)
		}
		if a, b := got.Float64(), oracle.Float64(); a != b {
			t.Fatalf("Link left its stream at %v, the oracle at %v", a, b)
		}
	})
}

// prob folds a fuzzed float into [0, 1].
func prob(p float64) float64 {
	switch {
	case p >= 0 && p <= 1:
		return p
	case math.IsNaN(p) || math.IsInf(p, 0):
		return 1
	}
	return math.Abs(math.Mod(p, 1))
}
