package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stream"
)

// fastOptions is a scaled-down scenario that finishes in a couple of
// wall-clock seconds under the udp backend: short gossip period, small
// population.
func fastOptions(backend runtime.Kind, n int) Options {
	const tg = 60 * time.Millisecond
	return Options{
		N:       n,
		Seed:    3,
		Backend: backend,
		Gossip: gossip.Config{
			F:              6,
			Period:         tg,
			ChunkPayload:   256,
			HistoryPeriods: 50,
		},
		Core: core.Config{
			F:              6,
			Period:         tg,
			Pdcc:           1,
			HistoryPeriods: 50,
			Gamma:          8,
			Eta:            -1e9,
		},
		Rep:         reputation.Config{M: 8, Eta: -1e9},
		Stream:      stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		NetDefaults: net.Uniform(0, 2*time.Millisecond),
		LiFTinG:     true,
	}
}

// TestScenarioAgreesAcrossBackends is the acceptance check for the runtime
// seam: one cluster-assembled freerider scenario executes under the
// discrete-event engine AND the UDP socket transport, and LiFTinG's verdict
// — freeriders score below honest nodes — agrees.
func TestScenarioAgreesAcrossBackends(t *testing.T) {
	const (
		n         = 24
		firstFree = 20
		duration  = 2400 * time.Millisecond
	)
	verdict := func(backend runtime.Kind) (honest, riders float64) {
		opts := fastOptions(backend, n)
		opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id >= firstFree {
				return freerider.Degree{Delta1: 0.5, Delta2: 0.5, Delta3: 0.5}
			}
			return nil
		}
		c := New(opts)
		c.Start()
		c.StartStream(duration)
		c.Run(duration + 200*time.Millisecond)
		c.Close()
		scores := c.Scores()
		var nh, nr int
		for id, s := range scores {
			switch {
			case id == 0:
			case id >= firstFree:
				riders += s
				nr++
			default:
				honest += s
				nh++
			}
		}
		return honest / float64(nh), riders / float64(nr)
	}

	for _, backend := range []runtime.Kind{runtime.KindSim, runtime.KindUDP} {
		h, r := verdict(backend)
		t.Logf("backend %v: honest mean %.2f, freerider mean %.2f", backend, h, r)
		if r >= h {
			t.Errorf("backend %v: freerider mean %.2f not below honest mean %.2f", backend, r, h)
		}
	}
}

// TestLiveBackendDisseminates checks the plain dissemination path through
// the seam on the wall-clock backend (loopback UDP sockets; "live" in these
// test names means live sockets and real time): chunks injected at the
// source reach everyone through the codec, with and without modelled loss,
// and under loss the traffic books still balance.
func TestLiveBackendDisseminates(t *testing.T) {
	for _, loss := range []float64{0, 0.05} {
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			opts := fastOptions(runtime.KindUDP, 16)
			opts.NetDefaults = net.Uniform(loss, 2*time.Millisecond)
			c := New(opts)
			c.Start()
			c.StartStream(time.Second)
			c.Run(1500 * time.Millisecond)
			c.Close()
			total := opts.Stream.ChunksBy(800 * time.Millisecond)
			if total == 0 {
				t.Fatal("no chunks scheduled")
			}
			// Every node should hold most of the early chunks.
			for id, node := range c.Nodes {
				got := 0
				for ch := 0; ch < total; ch++ {
					if node.Have(msg.ChunkID(ch)) {
						got++
					}
				}
				if got*2 < total {
					t.Errorf("node %d received %d/%d chunks over the udp backend", id, got, total)
				}
			}
			if c.Collector.SentMsgs(msg.KindAck) == 0 {
				t.Error("no verification traffic crossed the udp backend")
			}
			// Conservation bound: each send is delivered or dropped at most
			// once (messages in flight when Close cancels their timers are
			// the only ones unaccounted, so ≤ rather than =).
			var sent, recv, dropped uint64
			for k := msg.Kind(1); k <= msg.KindHandoff; k++ {
				sent += c.Collector.SentMsgs(k)
				recv += c.Collector.RecvMsgs(k)
				dropped += c.Collector.Dropped(k)
			}
			if recv+dropped > sent {
				t.Errorf("conservation broke: sent %d, delivered %d + dropped %d", sent, recv, dropped)
			}
			if loss > 0 && dropped == 0 {
				t.Errorf("%v loss produced no recorded drops", loss)
			}
		})
	}
}

// metricsFingerprint renders everything a run measures — scores (exact
// bits), expulsions, churn records, traffic counters — into one string.
func metricsFingerprint(c *Cluster) string {
	scores := c.Scores()
	ids := make([]msg.NodeID, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ""
	for _, id := range ids {
		out += fmt.Sprintf("s[%d]=%016x\n", id, math.Float64bits(scores[id]))
	}
	for _, id := range ids {
		if at, ok := c.Expelled[id]; ok {
			out += fmt.Sprintf("expelled[%d]=%d\n", id, at)
		}
		if at, ok := c.Joined[id]; ok {
			out += fmt.Sprintf("joined[%d]=%d\n", id, at)
		}
		if at, ok := c.Departed[id]; ok {
			out += fmt.Sprintf("departed[%d]=%d\n", id, at)
		}
	}
	for k := msg.Kind(1); k < 32; k++ {
		if n := c.Collector.SentMsgs(k); n > 0 {
			out += fmt.Sprintf("sent[%d]=%d dropped[%d]=%d\n", k, n, k, c.Collector.Dropped(k))
		}
	}
	out += fmt.Sprintf("handoffs=%d events=%d\n", c.Handoffs(), c.Engine.Events())
	return out
}

// TestSeedReproducibilityByteIdentical runs the same churn-heavy scenario
// twice with the same seed and asserts byte-identical metrics, so the
// runtime seam and the parallelism work cannot silently break determinism.
func TestSeedReproducibilityByteIdentical(t *testing.T) {
	runOnce := func() string {
		opts := fastOptions(runtime.KindSim, 30)
		opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id >= 26 {
				return freerider.Degree{Delta1: 0.4, Delta2: 0.4, Delta3: 0.4}
			}
			return nil
		}
		c := New(opts)
		c.Start()
		c.StartStream(2 * time.Second)
		c.ScheduleJoin(500 * time.Millisecond)
		c.ScheduleJoin(900 * time.Millisecond)
		c.ScheduleLeave(1200*time.Millisecond, 7)
		c.ScheduleLeave(1500*time.Millisecond, 13)
		c.Run(2200 * time.Millisecond)
		return metricsFingerprint(c)
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("two identical seeded runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestChurnScenario exercises joins and leaves mid-stream on the sim
// backend: arrivals catch up with the stream, departures stop receiving,
// manager duties are handed off, and freerider detection keeps working.
func TestChurnScenario(t *testing.T) {
	opts := fastOptions(runtime.KindSim, 40)
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if id >= 36 && id < 40 {
			return freerider.Degree{Delta1: 0.5, Delta2: 0.5, Delta3: 0.5}
		}
		return nil
	}
	c := New(opts)
	c.Start()
	const duration = 3 * time.Second
	c.StartStream(duration)

	var joined []msg.NodeID
	for i := 0; i < 5; i++ {
		joined = append(joined, c.ScheduleJoin(time.Duration(i+1)*300*time.Millisecond))
	}
	leavers := []msg.NodeID{5, 11, 17, 23}
	for i, id := range leavers {
		c.ScheduleLeave(time.Duration(i+4)*300*time.Millisecond, id)
	}
	c.Run(duration + 200*time.Millisecond)

	for _, id := range joined {
		if _, ok := c.Joined[id]; !ok {
			t.Fatalf("scheduled join %d never happened", id)
		}
		if !c.Dir.Alive(id) {
			t.Errorf("joined node %d not alive", id)
		}
		if got := c.Nodes[id].ChunkCount(); got < 20 {
			t.Errorf("churn arrival %d only caught %d chunks", id, got)
		}
	}
	for _, id := range leavers {
		if _, ok := c.Departed[id]; !ok {
			t.Fatalf("scheduled leave %d never happened", id)
		}
		if c.Dir.Alive(id) {
			t.Errorf("departed node %d still alive", id)
		}
		if !c.Nodes[id].Stopped() {
			t.Errorf("departed node %d still running", id)
		}
	}
	if c.Handoffs() == 0 {
		t.Error("membership churn triggered no reputation-manager handoffs")
	}
	if c.Dir.NAlive() != 40+len(joined)-len(leavers) {
		t.Errorf("alive count %d, want %d", c.Dir.NAlive(), 40+len(joined)-len(leavers))
	}

	// Freerider detection must survive churn: min-vote scores of surviving
	// freeriders stay below the honest survivors' mean.
	scores := c.Scores()
	var honest, riders float64
	var nh, nr int
	for _, id := range c.Dir.All() {
		if id == 0 || !c.Dir.Alive(id) {
			continue
		}
		if c.Freeriders[id] {
			riders += scores[id]
			nr++
		} else {
			honest += scores[id]
			nh++
		}
	}
	if nr == 0 {
		t.Fatal("no freeriders survived the scenario")
	}
	if riders/float64(nr) >= honest/float64(nh) {
		t.Errorf("freerider mean %.2f not below honest mean %.2f under churn",
			riders/float64(nr), honest/float64(nh))
	}
}

// TestChurnRunsUnderLiveBackend runs the same churn wiring on the
// wall-clock backend (loopback UDP): joins and leaves mid-stream with real
// concurrency.
func TestChurnRunsUnderLiveBackend(t *testing.T) {
	opts := fastOptions(runtime.KindUDP, 20)
	c := New(opts)
	c.Start()
	c.StartStream(1500 * time.Millisecond)
	id := c.ScheduleJoin(300 * time.Millisecond)
	c.ScheduleLeave(600*time.Millisecond, 5)
	c.Run(1800 * time.Millisecond)
	c.Close()

	if _, ok := c.Joined[id]; !ok {
		t.Fatal("join never happened under the udp backend")
	}
	if _, ok := c.Departed[5]; !ok {
		t.Fatal("leave never happened under the udp backend")
	}
	if got := c.Nodes[id].ChunkCount(); got == 0 {
		t.Error("udp churn arrival received nothing")
	}
	if !c.Nodes[5].Stopped() {
		t.Error("udp departed node still running")
	}
	if d := c.duties[5]; d.p > c.Period()/2 {
		t.Errorf("udp departed node's duty reached period %d of %d; it left at about a third of the run", d.p, c.Period())
	}
}
