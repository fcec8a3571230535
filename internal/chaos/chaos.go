// Package chaos is the deterministic fault-injection plane: a seeded
// schedule of crashes, restarts, partitions, correlated loss bursts and
// standing duplication/reordering/clock-skew that layers onto any runtime
// backend. The schedule is materialized up front as a Plan — a plain value
// derived only from a Config — so the same seed produces the same faults on
// the simulator, the in-process UDP runtime and a multi-process deployment, and
// the sharded simulator stays byte-identical across shard counts (events
// are applied from the harness timer, which runs in the engine's global
// phase).
//
// LiFTinG's guarantees (conf_middleware_GuerraouiHKMP10 §4–§5) are
// statistical claims about detection under faulty conditions; this package
// is what lets the soak experiment assert them as standing invariants
// instead of clean-room point checks.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"lifting/internal/msg"
	"lifting/internal/rng"
)

// EventKind identifies one scheduled fault transition.
type EventKind uint8

const (
	// Crash takes the target nodes down hard: their processes stop, their
	// traffic is dropped in both directions, and their in-memory protocol
	// state is lost. Reputation state survives on the (remote) managers.
	Crash EventKind = iota + 1
	// Restart brings previously crashed nodes back with fresh protocol
	// state; their manager score entries must be re-adopted, not reset.
	Restart
	// Partition splits the network: Nodes form the minority island, every
	// other alive node the majority. Traffic across the cut is dropped.
	Partition
	// Heal removes the partition installed by the preceding Partition
	// event.
	Heal
	// LossBurst overlays a correlated inbound loss probability (Loss) on
	// the target nodes — the "regional outage" pattern.
	LossBurst
	// LossHeal removes the loss burst from the target nodes.
	LossHeal
)

// String names the kind for transcripts and tables.
func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case LossBurst:
		return "loss-burst"
	case LossHeal:
		return "loss-heal"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fault transition at a virtual-time offset from the start of
// the run.
type Event struct {
	At    time.Duration
	Kind  EventKind
	Nodes []msg.NodeID // crash/restart targets, partition minority, burst set
	Loss  float64      // LossBurst only: the correlated inbound loss
}

// Plan is a complete fault schedule plus the standing link perturbations
// applied for the whole run. A Plan is pure data: generating it draws all
// randomness up front, so applying it costs no draws and cannot perturb the
// protocol's random streams.
type Plan struct {
	Events []Event
	// Skew maps a node to its clock-rate factor: 1.05 fires every local
	// timer 5% late, against which the period auditor must hold.
	Skew map[msg.NodeID]float64
	// ReorderDelay turns on standing duplication (DupProb) and reordering
	// (ReorderProb, each reordered message delayed by ReorderDelay) on every
	// node's uplink for the whole run; zero leaves both off.
	ReorderDelay time.Duration
}

// The magnitudes every fault schedule shares: the correlated loss of a
// burst, the standing duplication and reordering probabilities, and the
// largest relative clock skew (0.02 = ±2%).
const (
	burstLoss   = 0.25
	DupProb     = 0.01
	ReorderProb = 0.02
	skewMax     = 0.02
)

// Config seeds a Plan. The zero value of any knob disables that fault class.
type Config struct {
	Seed     uint64
	Duration time.Duration
	// Candidates are the nodes faults may target. Keep the stream source
	// (and any node whose expulsion an oracle asserts) out of this list.
	Candidates []msg.NodeID

	Crashes int           // crash→restart cycles, one node each
	Outage  time.Duration // down time between a crash and its restart

	Partitions    int           // partition→heal episodes
	PartitionSpan time.Duration // how long each partition holds
	PartitionSize int           // minority island size (nodes)

	LossBursts int           // correlated-loss episodes, burstLoss each
	BurstSpan  time.Duration // how long each burst holds
	BurstSize  int           // nodes per burst

	ReorderDelay time.Duration // see Plan.ReorderDelay

	SkewCount int // how many candidates run clocks skewed by up to skewMax
}

// Generate materializes the deterministic fault schedule for cfg. All
// randomness is drawn here, from a stream derived from cfg.Seed alone, in a
// fixed order — two calls with equal configs return identical plans.
//
// Faults land in the middle half of the run, [Duration/4, 3·Duration/4]:
// the first quarter lets the protocol ramp up cleanly and the last quarter
// gives every heal time to recover, which is what the soak's
// goodput-recovery and zero-honest-expulsion oracles measure.
func Generate(cfg Config) *Plan {
	r := rng.New(cfg.Seed).Derive("chaos")
	p := &Plan{
		Skew:         map[msg.NodeID]float64{},
		ReorderDelay: cfg.ReorderDelay,
	}
	if len(cfg.Candidates) == 0 || cfg.Duration <= 0 {
		return p
	}
	window := cfg.Duration / 2
	start := cfg.Duration / 4
	at := func(s *rng.Stream) time.Duration {
		return start + time.Duration(s.Float64()*float64(window))
	}

	cr := r.Derive("crash")
	ncr := cfg.Crashes
	if ncr > len(cfg.Candidates) {
		ncr = len(cfg.Candidates)
	}
	// Distinct targets: one crash→restart cycle per node keeps every
	// cycle well-formed even when outages overlap in time.
	for _, idx := range cr.SampleK(len(cfg.Candidates), ncr) {
		target := cfg.Candidates[idx]
		t := at(cr)
		up := t + cfg.Outage
		if up > start+window {
			up = start + window
		}
		p.Events = append(p.Events,
			Event{At: t, Kind: Crash, Nodes: []msg.NodeID{target}},
			Event{At: up, Kind: Restart, Nodes: []msg.NodeID{target}})
	}

	pa := r.Derive("partition")
	for i := 0; i < cfg.Partitions; i++ {
		size := cfg.PartitionSize
		if size <= 0 || size > len(cfg.Candidates) {
			size = len(cfg.Candidates) / 4
		}
		if size == 0 {
			break
		}
		island := pa.SampleK(len(cfg.Candidates), size)
		nodes := make([]msg.NodeID, 0, size)
		for _, idx := range island {
			nodes = append(nodes, cfg.Candidates[idx])
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		t := at(pa)
		heal := t + cfg.PartitionSpan
		if heal > start+window {
			heal = start + window
		}
		p.Events = append(p.Events,
			Event{At: t, Kind: Partition, Nodes: nodes},
			Event{At: heal, Kind: Heal, Nodes: nodes})
	}

	lb := r.Derive("burst")
	for i := 0; i < cfg.LossBursts; i++ {
		size := cfg.BurstSize
		if size <= 0 || size > len(cfg.Candidates) {
			size = len(cfg.Candidates) / 4
		}
		if size == 0 {
			break
		}
		hit := lb.SampleK(len(cfg.Candidates), size)
		nodes := make([]msg.NodeID, 0, size)
		for _, idx := range hit {
			nodes = append(nodes, cfg.Candidates[idx])
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		t := at(lb)
		heal := t + cfg.BurstSpan
		if heal > start+window {
			heal = start + window
		}
		p.Events = append(p.Events,
			Event{At: t, Kind: LossBurst, Nodes: nodes, Loss: burstLoss},
			Event{At: heal, Kind: LossHeal, Nodes: nodes})
	}

	sk := r.Derive("skew")
	if cfg.SkewCount > 0 {
		count := cfg.SkewCount
		if count > len(cfg.Candidates) {
			count = len(cfg.Candidates)
		}
		for _, idx := range sk.SampleK(len(cfg.Candidates), count) {
			// Uniform in [-skewMax, +skewMax], excluding the exact center
			// only by measure zero; 1.0 would just be a no-op.
			p.Skew[cfg.Candidates[idx]] = 1 + (sk.Float64()*2-1)*skewMax
		}
	}

	sortEvents(p.Events)
	return p
}

// DeploymentConfig returns the standard fault schedule for a multi-process
// deployment: every knob is a pure function of the flags all processes
// already share (seed, duration, gossip period) and the candidate list, so
// each lifting-node process generates the identical Plan independently and
// replays it on its own clock.
func DeploymentConfig(seed uint64, duration, period time.Duration, candidates []msg.NodeID) Config {
	n := len(candidates)
	island := n / 5
	if island < 1 {
		island = 1
	}
	crashes := n / 8
	if crashes < 1 {
		crashes = 1
	}
	if crashes > 3 {
		crashes = 3
	}
	return Config{
		Seed:       seed,
		Duration:   duration,
		Candidates: candidates,

		Crashes: crashes,
		Outage:  4 * period,

		Partitions:    1,
		PartitionSpan: 8 * period,
		PartitionSize: island,

		LossBursts: 1,
		BurstSpan:  8 * period,
		BurstSize:  island,

		ReorderDelay: period / 10,

		SkewCount: 2,
	}
}

// sortEvents orders the schedule by time, breaking ties by kind then first
// target so application order is deterministic.
func sortEvents(ev []Event) {
	sort.SliceStable(ev, func(i, j int) bool {
		if ev[i].At != ev[j].At {
			return ev[i].At < ev[j].At
		}
		if ev[i].Kind != ev[j].Kind {
			return ev[i].Kind < ev[j].Kind
		}
		if len(ev[i].Nodes) > 0 && len(ev[j].Nodes) > 0 {
			return ev[i].Nodes[0] < ev[j].Nodes[0]
		}
		return false
	})
}

// Counts tallies the schedule by kind, for tables and transcripts.
func (p *Plan) Counts() map[EventKind]int {
	c := map[EventKind]int{}
	for _, e := range p.Events {
		c[e.Kind]++
	}
	return c
}

// SkewFactor returns the clock-rate factor for a node (1.0 when unskewed).
func (p *Plan) SkewFactor(id msg.NodeID) float64 {
	if f, ok := p.Skew[id]; ok && f > 0 {
		return f
	}
	return 1
}
