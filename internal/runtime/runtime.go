// Package runtime defines the execution seam between protocol assembly and
// protocol execution. A Runtime bundles everything a running LiFTinG system
// needs from its host — a clock, per-node timers, a message-passing network
// and node lifecycle control — without fixing how any of it is implemented.
//
// Two backends implement the interface, one per evaluation in the paper:
//
//   - the deterministic discrete-event pair sim.Engine + net.SimNet, wrapped
//     by SimBackend in this package (virtual time, bit-reproducible — the
//     Monte-Carlo workhorse of §6);
//   - transport.Runtime (wall-clock time, one UDP socket per node, messages
//     framed through the binary codec — the deployment backend of §7).
//
// internal/cluster assembles gossip nodes, verifiers, reputation and
// freerider behaviors against this interface only, so every end-to-end
// scenario — quickstart, collusion, PlanetLab heterogeneity, churn — runs
// identically under either backend. This package is on the deterministic
// side of the seam: it holds no wall-clock code.
package runtime

import (
	"context"
	"fmt"
	"time"

	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/sim"
)

// Kind selects an execution backend.
type Kind int

// Available backends. KindSim is the zero value: deterministic simulation is
// the default everywhere.
const (
	// KindSim is the discrete-event engine over virtual time: deterministic
	// per seed, on one goroutine or one per engine shard.
	KindSim Kind = iota
	// KindUDP is the socket-backed runtime in internal/transport: one UDP
	// socket per locally hosted node, messages framed through the binary
	// codec, wall-clock time. It is the deployment backend — a scenario
	// becomes N sockets in one process or N OS processes on a network.
	KindUDP
)

// String returns the backend name.
func (k Kind) String() string {
	switch k {
	case KindSim:
		return "sim"
	case KindUDP:
		return "udp"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the kind as its name, so experiment parameters and
// structured results stay readable ("sim", not 0).
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a kind from its name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return fmt.Errorf("runtime: kind must be a JSON string, got %s", s)
	}
	parsed, err := ParseKind(s[1 : len(s)-1])
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// ParseKind maps a backend name ("sim", "udp") to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "sim":
		return KindSim, nil
	case "udp":
		return KindUDP, nil
	case "live":
		return 0, fmt.Errorf("runtime: backend %q was removed; use udp, the wall-clock backend (loopback sockets, same scenarios)", s)
	default:
		return 0, fmt.Errorf("runtime: unknown backend %q (want sim or udp)", s)
	}
}

// Runtime is the execution environment a protocol deployment runs on.
//
// The concurrency contract mirrors sim.Context: all callbacks for one node
// (message handling, timers, Exec functions) are serialized; callbacks for
// different nodes may run concurrently under a wall-clock backend. Harness
// callbacks scheduled with After run outside any node's serialization.
type Runtime interface {
	// Context returns the execution context (clock + one-shot timers) for a
	// node. Contexts may be requested before the node's handler is attached.
	Context(id msg.NodeID) sim.Context
	// Attach registers the message handler for a node; a nil handler
	// detaches it.
	Attach(id msg.NodeID, h net.Handler)
	// Network returns the sending side shared by all nodes.
	Network() net.Network
	// SetConditions overrides a node's connection quality.
	SetConditions(id msg.NodeID, c net.Conditions)
	// SetDown marks a node as departed (true) or alive (false), preserving
	// its other conditions.
	SetDown(id msg.NodeID, down bool)
	// After schedules a harness callback d from now, outside any node's
	// serialization. Used for global events: score-period ticks, stream
	// injections, churn arrivals.
	After(d time.Duration, fn func())
	// Exec runs fn serialized with node id's callbacks. Under the
	// discrete-event backend it runs inline (harness code runs with every
	// engine shard parked); under a wall-clock backend it is scheduled
	// asynchronously under the node's lock. Do not call Exec from a callback
	// already running under a node's serialization if that could form a lock
	// cycle.
	Exec(id msg.NodeID, fn func())
	// Now returns the time elapsed since the runtime started.
	Now() time.Duration
	// Run advances the runtime to time until: the discrete-event backend
	// drains its queue up to that virtual instant, a wall-clock backend
	// blocks until that much real time has elapsed. Cancelling ctx aborts the
	// advance promptly — the discrete-event backend checks between bounded
	// event bursts, the wall-clock backends wake from their sleep — and Run
	// returns ctx.Err(). A nil error means the full advance completed. After
	// a cancelled Run the runtime is still consistent; call Close to tear it
	// down (wall-clock backends cancel their pending timers there, so a
	// cancelled run does not wait out its schedule).
	Run(ctx context.Context, until time.Duration) error
	// Close stops the runtime and waits for in-flight callbacks. Closing a
	// discrete-event backend is a no-op (nothing runs between events).
	Close()
}

// SimBackend adapts the deterministic sim.Engine + net.SimNet pair to the
// Runtime interface.
type SimBackend struct {
	engine *sim.Engine
	netw   *net.SimNet
}

var _ Runtime = (*SimBackend)(nil)

// NewSim wraps an engine and its simulated network as a Runtime.
func NewSim(engine *sim.Engine, netw *net.SimNet) *SimBackend {
	return &SimBackend{engine: engine, netw: netw}
}

// Context implements Runtime: each node gets its shard-bound domain, which
// serializes that node's callbacks on its shard.
func (s *SimBackend) Context(id msg.NodeID) sim.Context { return s.engine.Domain(int(id)) }

// Attach implements Runtime.
func (s *SimBackend) Attach(id msg.NodeID, h net.Handler) { s.netw.Attach(id, h) }

// Network implements Runtime.
func (s *SimBackend) Network() net.Network { return s.netw }

// SetConditions implements Runtime.
func (s *SimBackend) SetConditions(id msg.NodeID, c net.Conditions) { s.netw.SetConditions(id, c) }

// SetDown implements Runtime.
func (s *SimBackend) SetDown(id msg.NodeID, down bool) { s.netw.SetDown(id, down) }

// After implements Runtime.
func (s *SimBackend) After(d time.Duration, fn func()) { s.engine.After(d, fn) }

// Exec implements Runtime: fn runs inline, preserving the exact event
// ordering of a direct call. Callers are the harness in the global phase
// (every shard parked) or node id's own callbacks, so inline is serialized.
func (s *SimBackend) Exec(_ msg.NodeID, fn func()) { fn() }

// Now implements Runtime.
func (s *SimBackend) Now() time.Duration { return s.engine.Now() }

// runChunkEvents is how many discrete events the sim backend executes
// between cancellation checks: large enough that the check is free next to
// the event work (the benchmark's 4000-node run executes ~850k events/s on two
// cores, so this is a check every ~10 ms), small enough that SIGINT lands
// promptly.
const runChunkEvents = 8192

// Run implements Runtime: events execute in exactly the order of an
// uninterrupted engine.Run, with a cancellation check between bounded
// bursts. RunChunk returning 0 is the done signal — the engine advances in
// whole lookahead windows, so a burst may overshoot the chunk size but
// never reports 0 while work remains.
func (s *SimBackend) Run(ctx context.Context, until time.Duration) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.engine.RunChunk(until, runChunkEvents) == 0 {
			return ctx.Err()
		}
	}
}

// Close implements Runtime: a no-op, nothing runs between events.
func (s *SimBackend) Close() {}
