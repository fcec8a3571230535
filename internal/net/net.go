// Package net provides the simulated network substrate that replaces the
// paper's PlanetLab deployment: lossy UDP-like and reliable TCP-like message
// delivery with per-node loss rates, latency jitter and uplink bandwidth
// caps. Heterogeneous node conditions reproduce the "nodes with poor
// connectivity" population responsible for most of the paper's false
// positives (§7.3). Link states the link model once; SimNet and the udp
// runtime of internal/transport both apply it.
package net

import (
	"time"

	"lifting/internal/msg"
)

// Mode selects delivery semantics for a message.
type Mode uint8

// Delivery modes. Unreliable models UDP (messages lost with the link's loss
// probability); Reliable models TCP (no loss, connection setup latency).
// LiFTinG sends direct cross-checking over UDP and audits over TCP (§5).
const (
	Unreliable Mode = iota + 1
	Reliable
)

// Handler receives messages addressed to a node. Implementations are invoked
// serially per node by both runtimes.
type Handler interface {
	HandleMessage(from msg.NodeID, m msg.Message)
}

// Network is the sending side seen by protocol nodes.
type Network interface {
	// Send transmits m from one node to another with the given delivery
	// semantics. Delivery is asynchronous.
	Send(from, to msg.NodeID, m msg.Message, mode Mode)
}

// Conditions models one node's connection quality.
type Conditions struct {
	// LossIn is the per-message Bernoulli loss probability applied to
	// unreliable traffic entering the node: one draw per message, the
	// receiver's, as in the analysis (§6.2).
	LossIn float64
	// LatencyBase is the one-way propagation delay; LatencyJitter adds a
	// uniform random component in [0, LatencyJitter).
	LatencyBase, LatencyJitter time.Duration
	// UplinkBps caps the node's upload bandwidth in bytes per second;
	// 0 means unlimited. Messages queue at the uplink, which is how a
	// poorly provisioned node ends up late (and wrongfully blamed). Only
	// SimNet models it: on udp the uplink is the socket's, and every
	// uplink-capped workload runs on the sim only.
	UplinkBps float64
	// Down marks the node as departed or expelled: all its traffic is
	// dropped in both directions.
	Down bool
	// PartitionGroup places the node in a network partition. Two nodes
	// whose groups are both nonzero and different cannot exchange traffic;
	// group 0 (the default) is unpartitioned and reaches everyone. The
	// fault-injection plane flips these to model split-brain episodes.
	PartitionGroup uint8
	// DupProb duplicates each unreliable message leaving the node with
	// this probability: a second identical copy is transmitted (and
	// accounted) right behind the first.
	DupProb float64
	// ReorderProb delays an unreliable message leaving the node by an
	// extra ReorderDelay with this probability, letting later sends
	// overtake it on the wire.
	ReorderProb  float64
	ReorderDelay time.Duration
}

// Partitioned reports whether traffic between nodes with groups a and b is
// cut by a partition.
func Partitioned(a, b uint8) bool {
	return a != 0 && b != 0 && a != b
}

// ReliableSetupFactor models the extra one-way latency of establishing a TCP
// connection (SYN/SYN-ACK) relative to a bare datagram: Link scales a
// reliable send's latency by it.
const ReliableSetupFactor = 3

// Rand is the source of Link's draws: a uniform value in [0, 1), and a coin
// that is true with probability p. *rng.Stream is one.
type Rand interface {
	Float64() float64
	Bernoulli(p float64) bool
}

// Link is the link model, stated once for every runtime: what the network
// does to one message sent in mode from a node with conditions src to one
// with dst. It returns how many copies arrive, after what delay, and whether
// the message was held back by a reorder, so that later sends overtake it.
//
// No copy arrives (copies 0) when either end is down or a partition
// separates them, or when the message is lost: an Unreliable message is
// lost with dst.LossIn — a udp sender passes a dst without it, because its
// receiver draws its own. Otherwise the delay is each end's half of
// LatencyBase, plus a uniform draw over each end's half of LatencyJitter,
// times ReliableSetupFactor in Reliable mode. An
// Unreliable message is then held back by src.ReorderDelay with
// src.ReorderProb, and arrives twice with src.DupProb.
//
// The draws come in that order — loss, jitter, reorder, duplication — and
// only those the conditions call for, so a lossless link without jitter,
// reordering or duplication draws nothing.
func Link(src, dst *Conditions, mode Mode, rand Rand) (delay time.Duration, copies int, held bool) {
	if src.Down || dst.Down || Partitioned(src.PartitionGroup, dst.PartitionGroup) {
		return 0, 0, false
	}
	unreliable := mode == Unreliable
	if unreliable && rand.Bernoulli(dst.LossIn) {
		return 0, 0, false
	}
	delay = src.LatencyBase/2 + dst.LatencyBase/2
	if jitter := src.LatencyJitter/2 + dst.LatencyJitter/2; jitter > 0 {
		delay += time.Duration(rand.Float64() * float64(jitter))
	}
	if mode == Reliable {
		delay *= ReliableSetupFactor
	}
	copies = 1
	if unreliable {
		if held = rand.Bernoulli(src.ReorderProb); held {
			delay += src.ReorderDelay
		}
		if rand.Bernoulli(src.DupProb) {
			copies = 2
		}
	}
	return delay, copies, held
}

// Uniform returns homogeneous conditions with the given loss probability and
// latency, unlimited bandwidth. This matches the i.i.d. Bernoulli loss model
// of the paper's analysis (§6.2).
func Uniform(loss float64, latency time.Duration) Conditions {
	return Conditions{
		LossIn:      loss,
		LatencyBase: latency,
	}
}
