// Package core implements LiFTinG itself (§5 of the paper): the
// verification procedures that coerce nodes into contributing their fair
// share to the gossip dissemination protocol.
//
//   - Direct verification: requested chunks must be served (blame
//     f·(|R|−|S|)/|R| from the receiver, Table 1).
//   - Direct cross-checking: served chunks must be acknowledged and further
//     proposed to f nodes within a gossip period; the verifier polls the
//     claimed partners with probability pdcc (blames per Table 1).
//   - Local history auditing: the entropy of a node's fanout and fanin
//     histories must exceed γ, and history entries must be confirmed by
//     their alleged receivers (a-posteriori cross-checking).
//
// The Verifier type attaches to a gossip.Node via its Monitor and AuxHandler
// hooks; the Auditor runs sporadically from any node. Blames flow into a
// BlameSink — the message-driven reputation client, or a manager blamed by
// call.
package core

import (
	"fmt"
	"time"

	"lifting/internal/msg"
)

// Config holds LiFTinG's parameters.
type Config struct {
	// F is the protocol fanout (the verifier checks against it).
	F int
	// Period is the gossip period Tg.
	Period time.Duration
	// Pdcc is the probability of triggering direct cross-checking after a
	// serve (§5: 1 purges, 0 disables, anything in between trades overhead
	// for detection speed).
	Pdcc float64
	// HistoryPeriods is nh, the audit horizon in gossip periods.
	HistoryPeriods int
	// Gamma is the entropy threshold γ for fanout/fanin audits (8.95 in
	// the paper for nh·f = 600).
	Gamma float64
	// GammaFanin optionally overrides Gamma for the fanin check. The paper
	// uses one threshold for both at n = 10,000; in small systems the fanin
	// multiset is naturally more skewed (fast nodes win the first-proposal
	// race) and may warrant a lower bar. 0 means use Gamma.
	GammaFanin float64
	// Eta is the expulsion threshold η on normalized scores (−9.75).
	Eta float64
	// PeriodCheckSlack is the fraction of the expected propose phases below
	// which the gossip-period check emits period-stretch blame. Defaults to
	// 0.8 (tolerates jitter and empty periods).
	PeriodCheckSlack float64
	// MinEntropySamples is the smallest multiset size on which an entropy
	// check is meaningful; smaller evidence sets are skipped. Defaults
	// to 32.
	MinEntropySamples int
	// Population is the system size n, used to cap the nominal entropy of
	// audits in small systems (a history over n−1 possible partners cannot
	// exceed log2(n−1) bits). 0 means unbounded (large-system regime).
	Population int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.F <= 0 {
		return fmt.Errorf("core: fanout must be positive, got %d", c.F)
	}
	if c.Period <= 0 {
		return fmt.Errorf("core: period must be positive, got %v", c.Period)
	}
	if c.Pdcc < 0 || c.Pdcc > 1 {
		return fmt.Errorf("core: pdcc must be in [0,1], got %v", c.Pdcc)
	}
	if c.HistoryPeriods <= 0 {
		return fmt.Errorf("core: history periods must be positive, got %d", c.HistoryPeriods)
	}
	return nil
}

// The verification deadlines are the protocol's, each a multiple of Tg: a
// server waits ackTimeout for the receiver's ack before blaming f, a
// requester serveTimeout for its chunks before partial-serve blames, the
// verifier collects confirm responses for confirmTimeout, and an audit's
// a-posteriori polls (reliable transport) are bounded by auditPollTimeout.
func (c Config) ackTimeout() time.Duration       { return 2 * c.Period }
func (c Config) serveTimeout() time.Duration     { return c.Period }
func (c Config) confirmTimeout() time.Duration   { return c.Period }
func (c Config) auditPollTimeout() time.Duration { return 4 * c.Period }

// withDefaults fills the zero tuning knobs with their defaults.
func (c Config) withDefaults() Config {
	if c.PeriodCheckSlack == 0 {
		c.PeriodCheckSlack = 0.8
	}
	if c.MinEntropySamples == 0 {
		c.MinEntropySamples = 32
	}
	return c
}

// nominalEntropySize returns the evidence size γ is calibrated for: nh·f
// entries, capped by the population when the system is small (at most n−1
// distinct partners exist).
func (c Config) nominalEntropySize() int {
	nominal := c.HistoryPeriods * c.F
	if c.Population > 1 && c.Population-1 < nominal {
		nominal = c.Population - 1
	}
	return nominal
}

// BlameSink receives blame emissions from verification procedures.
// reputation.Client, which batches them into messages to the managers,
// satisfies it.
type BlameSink interface {
	Blame(target msg.NodeID, value float64, reason msg.BlameReason)
}
