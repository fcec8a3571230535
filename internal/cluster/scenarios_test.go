package cluster

import (
	"testing"
	"time"

	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/rng"
)

// TestMITMColluderCaughtByAudit reproduces the attack of Figure 8b: a
// freerider deflects direct cross-checking onto colluders via forged ack
// partners, so score-based detection is blunted — but the audit sees a
// coalition-concentrated fanout history and expels it (§5.3).
func TestMITMColluderCaughtByAudit(t *testing.T) {
	opts := baseOptions(60, 0.0)
	opts.Core.Gamma = 4.5
	opts.Core.GammaFanin = 2.0
	opts.Core.MinEntropySamples = 16
	coalition := []msg.NodeID{55, 56, 57, 58, 59}
	opts.BehaviorFor = func(id msg.NodeID, dir *membership.Directory, r *rng.Stream) gossip.Behavior {
		for _, m := range coalition {
			if id == m {
				col := freerider.NewColluder(id, coalition, 0.9, dir, r)
				col.MITM = true
				return col
			}
		}
		return nil
	}
	c := New(opts)
	var outcomes []core.AuditOutcome
	auditor := c.Auditor(func(out core.AuditOutcome) { outcomes = append(outcomes, out) })
	c.Start()
	c.StartStream(8 * time.Second)
	c.After(7*time.Second, func() {
		auditor.Audit(55)
		auditor.Audit(20)
	})
	c.Run(11 * time.Second)

	byTarget := map[msg.NodeID]core.AuditOutcome{}
	for _, o := range outcomes {
		byTarget[o.Target] = o
	}
	if !byTarget[55].Expel {
		t.Fatalf("MITM colluder passed the audit: %+v", byTarget[55])
	}
	if byTarget[20].Expel {
		t.Fatalf("honest node expelled: %+v", byTarget[20])
	}
}

// TestForgedAuditBlamed checks §5.3's claim: "an inspected freerider
// replacing colluding nodes by honest nodes in its history in order to pass
// the entropic check will not be covered by the honest nodes and will thus
// be blamed accordingly."
func TestForgedAuditBlamed(t *testing.T) {
	opts := baseOptions(60, 0.0)
	opts.Core.Gamma = 4.5
	opts.Core.GammaFanin = 2.0
	opts.Core.MinEntropySamples = 16
	coalition := []msg.NodeID{55, 56, 57, 58, 59}
	opts.BehaviorFor = func(id msg.NodeID, dir *membership.Directory, r *rng.Stream) gossip.Behavior {
		for _, m := range coalition {
			if id == m {
				col := freerider.NewColluder(id, coalition, 0.9, dir, r)
				col.ForgeUniform = true
				return col
			}
		}
		return nil
	}
	c := New(opts)
	var outcomes []core.AuditOutcome
	auditor := c.Auditor(func(out core.AuditOutcome) { outcomes = append(outcomes, out) })
	c.Start()
	c.StartStream(8 * time.Second)
	var blames keeperBlames
	c.After(7*time.Second, func() {
		blames = c.keeperBlames(55, 20)
		auditor.Audit(55)
		auditor.Audit(20)
	})
	c.Run(11 * time.Second)
	blames = blames.since(c.keeperBlames(55, 20))

	byTarget := map[msg.NodeID]core.AuditOutcome{}
	for _, o := range outcomes {
		byTarget[o.Target] = o
	}
	forged := byTarget[55]
	honest := byTarget[20]
	// The forged history claims uniform partners who never saw the
	// proposals: far more unconfirmed entries than the honest node.
	if forged.Unconfirmed <= honest.Unconfirmed {
		t.Fatalf("forged history confirmed too well: %d vs honest %d",
			forged.Unconfirmed, honest.Unconfirmed)
	}
	// The audit's blame lands on the keeper, by call.
	if want := core.UnconfirmedHistoryBlame(forged.Unconfirmed); blames[55] < want-1e-9 {
		t.Fatalf("forger took %v blame on the keeper after its audit, want at least the audit's %v", blames[55], want)
	}
	if blames[55] <= blames[20] {
		t.Fatalf("forger blame %v not above honest blame %v", blames[55], blames[20])
	}
}

// TestPeriodStretcherAudited checks the gossip-period check of §5.3: a node
// that doubles Tg shows half the propose phases in its history.
func TestPeriodStretcherAudited(t *testing.T) {
	opts := baseOptions(40, 0.0)
	opts.Core.Gamma = 0 // isolate the period check
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if id == 30 {
			return freerider.PeriodStretcher{Factor: 2}
		}
		return nil
	}
	c := New(opts)
	var outcomes []core.AuditOutcome
	auditor := c.Auditor(func(out core.AuditOutcome) { outcomes = append(outcomes, out) })
	c.Start()
	c.StartStream(12 * time.Second)
	var blames keeperBlames
	c.After(11*time.Second, func() {
		blames = c.keeperBlames(30, 10)
		auditor.Audit(30)
		auditor.Audit(10)
	})
	c.Run(15 * time.Second)
	blames = blames.since(c.keeperBlames(30, 10))

	byTarget := map[msg.NodeID]core.AuditOutcome{}
	for _, o := range outcomes {
		byTarget[o.Target] = o
	}
	if byTarget[30].PeriodBlame <= 0 {
		t.Fatalf("stretcher not blamed: %+v", byTarget[30])
	}
	if byTarget[10].PeriodBlame > 0 {
		t.Fatalf("honest node blamed for period stretching: %+v", byTarget[10])
	}
	// The audit's blame lands on the keeper, by call.
	if blames[30] < byTarget[30].PeriodBlame-1e-9 || blames[30] <= blames[10] {
		t.Fatalf("stretch blame not routed: keeper blame since the audits %v (stretcher), %v (honest); the audit's %v",
			blames[30], blames[10], byTarget[30].PeriodBlame)
	}
	// The stretcher's history also shows roughly half the propose phases.
	if got, want := byTarget[30].ProposalPeriods, byTarget[10].ProposalPeriods; got*3 > want*2 {
		t.Fatalf("stretcher proposal periods %d not well below honest %d", got, want)
	}
}

// keeperBlames is the direct-mode keeper's TotalBlame per node.
type keeperBlames map[msg.NodeID]float64

func (c *Cluster) keeperBlames(ids ...msg.NodeID) keeperBlames {
	out := keeperBlames{}
	for _, id := range ids {
		e, _ := c.keeper.Snapshot(id)
		out[id] = e.TotalBlame
	}
	return out
}

// since is the blame each node took from b to later.
func (b keeperBlames) since(later keeperBlames) keeperBlames {
	out := keeperBlames{}
	for id, v := range later {
		out[id] = v - b[id]
	}
	return out
}

// TestPdccTradeoff verifies §7.3's observation: halving pdcc slows
// detection but does not halve it, because direct verification blames
// partial serves without any cross-check.
func TestPdccTradeoff(t *testing.T) {
	gapFor := func(pdcc float64) float64 {
		opts := baseOptions(60, 0.03)
		opts.Core.Pdcc = pdcc
		opts.Seed = 5
		opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id >= 54 {
				return freerider.Degree{Delta1: 0.3, Delta2: 0.3, Delta3: 0.3}
			}
			return nil
		}
		c := New(opts)
		run(c, 12*time.Second)
		var honest, riders float64
		scores := c.Scores()
		for i := 1; i < 60; i++ {
			if i >= 54 {
				riders += scores[msg.NodeID(i)]
			} else {
				honest += scores[msg.NodeID(i)]
			}
		}
		return honest/53 - riders/6
	}
	full := gapFor(1)
	half := gapFor(0.5)
	if half <= 0 {
		t.Fatalf("no separation at pdcc=0.5: gap %v", half)
	}
	if full <= half {
		t.Fatalf("pdcc=1 gap %v not above pdcc=0.5 gap %v", full, half)
	}
	// δ3 freeriding is caught by direct verification regardless of pdcc, so
	// the gap must not collapse proportionally.
	if half < full/4 {
		t.Fatalf("pdcc=0.5 gap %v collapsed versus %v", half, full)
	}
}
