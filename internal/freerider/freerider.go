// Package freerider implements the attack strategies of §4 of the paper as
// gossip.Behavior implementations:
//
//   - Degree: the wise freerider of §6.3.1 with degree of freeriding
//     ∆ = (δ1, δ2, δ3) — reduced fanout, partial propose, partial serve —
//     plus the rational lies of §5.2 (claim everything in acks).
//   - PeriodStretcher: the increase-gossip-period attack (§4.1 iv).
//   - Colluder: biased partner selection toward a coalition (§4.1 iii),
//     cover-up in confirmations, the man-in-the-middle attack on direct
//     cross-checking (§5.2, Fig. 8b) and history forgery at audit time
//     (§5.3).
//   - StretchingColluder: a colluder that additionally stretches its gossip
//     period — the combined iii+iv attack.
//   - BlameSpammer: the bad-mouther — blames are not authenticated (§5.1),
//     so a malicious node can flood honest targets with wrongful blame;
//     LiFTinG's defense is statistical (compensation plus the threshold
//     margin), not per-blame.
package freerider

import (
	"math"
	"slices"

	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/rng"
)

// Degree is a wise freerider parameterized by the paper's degree of
// freeriding ∆ = (δ1, δ2, δ3):
//
//   - it contacts only (1−δ1)·f partners per gossip period,
//   - it drops the chunks received from a fraction δ2 of its servers from
//     its proposals (whole servers at a time, following the footnote in
//     §6.3.1: removing chunks from the fewest sources minimizes blame),
//   - it serves only (1−δ3)·|R| of the chunks requested from it.
//
// The resulting upload-bandwidth gain is 1 − (1−δ1)(1−δ2)(1−δ3) (§6.3.1).
// Degree freeriders lie in their acknowledgements (claiming they proposed
// everything they received) because an honest ack would be blamed f
// deterministically while a lie is only caught by cross-checking.
type Degree struct {
	gossip.Honest
	Delta1, Delta2, Delta3 float64
}

var _ gossip.Behavior = Degree{}

// Fanout implements gossip.Behavior: contact (1−δ1)·f partners.
func (d Degree) Fanout(f int) int {
	reduced := int(math.Round((1 - d.Delta1) * float64(f)))
	if reduced < 0 {
		return 0
	}
	if reduced > f {
		return f
	}
	return reduced
}

// FilterProposal implements gossip.Behavior: drop each server's chunks with
// probability δ2.
func (d Degree) FilterProposal(s *rng.Stream, chunks []msg.ChunkID, origins []msg.NodeID, out []msg.ChunkID) []msg.ChunkID {
	if d.Delta2 <= 0 {
		return append(out, chunks...)
	}
	dropped := make(map[msg.NodeID]bool)
	for i, c := range chunks {
		drop, decided := dropped[origins[i]]
		if !decided {
			drop = s.Bernoulli(d.Delta2)
			dropped[origins[i]] = drop
		}
		if !drop {
			out = append(out, c)
		}
	}
	return out
}

// FilterServe implements gossip.Behavior: serve each requested chunk with
// probability 1−δ3.
func (d Degree) FilterServe(s *rng.Stream, requested []msg.ChunkID) []msg.ChunkID {
	if d.Delta3 <= 0 {
		return requested
	}
	out := make([]msg.ChunkID, 0, len(requested))
	for _, c := range requested {
		if !s.Bernoulli(d.Delta3) {
			out = append(out, c)
		}
	}
	return out
}

// AckChunks implements gossip.Behavior: lie — acknowledge everything
// received regardless of what was proposed, so the incomplete proposal is
// only detectable through witness confirmation (§5.2).
func (d Degree) AckChunks(received, _ []msg.ChunkID) []msg.ChunkID {
	return received
}

// PeriodStretcher increases the gossip period by Factor (> 1), proposing
// less often and therefore older, less interesting chunks (§4.1 iv).
type PeriodStretcher struct {
	gossip.Honest
	Factor float64
}

var _ gossip.Behavior = PeriodStretcher{}

// PeriodFactor implements gossip.Behavior.
func (p PeriodStretcher) PeriodFactor() float64 {
	if p.Factor < 1 {
		return 1
	}
	return p.Factor
}

// Colluder is a member of a freeriding coalition.
type Colluder struct {
	gossip.Honest
	// Self is the colluder's own id.
	Self msg.NodeID
	// Group is the coalition membership (may include Self).
	Group map[msg.NodeID]bool
	// Members is the coalition as a slice for sampling.
	Members []msg.NodeID
	// PM is the probability of picking a colluder as a propose partner
	// (§6.3.2: the maximum undetectable value p*m follows Equation 7).
	PM float64
	// MITM claims coalition members as ack partners and chunk origins
	// (§5.2, Fig. 8b), deflecting confirm traffic to colluders.
	MITM bool
	// ForgeUniform rewrites the audit snapshot, replacing coalition
	// partners with uniformly random nodes to defeat the entropy check —
	// which a-posteriori cross-checking then exposes (§5.3).
	ForgeUniform bool
	// Dir and Rand support forgery and partner sampling.
	Dir  *membership.Directory
	Rand *rng.Stream
}

var _ gossip.Behavior = (*Colluder)(nil)

// NewColluder builds a colluder for the given coalition.
func NewColluder(self msg.NodeID, coalition []msg.NodeID, pm float64, dir *membership.Directory, rand *rng.Stream) *Colluder {
	group := make(map[msg.NodeID]bool, len(coalition))
	members := make([]msg.NodeID, 0, len(coalition))
	for _, id := range coalition {
		if !group[id] {
			group[id] = true
			members = append(members, id)
		}
	}
	return &Colluder{
		Self:    self,
		Group:   group,
		Members: members,
		PM:      pm,
		Dir:     dir,
		Rand:    rand,
	}
}

// SelectPartners implements gossip.Behavior: each partner slot is filled by
// a random coalition member with probability PM, and by a uniform random
// node otherwise (the entropy-maximizing strategy of §6.3.2: uniform within
// each class).
func (c *Colluder) SelectPartners(s *rng.Stream, dir *membership.Directory, self msg.NodeID, count int, out []msg.NodeID) []msg.NodeID {
	start := len(out)
	var one [1]msg.NodeID
	for attempts := 0; len(out)-start < count && attempts < count*20; attempts++ {
		var pick msg.NodeID
		if s.Bernoulli(c.PM) {
			pick = c.Members[s.IntN(len(c.Members))]
		} else {
			sample := dir.Sample(s, 1, self, one[:0])
			if len(sample) == 0 {
				break
			}
			pick = sample[0]
		}
		if pick == self || slices.Contains(out[start:], pick) || !dir.Alive(pick) {
			continue
		}
		out = append(out, pick)
	}
	return out
}

// ConfirmAnswer implements gossip.Behavior: cover coalition members up
// (§5.2: "if p2 colludes with p1, it will answer that p1 sent a valid
// proposal regardless of what p1 sent").
func (c *Colluder) ConfirmAnswer(suspect msg.NodeID, truth bool) bool {
	return truth || c.Group[suspect]
}

// AckPartners implements gossip.Behavior: under MITM, claim coalition
// members as the propose partners so the verifier's confirms go to nodes
// that will cover the lie.
func (c *Colluder) AckPartners(actual []msg.NodeID) []msg.NodeID {
	if !c.MITM {
		return actual
	}
	out := make([]msg.NodeID, 0, len(actual))
	for range actual {
		out = append(out, c.Members[c.Rand.IntN(len(c.Members))])
	}
	return out
}

// ClaimedOrigin implements gossip.Behavior: under MITM, claim a coalition
// member as the chunk's origin.
func (c *Colluder) ClaimedOrigin(trueServer msg.NodeID) msg.NodeID {
	if !c.MITM {
		return trueServer
	}
	return c.Members[c.Rand.IntN(len(c.Members))]
}

// StretchingColluder combines the coalition attacks with gossip-period
// stretching (§4.1 iii+iv): the node biases its partner selection toward the
// coalition and proposes only every Factor·Tg. The audit sees both a
// coalition-concentrated fanout history and too few propose phases.
type StretchingColluder struct {
	*Colluder
	Factor float64
}

var _ gossip.Behavior = StretchingColluder{}

// PeriodFactor implements gossip.Behavior: stretch the period.
func (c StretchingColluder) PeriodFactor() float64 {
	if c.Factor < 1 {
		return 1
	}
	return c.Factor
}

// BlameSpammer is a bad-mouther: a node that otherwise follows the protocol
// but floods the reputation substrate with wrongful blames (gossip.SpamBlame)
// against random honest targets, spamTargets of them per gossip period. The
// system's defense is that a bounded spam rate stays inside the compensated
// threshold margin.
type BlameSpammer struct {
	gossip.Honest
	// Self is excluded from target sampling.
	Self msg.NodeID
	// Dir is the membership view targets are drawn from.
	Dir *membership.Directory
}

// spamTargets is how many nodes a bad-mouther accuses per gossip period.
const spamTargets = 2

var _ gossip.Behavior = (*BlameSpammer)(nil)

// SpamBlames implements gossip.Behavior: accuse spamTargets uniform random
// nodes of never acknowledging.
func (b *BlameSpammer) SpamBlames(s *rng.Stream) []msg.NodeID {
	if b.Dir == nil {
		return nil
	}
	return b.Dir.Sample(s, spamTargets, b.Self, nil)
}

// ForgeAudit implements gossip.Behavior: optionally rewrite coalition
// partners in the snapshot as uniformly random nodes to pass the entropy
// check. The alleged receivers will not confirm these entries, so
// a-posteriori cross-checking blames the forger instead (§5.3).
func (c *Colluder) ForgeAudit(resp *msg.AuditResp) *msg.AuditResp {
	if !c.ForgeUniform || c.Dir == nil || c.Rand == nil {
		return resp
	}
	forged := *resp
	forged.Proposals = make([]msg.ProposalRecord, len(resp.Proposals))
	copy(forged.Proposals, resp.Proposals)
	for i := range forged.Proposals {
		if c.Group[forged.Proposals[i].Partner] {
			if sample := c.Dir.Sample(c.Rand, 1, c.Self, nil); len(sample) == 1 {
				forged.Proposals[i].Partner = sample[0]
			}
		}
	}
	return &forged
}
