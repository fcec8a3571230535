package gossip

import (
	"slices"

	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/rng"
)

// Behavior is the set of decision points where a node can deviate from the
// protocol (§4 of the paper enumerates them). Honest nodes use Honest;
// freerider strategies in internal/freerider override individual choices:
// fanout decrease, partial propose, partial serve, gossip-period stretching,
// biased partner selection, lying in acknowledgements and confirmations, and
// history forgery.
type Behavior interface {
	// Fanout returns the number of partners to contact, given the protocol
	// fanout f (attack i of §4.1: a freerider returns f̂ < f).
	Fanout(f int) int

	// SelectPartners appends the propose-phase partners, at most count, to
	// out and returns it (attack iii of §4.1: colluding freeriders bias the
	// selection toward colluders).
	SelectPartners(s *rng.Stream, dir *membership.Directory, self msg.NodeID, count int, out []msg.NodeID) []msg.NodeID

	// FilterProposal returns the chunks actually advertised out of those
	// received in the last period, in the same order (attack ii of §4.1:
	// partial propose). origins[i] is the node that served chunks[i] — the
	// footnote in §6.3.1 notes a freerider drops chunks from whole sources
	// to minimize the number of blaming servers. origins is only good
	// during the call.
	FilterProposal(s *rng.Stream, chunks []msg.ChunkID, origins []msg.NodeID) []msg.ChunkID

	// FilterServe returns the chunks actually served out of those validly
	// requested (attack i of §4.3: partial serve).
	FilterServe(s *rng.Stream, requested []msg.ChunkID) []msg.ChunkID

	// PeriodFactor scales the gossip period Tg (attack iv of §4.1: a
	// freerider stretches its period by returning > 1).
	PeriodFactor() float64

	// AckChunks returns the chunk list to claim in the ack sent to a server
	// that delivered received; proposed is what was really advertised. An
	// honest node acknowledges exactly what it proposed; a freerider lies
	// and claims everything it received (§5.2).
	AckChunks(received, proposed []msg.ChunkID) []msg.ChunkID

	// AckPartners returns the partner list to claim in acks. A
	// man-in-the-middle freerider substitutes colluders (§5.2, Fig. 8b).
	AckPartners(actual []msg.NodeID) []msg.NodeID

	// ClaimedOrigin returns the origin to claim for a chunk when proposing
	// it (the MITM attack claims a colluder).
	ClaimedOrigin(trueServer msg.NodeID) msg.NodeID

	// ConfirmAnswer returns the witness's answer to a Confirm about
	// suspect, given the truthful answer. Colluders cover each other up by
	// answering yes regardless (§5.2).
	ConfirmAnswer(suspect msg.NodeID, truth bool) bool

	// ForgeAudit may rewrite the node's audit snapshot before it is
	// returned to an auditor (§5.3: a freerider replacing colluders by
	// honest nodes in its history will not be covered by them).
	ForgeAudit(resp *msg.AuditResp) *msg.AuditResp

	// SpamBlames returns the nodes to accuse wrongfully this gossip period,
	// each with a fabricated blame of SpamBlame. Blames are not
	// authenticated (§5.1), so a malicious node can flood the reputation
	// managers of honest targets with fabricated blame (the bad-mouthing
	// attack); compensation and the threshold margin must absorb it. Honest
	// nodes return nil.
	SpamBlames(s *rng.Stream) []msg.NodeID
}

// SpamBlame is one fabricated accusation, emitted through the accuser's
// blame sink as a missed acknowledgement (msg.ReasonNoAck): NoAckBlame(f) =
// f at f = 7, the largest blame a single verification plausibly yields
// (Table 1), so a manager cannot reject it on its face.
const SpamBlame = 7

// Honest is the protocol-faithful behavior.
type Honest struct{}

var _ Behavior = Honest{}

// Fanout implements Behavior: the full protocol fanout.
func (Honest) Fanout(f int) int { return f }

// SelectPartners implements Behavior: uniform random selection.
func (Honest) SelectPartners(s *rng.Stream, dir *membership.Directory, self msg.NodeID, count int, out []msg.NodeID) []msg.NodeID {
	return dir.Sample(s, count, self, out)
}

// FilterProposal implements Behavior: propose everything received.
func (Honest) FilterProposal(_ *rng.Stream, chunks []msg.ChunkID, _ []msg.NodeID) []msg.ChunkID {
	return chunks
}

// FilterServe implements Behavior: serve everything requested.
func (Honest) FilterServe(_ *rng.Stream, requested []msg.ChunkID) []msg.ChunkID {
	return requested
}

// PeriodFactor implements Behavior: the nominal period.
func (Honest) PeriodFactor() float64 { return 1 }

// AckChunks implements Behavior: acknowledge what was proposed.
func (Honest) AckChunks(received, proposed []msg.ChunkID) []msg.ChunkID {
	// A proposal is a period's worth of chunks: scanning it beats building
	// a set of it, and an honest node proposed all it received.
	for i, c := range received {
		if slices.Contains(proposed, c) {
			continue
		}
		out := append(make([]msg.ChunkID, 0, len(received)-1), received[:i]...)
		for _, c := range received[i+1:] {
			if slices.Contains(proposed, c) {
				out = append(out, c)
			}
		}
		return out
	}
	return received
}

// AckPartners implements Behavior: report the real partners.
func (Honest) AckPartners(actual []msg.NodeID) []msg.NodeID { return actual }

// ClaimedOrigin implements Behavior: report the real server.
func (Honest) ClaimedOrigin(trueServer msg.NodeID) msg.NodeID { return trueServer }

// ConfirmAnswer implements Behavior: tell the truth.
func (Honest) ConfirmAnswer(_ msg.NodeID, truth bool) bool { return truth }

// ForgeAudit implements Behavior: return the snapshot unmodified.
func (Honest) ForgeAudit(resp *msg.AuditResp) *msg.AuditResp { return resp }

// SpamBlames implements Behavior: honest nodes only blame through the
// verification procedures.
func (Honest) SpamBlames(*rng.Stream) []msg.NodeID { return nil }

// Monitor receives protocol events; LiFTinG's verification component
// (internal/core) implements it. NopMonitor is used when running the bare
// dissemination protocol.
type Monitor interface {
	// OnProposePhase fires after a propose phase: partners were sent the
	// proposed chunks; serversLastPeriod names, in server order, each server
	// of the previous period and the chunks it delivered (the ack duty
	// input, §5.2). The records are only good during the call; the chunk
	// lists they hold may be kept, and like every list handed to a monitor
	// must not be written to.
	OnProposePhase(p msg.Period, partners []msg.NodeID, proposed []msg.ChunkID, serversLastPeriod []msg.ServeRecord)
	// OnRequestSent fires when the node requests chunks from a proposer
	// (starts the direct verification of §5.2: requested chunks must
	// arrive).
	OnRequestSent(proposer msg.NodeID, p msg.Period, requested []msg.ChunkID)
	// OnServeReceived fires when a requested chunk arrives.
	OnServeReceived(server msg.NodeID, chunk msg.ChunkID)
	// OnServeInvalid fires when a requested chunk arrives with a missing or
	// hash-mismatched payload and is rejected (content-plane verification;
	// feeds the blame path like an undelivered serve).
	OnServeInvalid(server msg.NodeID, chunk msg.ChunkID)
	// OnServed fires when the node serves chunks to a requester (starts the
	// direct cross-checking of §5.2: the receiver must ack and further
	// propose).
	OnServed(receiver msg.NodeID, p msg.Period, served []msg.ChunkID)
	// OnStop fires when the node stops for good (Node.Stop): the monitor
	// drops what it holds open for the node, so that nothing it armed
	// before the stop fires afterwards. No other event follows it.
	OnStop()
}

// NopMonitor ignores all events.
type NopMonitor struct{}

var _ Monitor = NopMonitor{}

// OnProposePhase implements Monitor.
func (NopMonitor) OnProposePhase(msg.Period, []msg.NodeID, []msg.ChunkID, []msg.ServeRecord) {}

// OnRequestSent implements Monitor.
func (NopMonitor) OnRequestSent(msg.NodeID, msg.Period, []msg.ChunkID) {}

// OnServeReceived implements Monitor.
func (NopMonitor) OnServeReceived(msg.NodeID, msg.ChunkID) {}

// OnServeInvalid implements Monitor.
func (NopMonitor) OnServeInvalid(msg.NodeID, msg.ChunkID) {}

// OnServed implements Monitor.
func (NopMonitor) OnServed(msg.NodeID, msg.Period, []msg.ChunkID) {}

// OnStop implements Monitor.
func (NopMonitor) OnStop() {}
