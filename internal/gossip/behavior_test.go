package gossip

import (
	"slices"
	"testing"
	"testing/quick"

	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/rng"
)

// TestHonestTruthfulAtEveryDecisionPoint locks the baseline every matrix
// oracle assumes: under randomized inputs, the Honest behavior never
// deviates at any of the decision points of §4/§5 — full fanout, uniform
// selection, truthful proposals/serves/acks/confirms/origins, nominal
// period, identity audits, and no fabricated blames.
func TestHonestTruthfulAtEveryDecisionPoint(t *testing.T) {
	h := Honest{}
	dir := membership.Sequential(64)
	cfg := &quick.Config{MaxCount: 300}

	property := func(seed uint64, f uint8, nChunks uint8, dropEvery uint8, suspect uint16, truth bool, origin uint16) bool {
		s := rng.New(seed)

		// Fanout and period are the protocol's.
		if h.Fanout(int(f)) != int(f) {
			return false
		}
		if h.PeriodFactor() != 1 {
			return false
		}

		// Proposals and serves pass through untouched.
		chunks := make([]msg.ChunkID, int(nChunks))
		for i := range chunks {
			chunks[i] = msg.ChunkID(s.IntN(1000))
		}
		origins := make([]msg.NodeID, len(chunks))
		for i, c := range chunks {
			origins[i] = msg.NodeID(c % 7)
		}
		if got := h.FilterProposal(s, chunks, origins, nil); !slices.Equal(got, chunks) {
			return false
		}
		if got := h.FilterServe(s, chunks); !slices.Equal(got, chunks) {
			return false
		}

		// Acks claim exactly the proposed subset of what was received.
		proposed := make([]msg.ChunkID, 0, len(chunks))
		inProposed := make(map[msg.ChunkID]bool)
		for i, c := range chunks {
			if dropEvery == 0 || i%(int(dropEvery)+1) != 0 {
				proposed = append(proposed, c)
				inProposed[c] = true
			}
		}
		acked := h.AckChunks(chunks, proposed)
		ackSet := make(map[msg.ChunkID]bool, len(acked))
		for _, c := range acked {
			if !inProposed[c] {
				return false // claimed a chunk that was never proposed
			}
			ackSet[c] = true
		}
		for _, c := range chunks {
			if inProposed[c] && !ackSet[c] {
				return false // withheld a truthfully proposed chunk
			}
		}

		// Partners, origins, confirmations and audits are reported as-is.
		partners := dir.Sample(s, 7, 0, nil)
		if got := h.AckPartners(partners); !slices.Equal(got, partners) {
			return false
		}
		if h.ClaimedOrigin(msg.NodeID(origin)) != msg.NodeID(origin) {
			return false
		}
		if h.ConfirmAnswer(msg.NodeID(suspect), truth) != truth {
			return false
		}
		resp := &msg.AuditResp{Sender: 1, Proposals: []msg.ProposalRecord{
			{Period: msg.Period(suspect), Partner: msg.NodeID(origin), Chunks: chunks},
		}}
		if h.ForgeAudit(resp) != resp {
			return false // the identity forge returns the very same snapshot
		}

		// Honest nodes never fabricate blame.
		return h.SpamBlames(s) == nil
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHonestUniformSelection checks that honest partner selection stays a
// valid uniform sample: no self, no duplicates, only live members.
func TestHonestUniformSelection(t *testing.T) {
	h := Honest{}
	dir := membership.Sequential(30)
	f := func(seed uint16, count uint8) bool {
		k := int(count % 16)
		out := h.SelectPartners(rng.New(uint64(seed)), dir, 3, k, nil)
		if len(out) != k {
			return false
		}
		seen := map[msg.NodeID]bool{}
		for _, p := range out {
			if p == 3 || seen[p] || !dir.Alive(p) {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
