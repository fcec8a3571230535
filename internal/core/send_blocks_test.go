package core

import (
	"testing"
	"time"

	"lifting/internal/gossip"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
)

// TestSentConfirmRespsAreNotAliased has a witness answer three blocks' worth
// of Confirms, each about its own suspect and period, through a network that
// delivers every message twice: from a set with one node's blocks, and from
// one wired to a shard's nodes, whose blocks are maxSendShare = 64 times
// larger. The ConfirmResps are carved from the verifier's send blocks; after
// the last send, every one delivered must still hold its own Suspect and
// Period, and each answer is one message of its own, delivered twice. A
// block reused for a later answer would rewrite an earlier one here.
func TestSentConfirmRespsAreNotAliased(t *testing.T) {
	t.Run("one node's blocks", func(t *testing.T) { checkConfirmRespsNotAliased(t, 1) })
	t.Run("a shard's blocks", func(t *testing.T) { checkConfirmRespsNotAliased(t, 64) })
}

// checkConfirmRespsNotAliased runs TestSentConfirmRespsAreNotAliased's
// answers on a set wired to share nodes.
func checkConfirmRespsNotAliased(t *testing.T, share int) {
	r := newRig(t, testCfg(), gossip.Honest{})
	sends := new(msg.Sends)
	for i := 0; i < share; i++ {
		sends.Wire()
	}
	r.v = NewVerifier(1, testCfg(), r.eng.Domain(1), r.netw, rng.New(9), r.hist, gossip.Honest{}, r.sink, sends)
	r.netw.SetConditions(1, net.Conditions{LatencyBase: time.Millisecond, DupProb: 1})
	asks := 3 * msg.SendBlock * share
	for i := 0; i < asks; i++ {
		r.v.HandleAux(2, &msg.Confirm{Sender: 2, Suspect: msg.NodeID(100 + i), Period: msg.Period(1000 + i), Chunks: []msg.ChunkID{msg.ChunkID(i)}})
		r.eng.Run(r.eng.Now() + 10*time.Millisecond)
	}
	got := r.sent[2]
	if len(got) != 2*asks {
		t.Fatalf("node 2 got %d messages, want %d: every answer twice", len(got), 2*asks)
	}
	seen := make(map[*msg.ConfirmResp]int)
	for k, m := range got {
		i := k / 2
		resp, ok := m.(*msg.ConfirmResp)
		if !ok {
			t.Fatalf("message %d is a %T, want a ConfirmResp", k, m)
		}
		if resp.Sender != 1 || resp.Suspect != msg.NodeID(100+i) || resp.Period != msg.Period(1000+i) {
			t.Fatalf("answer %d now reads %+v: it was written over by a later send", i, *resp)
		}
		if first, ok := seen[resp]; ok && first != i {
			t.Fatalf("answers %d and %d are the same message", first, i)
		}
		seen[resp] = i
	}
	if len(seen) != asks {
		t.Fatalf("%d distinct answers, want %d", len(seen), asks)
	}
}
