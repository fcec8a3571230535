package core

import (
	"testing"
	"time"

	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// auditRig hosts an Auditor at node 0 and a set of scripted peers.
type auditRig struct {
	eng      *sim.Engine
	netw     *net.SimNet
	auditor  *Auditor
	sink     *sinkRec
	outcomes []AuditOutcome
}

func newAuditRig(t *testing.T, cfg Config) *auditRig {
	t.Helper()
	r := &auditRig{eng: sim.NewEngine(), sink: &sinkRec{}}
	r.netw = net.NewSimNet(r.eng, rng.New(5), metrics.NewCollector(), net.Uniform(0, time.Millisecond))
	r.auditor = NewAuditor(0, cfg, r.eng.Domain(0), r.netw, r.sink,
		func(out AuditOutcome) { r.outcomes = append(r.outcomes, out) })
	r.netw.Attach(0, capture{func(from msg.NodeID, m msg.Message) {
		r.auditor.HandleAux(from, m)
	}})
	return r
}

// attachVerifier gives node id a real Verifier over the given history.
func (r *auditRig) attachVerifier(id msg.NodeID, hist *history.Log, behavior gossip.Behavior) *Verifier {
	v := NewVerifier(id, auditCfg(), r.eng.Domain(int(id)), r.netw, rng.New(uint64(id)), hist, behavior, nil)
	r.netw.Attach(id, capture{func(from msg.NodeID, m msg.Message) {
		v.HandleAux(from, m)
	}})
	return v
}

func TestAuditorExpelsUnresponsiveTarget(t *testing.T) {
	cfg := auditCfg()
	r := newAuditRig(t, cfg)
	// Target 9 is not attached: the audit request goes nowhere.
	r.auditor.Audit(9)
	r.eng.Run(time.Minute)
	if len(r.outcomes) != 1 {
		t.Fatalf("outcomes = %d, want 1", len(r.outcomes))
	}
	out := r.outcomes[0]
	if out.Responded {
		t.Fatal("unresponsive target marked as responded")
	}
	if !out.Expel {
		t.Fatal("refusing an audit must be treated as failing it")
	}
}

func TestAuditorHonestEndToEnd(t *testing.T) {
	cfg := auditCfg()
	cfg.Gamma = 5.0
	cfg.MinEntropySamples = 16
	r := newAuditRig(t, cfg)

	// Build an honest world: node 1's history says it proposed to nodes
	// 2..61 over 50 periods; each receiver's history corroborates.
	h1 := history.NewLog(50)
	for p := msg.Period(1); p <= 50; p++ {
		partner := msg.NodeID(2 + (int(p)*7)%60)
		chunks := []msg.ChunkID{msg.ChunkID(p)}
		h1.RecordProposalsSent(p, []msg.NodeID{partner}, chunks)
		h1.RecordServeReceived(p, msg.NodeID(2+(int(p)*11)%60), chunks)
	}
	r.attachVerifier(1, h1, gossip.Honest{})
	for i := 2; i < 62; i++ {
		hw := history.NewLog(50)
		// Receivers log the proposals node 1 sent them.
		for p := msg.Period(1); p <= 50; p++ {
			if msg.NodeID(2+(int(p)*7)%60) == msg.NodeID(i) {
				hw.RecordProposalReceived(p, 1, []msg.ChunkID{msg.ChunkID(p)})
				// Their recorded confirm-askers (node 1's servers) are
				// diverse.
				hw.RecordConfirmAsker(p, 1, msg.NodeID(2+(int(p)*11)%60))
			}
		}
		r.attachVerifier(msg.NodeID(i), hw, gossip.Honest{})
	}

	r.auditor.Audit(1)
	r.eng.Run(time.Minute)
	if len(r.outcomes) != 1 {
		t.Fatalf("outcomes = %d, want 1", len(r.outcomes))
	}
	out := r.outcomes[0]
	if !out.Responded {
		t.Fatal("target did not respond")
	}
	if out.Expel {
		t.Fatalf("honest node expelled: %+v", out)
	}
	if out.Unconfirmed != 0 {
		t.Fatalf("honest history had %d unconfirmed entries", out.Unconfirmed)
	}
	if out.PeriodBlame != 0 {
		t.Fatalf("honest node blamed %v for period stretching", out.PeriodBlame)
	}
	if out.Polled == 0 {
		t.Fatal("a-posteriori cross-check polled nothing")
	}
}

func TestAuditorForgedHistoryBlamed(t *testing.T) {
	// A freerider rewrites its history to claim proposals to honest nodes
	// that never received them: the a-posteriori cross-check blames 1 per
	// unconfirmed entry (§5.3).
	cfg := auditCfg()
	cfg.Gamma = 5.0
	cfg.MinEntropySamples = 16
	r := newAuditRig(t, cfg)

	h1 := history.NewLog(50)
	for p := msg.Period(1); p <= 50; p++ {
		// Claims diverse partners…
		h1.RecordProposalsSent(p, []msg.NodeID{msg.NodeID(2 + int(p)%60)}, []msg.ChunkID{msg.ChunkID(p)})
	}
	r.attachVerifier(1, h1, gossip.Honest{})
	// …but the alleged receivers know nothing.
	for i := 2; i < 62; i++ {
		r.attachVerifier(msg.NodeID(i), history.NewLog(50), gossip.Honest{})
	}

	r.auditor.Audit(1)
	r.eng.Run(time.Minute)
	out := r.outcomes[0]
	if out.Unconfirmed != out.Polled || out.Unconfirmed == 0 {
		t.Fatalf("unconfirmed = %d of %d polled, want all", out.Unconfirmed, out.Polled)
	}
	if got := r.sink.total(msg.ReasonAuditUnconfirmed); got != float64(out.Unconfirmed) {
		t.Fatalf("audit blame = %v, want %d", got, out.Unconfirmed)
	}
}

func TestAuditorPeriodStretchDetected(t *testing.T) {
	// Proposals only every other period over a 50-period span.
	cfg := auditCfg()
	cfg.Gamma = 0 // isolate the period check
	r := newAuditRig(t, cfg)

	h1 := history.NewLog(50)
	for p := msg.Period(1); p <= 50; p += 2 {
		partner := msg.NodeID(2 + int(p)%10)
		h1.RecordProposalsSent(p, []msg.NodeID{partner}, []msg.ChunkID{msg.ChunkID(p)})
	}
	r.attachVerifier(1, h1, gossip.Honest{})
	for i := 2; i < 12; i++ {
		hw := history.NewLog(50)
		for p := msg.Period(1); p <= 50; p += 2 {
			if msg.NodeID(2+int(p)%10) == msg.NodeID(i) {
				hw.RecordProposalReceived(p, 1, []msg.ChunkID{msg.ChunkID(p)})
			}
		}
		r.attachVerifier(msg.NodeID(i), hw, gossip.Honest{})
	}

	// The expected phase count comes from the auditor's wall clock: 50
	// periods have elapsed, the snapshot shows only 25 propose phases.
	r.eng.Run(50 * cfg.Period)
	r.auditor.Audit(1)
	r.eng.Run(50*cfg.Period + time.Minute)
	out := r.outcomes[0]
	if out.PeriodBlame <= 0 {
		t.Fatalf("period stretching not blamed: %+v", out)
	}
	if r.sink.total(msg.ReasonPeriodStretch) != out.PeriodBlame {
		t.Fatal("period blame not routed to the sink")
	}
}

// §5.3 lets an audit poll "all or a subset" of the history; this auditor
// polls every (partner, period) entry.
func TestAuditorPollsEveryEntry(t *testing.T) {
	cfg := auditCfg()
	r := newAuditRig(t, cfg)
	h1 := history.NewLog(50)
	for p := msg.Period(1); p <= 50; p++ {
		h1.RecordProposalsSent(p, []msg.NodeID{msg.NodeID(2 + int(p))}, []msg.ChunkID{msg.ChunkID(p)})
	}
	r.attachVerifier(1, h1, gossip.Honest{})
	r.auditor.Audit(1)
	r.eng.Run(time.Minute)
	out := r.outcomes[0]
	if out.Polled != 50 {
		t.Fatalf("polled %d entries, want all 50", out.Polled)
	}
}

func TestAuditorCoalescesConcurrentAudits(t *testing.T) {
	cfg := auditCfg()
	r := newAuditRig(t, cfg)
	r.auditor.Audit(9)
	r.auditor.Audit(9)
	r.eng.Run(time.Minute)
	if len(r.outcomes) != 1 {
		t.Fatalf("outcomes = %d, want 1 (coalesced)", len(r.outcomes))
	}
}
