package core

import (
	"math/bits"
	"slices"

	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// Verifier is the per-node LiFTinG component. It implements gossip.Monitor
// (to observe the node's own protocol actions) and gossip.AuxHandler (to
// process verification traffic addressed to the node):
//
//   - requester side: direct verification of serves (§5.2);
//   - receiver side: the ack duty after each propose phase (§5.2);
//   - server side: direct cross-checking — await acks, poll witnesses with
//     probability pdcc, blame per Table 1;
//   - witness side: answer Confirm messages from its history and record the
//     askers (the raw material of the fanin audit, §5.3);
//   - audited side: serve AuditReq/AuditPoll messages.
//
// A Verifier is driven entirely by its node's execution context; it has no
// goroutines of its own.
type Verifier struct {
	self     msg.NodeID
	cfg      Config
	netw     net.Network
	rand     *rng.Stream
	hist     *history.Log
	behavior gossip.Behavior
	sink     BlameSink
	// sends is the execution context's set of send blocks, which every
	// Ack, Confirm and ConfirmResp the node sends is carved from.
	sends *msg.Sends

	// The open checks, oldest first, each kind until its timeout: a few
	// periods' worth, scanned instead of indexed.
	serveChecks  *sim.Deadlines[serveCheck]
	expectations *sim.Deadlines[ackExpectation]
	sessions     *sim.Deadlines[confirmSession]
}

// marks is a set of positions of a short list — the chunks of one request,
// the witnesses of one ack — that starts full and is cleared one position at
// a time. The first 64 positions are held inline, which is every list an
// honest peer sends.
type marks struct {
	lo uint64
	hi []uint64
}

func fullMarks(n int) marks {
	if n <= 64 {
		return marks{lo: 1<<n - 1}
	}
	m := marks{lo: ^uint64(0), hi: make([]uint64, (n-1)/64)}
	for i := range m.hi {
		m.hi[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		m.hi[len(m.hi)-1] = 1<<r - 1
	}
	return m
}

func (m *marks) word(i int) *uint64 {
	if i < 64 {
		return &m.lo
	}
	return &m.hi[i/64-1]
}

func (m *marks) has(i int) bool { return *m.word(i)&(1<<(i&63)) != 0 }

func (m *marks) clear(i int) { *m.word(i) &^= 1 << (i & 63) }

func (m *marks) count() int {
	n := bits.OnesCount64(m.lo)
	for _, w := range m.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// serveCheck tracks one sent request: the requested chunks must arrive
// before the serve timeout. missing marks the positions of requested still
// to be served; a serve clears one position.
type serveCheck struct {
	server    msg.NodeID
	requested []msg.ChunkID
	missing   marks
}

// deliver clears chunk if it is still missing and reports whether it was.
func (sc *serveCheck) deliver(chunk msg.ChunkID) bool {
	for i, c := range sc.requested {
		if c == chunk && sc.missing.has(i) {
			sc.missing.clear(i)
			return true
		}
	}
	return false
}

// ackExpectation tracks one serve batch: the receiver must acknowledge
// forwarding these chunks within the ack timeout.
type ackExpectation struct {
	receiver  msg.NodeID
	chunks    []msg.ChunkID
	satisfied bool
}

// confirmSession collects witness answers about one suspect ack, of the
// suspect's propose phase of the given period. silent marks the positions of
// witnesses that have not confirmed (yet).
type confirmSession struct {
	suspect   msg.NodeID
	period    msg.Period
	witnesses []msg.NodeID
	silent    marks
}

// NewVerifier creates the LiFTinG component of one node. behavior is the
// node's own behavior (honest verifiers follow the protocol; freerider
// behaviors lie in acks, confirmations and audits). sends is the set of send
// blocks of ctx's execution context. cfg zero-timeouts are defaulted from
// the period.
func NewVerifier(self msg.NodeID, cfg Config, ctx sim.Context, netw net.Network, rand *rng.Stream, hist *history.Log, behavior gossip.Behavior, sink BlameSink, sends *msg.Sends) *Verifier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	v := &Verifier{
		self:     self,
		cfg:      cfg.withDefaults(),
		netw:     netw,
		rand:     rand,
		hist:     hist,
		behavior: behavior,
		sink:     sink,
		sends:    sends,
	}
	v.serveChecks = sim.NewDeadlines(ctx, v.cfg.serveTimeout(), v.serveTimedOut)
	v.expectations = sim.NewDeadlines(ctx, v.cfg.ackTimeout(), v.ackTimedOut)
	v.sessions = sim.NewDeadlines(ctx, v.cfg.confirmTimeout(), v.sessionClosed)
	return v
}

var (
	_ gossip.Monitor    = (*Verifier)(nil)
	_ gossip.AuxHandler = (*Verifier)(nil)
)

func (v *Verifier) blame(target msg.NodeID, value float64, reason msg.BlameReason) {
	if value > 0 {
		v.sink.Blame(target, value, reason)
	}
}

// --- gossip.Monitor ---

// OnProposePhase implements gossip.Monitor: the ack duty. For every node
// that served chunks during the previous period, send an Ack naming the
// chunks forwarded and the partners they went to (§5.2). Freerider behaviors
// may lie about both.
func (v *Verifier) OnProposePhase(p msg.Period, partners []msg.NodeID, proposed []msg.ChunkID, serversLastPeriod []msg.ServeRecord) {
	// Bad-mouthing behaviors piggyback fabricated blames on the period
	// boundary; the sink routes them like any verification blame because
	// managers cannot tell them apart (§5.1).
	for _, target := range v.behavior.SpamBlames(v.rand) {
		v.blame(target, gossip.SpamBlame, msg.ReasonNoAck)
	}
	if len(serversLastPeriod) == 0 {
		return
	}
	claimedPartners := v.behavior.AckPartners(partners)
	for _, s := range serversLastPeriod {
		ackChunks := v.behavior.AckChunks(s.Chunks, proposed)
		v.netw.Send(v.self, s.Server, v.sends.Ack(msg.Ack{
			Sender:   v.self,
			Period:   p,
			Chunks:   ackChunks,
			Partners: claimedPartners,
		}), net.Unreliable)
	}
}

// OnRequestSent implements gossip.Monitor: direct verification. The
// requested chunks must arrive before the serve timeout or the proposer is
// blamed f·|missing|/|R| (Table 1).
func (v *Verifier) OnRequestSent(proposer msg.NodeID, _ msg.Period, requested []msg.ChunkID) {
	if len(requested) == 0 {
		return
	}
	v.serveChecks.Push(serveCheck{server: proposer, requested: requested, missing: fullMarks(len(requested))})
}

func (v *Verifier) serveTimedOut(sc serveCheck) {
	if n := sc.missing.count(); n > 0 {
		total := len(sc.requested)
		v.blame(sc.server, PartialServeBlame(v.cfg.F, total, total-n), msg.ReasonPartialServe)
	}
}

// OnServeReceived implements gossip.Monitor: mark a requested chunk as
// delivered.
func (v *Verifier) OnServeReceived(server msg.NodeID, chunk msg.ChunkID) {
	for i := 0; i < v.serveChecks.Pending(); i++ {
		if sc := v.serveChecks.At(i); sc.server == server && sc.deliver(chunk) {
			return
		}
	}
}

// OnServeInvalid implements gossip.Monitor: content-plane verification. A
// serve whose payload is missing or fails hash verification is as useless as
// no serve at all, so the server is blamed f immediately. The chunk is
// cleared from the pending serve check so the serve timeout does not blame
// the same failure twice.
func (v *Verifier) OnServeInvalid(server msg.NodeID, chunk msg.ChunkID) {
	v.OnServeReceived(server, chunk)
	v.blame(server, InvalidPayloadBlame(v.cfg.F), msg.ReasonInvalidPayload)
}

// OnServed implements gossip.Monitor: direct cross-checking, server side.
// The receiver must acknowledge forwarding the served chunks within the ack
// timeout, or be blamed f (§5.2).
func (v *Verifier) OnServed(receiver msg.NodeID, _ msg.Period, served []msg.ChunkID) {
	v.expectations.Push(ackExpectation{receiver: receiver, chunks: served})
}

func (v *Verifier) ackTimedOut(exp ackExpectation) {
	if !exp.satisfied {
		v.blame(exp.receiver, NoAckBlame(v.cfg.F), msg.ReasonNoAck)
	}
}

// OnStop implements gossip.Monitor: a stopped node's open checks are dropped
// unlapsed. The node is out of the system and nothing that would have
// answered them reaches it any more, so each would blame a live peer.
func (v *Verifier) OnStop() {
	v.serveChecks.Release()
	v.expectations.Release()
	v.sessions.Release()
}

// --- gossip.AuxHandler ---

// HandleAux implements gossip.AuxHandler: verification traffic addressed to
// this node.
func (v *Verifier) HandleAux(from msg.NodeID, m msg.Message) bool {
	switch mm := m.(type) {
	case *msg.Ack:
		v.onAck(from, mm)
	case *msg.Confirm:
		v.onConfirm(from, mm)
	case *msg.ConfirmResp:
		v.onConfirmResp(from, mm)
	case *msg.AuditReq:
		v.onAuditReq(from, mm)
	case *msg.AuditPoll:
		v.onAuditPoll(from, mm)
	default:
		return false
	}
	return true
}

// onAck is the server-side handling of a receiver's acknowledgement: check
// the claimed fanout, match pending expectations, and with probability pdcc
// launch the witness poll.
func (v *Verifier) onAck(from msg.NodeID, ack *msg.Ack) {
	if len(ack.Partners) < v.cfg.F {
		v.blame(from, FanoutBlame(v.cfg.F, len(ack.Partners)), msg.ReasonFanoutDecrease)
	}
	for i := 0; i < v.expectations.Pending(); i++ {
		exp := v.expectations.At(i)
		if exp.satisfied || exp.receiver != from {
			continue
		}
		covered := true
		for _, c := range exp.chunks {
			if !slices.Contains(ack.Chunks, c) {
				covered = false
				break
			}
		}
		if !covered {
			// The ack does not cover this serve batch; leave the
			// expectation pending — the timeout will blame f ((a) in
			// Equation 3 of the analysis).
			continue
		}
		exp.satisfied = true
		if len(ack.Partners) > 0 && v.rand.Bernoulli(v.cfg.Pdcc) {
			v.startConfirmSession(from, ack, exp.chunks)
		}
	}
}

// session returns the open session about suspect's phase of the given
// period, or nil.
func (v *Verifier) session(suspect msg.NodeID, period msg.Period) *confirmSession {
	for i := 0; i < v.sessions.Pending(); i++ {
		if s := v.sessions.At(i); s.suspect == suspect && s.period == period {
			return s
		}
	}
	return nil
}

func (v *Verifier) startConfirmSession(suspect msg.NodeID, ack *msg.Ack, chunks []msg.ChunkID) {
	if v.session(suspect, ack.Period) != nil {
		// One session per suspect propose phase is enough: a second serve
		// batch covered by the same ack shares the same testimony.
		return
	}
	// Every witness is asked the same question: one message, read-only once
	// sent, serves them all.
	confirm := v.sends.Confirm(msg.Confirm{Sender: v.self, Suspect: suspect, Period: ack.Period, Chunks: chunks})
	for _, w := range ack.Partners {
		v.netw.Send(v.self, w, confirm, net.Unreliable)
	}
	v.sessions.Push(confirmSession{suspect: suspect, period: ack.Period, witnesses: ack.Partners, silent: fullMarks(len(ack.Partners))})
}

func (v *Verifier) sessionClosed(s confirmSession) {
	// A witness that said no and one that said nothing both contradict.
	v.blame(s.suspect, ContradictionBlame(s.silent.count()), msg.ReasonPartialPropose)
}

// onConfirm is the witness duty: answer from the local history and record
// the asker for the fanin audit (§5.3).
func (v *Verifier) onConfirm(from msg.NodeID, c *msg.Confirm) {
	truth := v.hist.HasRecentProposalFrom(c.Suspect, c.Chunks)
	answer := v.behavior.ConfirmAnswer(c.Suspect, truth)
	v.hist.RecordConfirmAsker(v.hist.Newest(), c.Suspect, from)
	v.netw.Send(v.self, from, v.sends.ConfirmResp(msg.ConfirmResp{
		Sender:    v.self,
		Suspect:   c.Suspect,
		Period:    c.Period,
		Confirmed: answer,
	}), net.Unreliable)
}

func (v *Verifier) onConfirmResp(from msg.NodeID, r *msg.ConfirmResp) {
	s := v.session(r.Suspect, r.Period)
	if s == nil {
		return
	}
	if r.Confirmed {
		// A witness claimed more than once is every one of its positions.
		for i, w := range s.witnesses {
			if w == from {
				s.silent.clear(i)
			}
		}
	}
}

// onAuditReq serves a history snapshot over the reliable transport,
// possibly forged by a freerider behavior.
func (v *Verifier) onAuditReq(from msg.NodeID, req *msg.AuditReq) {
	horizon := v.cfg.HistoryPeriods
	if req.Horizon > 0 {
		if periods := int(req.Horizon / v.cfg.Period); periods > 0 && periods < horizon {
			horizon = periods
		}
	}
	snap := v.hist.Snapshot(v.self, horizon)
	snap = v.behavior.ForgeAudit(snap)
	v.netw.Send(v.self, from, snap, net.Reliable)
}

// onAuditPoll answers an a-posteriori cross-check: did the suspect really
// propose these chunks to me, and who asked me to confirm the suspect's
// pushes (the fanin evidence).
func (v *Verifier) onAuditPoll(from msg.NodeID, p *msg.AuditPoll) {
	truth := v.hist.HasRecentProposalFrom(p.Suspect, p.Chunks)
	answer := v.behavior.ConfirmAnswer(p.Suspect, truth)
	v.netw.Send(v.self, from, &msg.AuditPollResp{
		Sender:    v.self,
		Suspect:   p.Suspect,
		Period:    p.Period,
		Confirmed: answer,
		Askers:    v.hist.AskersFor(p.Suspect),
	}, net.Reliable)
}
