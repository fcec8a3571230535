package core

import (
	"math"
	"time"

	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/sim"
	"lifting/internal/stats"
)

// AuditOutcome is the result of one local history audit (§5.3).
type AuditOutcome struct {
	Target msg.NodeID
	// Responded reports whether the target returned its history at all.
	Responded bool
	// FanoutEntropy is H(Fh), the entropy of the claimed propose partners.
	FanoutEntropy float64
	// FanoutSize is |Fh|.
	FanoutSize int
	// FanoutOK reports whether the fanout entropy check passed.
	FanoutOK bool
	// FaninEntropy is H(F'h), reconstructed from the confirm-askers
	// reported by the polled partners.
	FaninEntropy float64
	// FaninSize is |F'h|.
	FaninSize int
	// FaninOK reports whether the fanin entropy check passed.
	FaninOK bool
	// ProposalPeriods is the number of distinct periods with proposals in
	// the history (the gossip-period check).
	ProposalPeriods int
	// PeriodBlame is the blame emitted for gossip-period stretching.
	PeriodBlame float64
	// Polled is the number of history entries polled a posteriori.
	Polled int
	// Unconfirmed is the number of polled entries the alleged receivers did
	// not confirm; each costs a blame of 1.
	Unconfirmed int
	// Expel reports the audit verdict: failing either entropy check (or
	// refusing the audit) expels the node (§5.3).
	Expel bool
}

// EntropyThreshold returns the effective entropy threshold for an evidence
// multiset of the given size. γ is calibrated for histories of nh·f entries
// (log2(600) ≈ 9.23 max for the paper's parameters); smaller evidence sets
// scale the threshold proportionally in log-space so short histories are not
// wrongfully condemned. This scaling is an implementation choice the paper
// leaves open.
func EntropyThreshold(gamma float64, size, nominal int) float64 {
	if size >= nominal || size <= 1 || nominal <= 1 {
		return gamma
	}
	return gamma * math.Log2(float64(size)) / math.Log2(float64(nominal))
}

// EvaluateFanout runs the fanout entropy check of §5.3 on a history
// snapshot: the multiset Fh of claimed partners must have entropy above the
// (scaled) threshold.
func EvaluateFanout(proposals []msg.ProposalRecord, cfg Config) (entropy float64, size int, ok bool) {
	cfg = cfg.withDefaults()
	ms := stats.NewMultiset[msg.NodeID]()
	for i := range proposals {
		ms.Add(proposals[i].Partner)
	}
	entropy = ms.Entropy()
	size = ms.Len()
	if size < cfg.MinEntropySamples {
		return entropy, size, true
	}
	return entropy, size, entropy >= EntropyThreshold(cfg.Gamma, size, cfg.nominalEntropySize())
}

// EvaluateFanin runs the fanin entropy check of §5.3 on the confirm-asker
// multiset F'h gathered from the polled partners.
func EvaluateFanin(askers *stats.Multiset[msg.NodeID], cfg Config) (entropy float64, size int, ok bool) {
	cfg = cfg.withDefaults()
	entropy = askers.Entropy()
	size = askers.Len()
	if size < cfg.MinEntropySamples {
		return entropy, size, true
	}
	gamma := cfg.Gamma
	if cfg.GammaFanin != 0 {
		gamma = cfg.GammaFanin
	}
	return entropy, size, entropy >= EntropyThreshold(gamma, size, cfg.nominalEntropySize())
}

// PeriodStretchBlame implements the gossip-period check of §5.3: assuming a
// correct fanout, too few propose phases in the history reveal a stretched
// period. It returns the blame value (0 when within slack).
func PeriodStretchBlame(proposalPeriods, expectedPeriods int, slack float64) float64 {
	if expectedPeriods <= 0 {
		return 0
	}
	floor := slack * float64(expectedPeriods)
	if float64(proposalPeriods) >= floor {
		return 0
	}
	return float64(expectedPeriods - proposalPeriods)
}

// Auditor runs local history audits from one node (§5.3: audits are
// sporadic, run over the reliable transport, and may lead to expulsion).
type Auditor struct {
	self msg.NodeID
	cfg  Config
	ctx  sim.Context
	netw net.Network
	sink BlameSink
	// onOutcome receives every finished audit.
	onOutcome func(AuditOutcome)

	pending map[msg.NodeID]*auditState
}

type auditState struct {
	outcome   AuditOutcome
	polls     map[pollKey]bool // outstanding polls
	confirmed map[pollKey]bool
	askers    *stats.Multiset[msg.NodeID]
	gotResp   bool
	closed    bool
}

type pollKey struct {
	partner msg.NodeID
	period  msg.Period
}

// NewAuditor creates an auditor hosted at node self. Outcomes are delivered
// to onOutcome; blames flow into sink.
func NewAuditor(self msg.NodeID, cfg Config, ctx sim.Context, netw net.Network, sink BlameSink, onOutcome func(AuditOutcome)) *Auditor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Auditor{
		self:      self,
		cfg:       cfg.withDefaults(),
		ctx:       ctx,
		netw:      netw,
		sink:      sink,
		onOutcome: onOutcome,
		pending:   make(map[msg.NodeID]*auditState),
	}
}

// Audit requests target's history and launches the checks. Concurrent
// audits of the same target are coalesced.
func (a *Auditor) Audit(target msg.NodeID) {
	if _, dup := a.pending[target]; dup {
		return
	}
	st := &auditState{
		outcome:   AuditOutcome{Target: target},
		polls:     make(map[pollKey]bool),
		confirmed: make(map[pollKey]bool),
		askers:    stats.NewMultiset[msg.NodeID](),
	}
	a.pending[target] = st
	a.netw.Send(a.self, target, &msg.AuditReq{
		Sender:  a.self,
		Horizon: time.Duration(a.cfg.HistoryPeriods) * a.cfg.Period,
	}, net.Reliable)
	a.ctx.After(a.cfg.auditPollTimeout(), func() {
		if !st.gotResp && !st.closed {
			// Refusing an audit is treated as failing it: otherwise
			// freeriders would simply stay silent.
			st.outcome.Expel = true
			a.finish(target, st)
		}
	})
}

// HandleAux processes audit responses addressed to this auditor.
func (a *Auditor) HandleAux(from msg.NodeID, m msg.Message) bool {
	switch mm := m.(type) {
	case *msg.AuditResp:
		a.onAuditResp(from, mm)
	case *msg.AuditPollResp:
		a.onAuditPollResp(from, mm)
	default:
		return false
	}
	return true
}

func (a *Auditor) onAuditResp(from msg.NodeID, resp *msg.AuditResp) {
	st, ok := a.pending[from]
	if !ok || st.gotResp || st.closed {
		return
	}
	st.gotResp = true
	st.outcome.Responded = true

	// Fanout entropy check on the claimed proposals.
	st.outcome.FanoutEntropy, st.outcome.FanoutSize, st.outcome.FanoutOK = EvaluateFanout(resp.Proposals, a.cfg)

	// Gossip-period check: the history horizon is h *seconds* (§5), so an
	// honest node's snapshot contains one propose phase per Tg of wall
	// time, up to nh. A stretcher's own period numbering stretches with it,
	// which is why the expectation must come from the auditor's clock, not
	// from the snapshot's period span. Nodes younger than the horizon are
	// covered by capping at the elapsed system time (this reproduction does
	// not model churn; a deployment would add a join-time grace).
	periods := make(map[msg.Period]bool)
	for i := range resp.Proposals {
		periods[resp.Proposals[i].Period] = true
	}
	st.outcome.ProposalPeriods = len(periods)
	expected := int(a.ctx.Now() / a.cfg.Period)
	if expected > a.cfg.HistoryPeriods {
		expected = a.cfg.HistoryPeriods
	}
	st.outcome.PeriodBlame = PeriodStretchBlame(len(periods), expected, a.cfg.PeriodCheckSlack)
	// Complementary clock check: the density check alone misses a stretcher
	// once the run outlives its nh own-period retention (its last nh sparse
	// periods then span the whole horizon and look dense). But a node that
	// numbers its phases honestly reports a newest period far behind the
	// auditor's clock — and one that inflates its numbering to keep up
	// leaves gaps the density check catches. Either way the stretch shows.
	if len(resp.Proposals) > 0 {
		var newest msg.Period
		for i := range resp.Proposals {
			if p := resp.Proposals[i].Period; p > newest {
				newest = p
			}
		}
		elapsed := int(a.ctx.Now() / a.cfg.Period)
		st.outcome.PeriodBlame += PeriodStretchBlame(int(newest), elapsed, a.cfg.PeriodCheckSlack)
	}
	if st.outcome.PeriodBlame > 0 {
		a.sink.Blame(from, st.outcome.PeriodBlame, msg.ReasonPeriodStretch)
	}

	// A-posteriori cross-checking: poll every alleged receiver (§5.3 allows
	// "all or a subset"; this polls all), coalescing one poll per (partner,
	// period).
	type pollBody struct {
		partner msg.NodeID
		period  msg.Period
		chunks  []msg.ChunkID
	}
	merged := make(map[pollKey]*pollBody)
	var order []pollKey
	for i := range resp.Proposals {
		rec := &resp.Proposals[i]
		key := pollKey{partner: rec.Partner, period: rec.Period}
		if b, ok := merged[key]; ok {
			b.chunks = append(b.chunks, rec.Chunks...)
			continue
		}
		merged[key] = &pollBody{partner: rec.Partner, period: rec.Period, chunks: append([]msg.ChunkID(nil), rec.Chunks...)}
		order = append(order, key)
	}
	for _, key := range order {
		b := merged[key]
		st.polls[key] = true
		a.netw.Send(a.self, b.partner, &msg.AuditPoll{
			Sender:  a.self,
			Suspect: from,
			Period:  b.period,
			Chunks:  b.chunks,
		}, net.Reliable)
	}
	st.outcome.Polled = len(order)

	a.ctx.After(a.cfg.auditPollTimeout(), func() {
		if !st.closed {
			a.conclude(from, st)
		}
	})
	if len(order) == 0 {
		a.conclude(from, st)
	}
}

func (a *Auditor) onAuditPollResp(from msg.NodeID, resp *msg.AuditPollResp) {
	st, ok := a.pending[resp.Suspect]
	if !ok || st.closed {
		return
	}
	key := pollKey{partner: from, period: resp.Period}
	if !st.polls[key] || st.confirmed[key] {
		return
	}
	if resp.Confirmed {
		st.confirmed[key] = true
	}
	for _, asker := range resp.Askers {
		st.askers.Add(asker)
	}
}

func (a *Auditor) conclude(target msg.NodeID, st *auditState) {
	unconfirmed := 0
	//lint:allow ordered-map-range commutative count; order cannot affect the total
	for key := range st.polls {
		if !st.confirmed[key] {
			unconfirmed++
		}
	}
	st.outcome.Unconfirmed = unconfirmed
	if unconfirmed > 0 {
		a.sink.Blame(target, UnconfirmedHistoryBlame(unconfirmed), msg.ReasonAuditUnconfirmed)
	}

	st.outcome.FaninEntropy, st.outcome.FaninSize, st.outcome.FaninOK = EvaluateFanin(st.askers, a.cfg)
	st.outcome.Expel = !st.outcome.FanoutOK || !st.outcome.FaninOK
	a.finish(target, st)
}

func (a *Auditor) finish(target msg.NodeID, st *auditState) {
	st.closed = true
	delete(a.pending, target)
	if a.onOutcome != nil {
		a.onOutcome(st.outcome)
	}
}
