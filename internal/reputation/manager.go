package reputation

import (
	"math"
	"slices"
	"sync"

	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
)

// Config parameterizes the message-driven reputation layer.
type Config struct {
	// M is the number of managers per node (25 in the paper's deployment).
	M int
	// Compensation is b̃, the per-period wrongful-blame compensation.
	Compensation float64
	// Eta is the expulsion threshold η on normalized scores (−9.75 in the
	// paper).
	Eta float64
	// GracePeriods is the minimum number of gossip periods a node must have
	// been tracked before η applies: σ(s) shrinks as 1/√r (§6.3.1), so very
	// young scores are too noisy to act on.
	GracePeriods int
	// FlushEvery batches client blames over this many gossip periods before
	// reporting them to the managers (default 1). Scores only matter on the
	// timescale of r ≈ 50 periods, so coarse batching keeps the blaming
	// bandwidth negligible (Table 5) at a small detection-latency cost.
	FlushEvery int
	// OnExpel, if non-nil, is invoked the first time a manager decides to
	// expel a node (used by the harness to remove the node from the
	// membership and record detection latency).
	OnExpel func(target msg.NodeID, reason msg.BlameReason)
}

// Manager is the manager-side duty of one node: it holds score copies for
// the targets it manages and serves blame/score/expel/handoff traffic.
//
// A Manager's board operations are guarded by an internal mutex: under the
// UDP runtime its messages arrive on the owning node's goroutine while the
// harness ticks periods and tracks and drops targets from other goroutines.
type Manager struct {
	self  msg.NodeID
	cfg   Config
	mu    sync.Mutex
	board *Board
	netw  net.Network
	dir   *membership.Directory
	// sends is the set of send blocks of the node's execution context, the
	// Handoffs are carved from; nil for a manager that never hands off.
	sends *msg.Sends
	// doomed is Tick's scratch: the targets its last tick found below η.
	doomed []msg.NodeID
}

// NewManager creates the manager component of node self, carving its
// Handoffs from sends.
func NewManager(self msg.NodeID, cfg Config, netw net.Network, dir *membership.Directory, sends *msg.Sends) *Manager {
	return &Manager{
		self:  self,
		cfg:   cfg,
		board: NewBoard(cfg.Compensation),
		netw:  netw,
		dir:   dir,
		sends: sends,
	}
}

// Tick advances the manager's period clock to p and expels, in id order, the
// tracked targets not yet expelled whose score is below η past their grace
// periods: scores change with r even without new blames. The verdicts are
// gathered in a scratch of the manager's, so a tick allocates nothing for
// them once the scratch has held its largest set.
func (m *Manager) Tick(p msg.Period) {
	m.mu.Lock()
	m.board.SetPeriod(p)
	m.doomed = m.doomed[:0]
	m.board.Each(func(id msg.NodeID, e Entry) {
		if !e.Expelled && e.periods(m.board.period) >= m.cfg.GracePeriods && m.board.score(e) < m.cfg.Eta {
			m.doomed = append(m.doomed, id)
		}
	})
	m.mu.Unlock()
	slices.Sort(m.doomed)
	for _, id := range m.doomed {
		m.expel(id, msg.ReasonUnknown)
	}
}

// Track registers target with this manager as of period p.
func (m *Manager) Track(target msg.NodeID, p msg.Period) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.board.SetPeriod(p)
	m.board.Join(target)
}

// Snapshot returns a copy of the manager's entry for target, and whether
// the target is tracked here.
func (m *Manager) Snapshot(target msg.NodeID) (Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.board.Entry(target)
}

// HandOff pushes this manager's entry for target to to, the managers
// target gained at a membership change, in one Handoff carved from the
// execution context's send blocks; nothing if it does not track target. It
// runs on the manager's execution context.
func (m *Manager) HandOff(target msg.NodeID, to []msg.NodeID) {
	e, tracked := m.Snapshot(target)
	if !tracked {
		return
	}
	h := m.sends.Handoff(msg.Handoff{Sender: m.self, Target: target,
		TotalBlame: e.TotalBlame, JoinPeriod: e.JoinPeriod, Expelled: e.Expelled, Reason: e.Reason})
	for _, id := range to {
		m.netw.Send(m.self, id, h, net.Unreliable)
	}
}

// TrackedCount returns how many targets this manager currently tracks.
func (m *Manager) TrackedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.board.Len()
}

// Drop stops tracking target (the manager is no longer responsible for it).
func (m *Manager) Drop(target msg.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.board.Drop(target)
}

// Score returns the manager's current normalized score copy for target and
// whether the target is tracked here.
func (m *Manager) Score(target msg.NodeID) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.board.Tracked(target) {
		return 0, false
	}
	return m.board.Score(target), true
}

// Scores returns the manager's current normalized score for every target it
// tracks — the local manager-duty view an operator sees on /status.
func (m *Manager) Scores() map[msg.NodeID]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[msg.NodeID]float64)
	m.board.Each(func(id msg.NodeID, e Entry) {
		out[id] = m.board.score(e)
	})
	return out
}

// HandleMessage processes reputation traffic addressed to this node. It
// reports whether the message kind belonged to the reputation layer.
func (m *Manager) HandleMessage(from msg.NodeID, mm msg.Message) bool {
	switch v := mm.(type) {
	case *msg.Blame:
		// A blame only ever lowers a score: one that would raise it (a value
		// not > 0, NaN included), swamp it (+Inf) or come from its own
		// target (self-absolution) is refused.
		if !(v.Value > 0) || math.IsInf(v.Value, 1) || from == v.Target {
			return true
		}
		m.mu.Lock()
		m.board.AddBlame(v.Target, v.Value)
		doomed := !m.board.Expelled(v.Target) &&
			m.board.Periods(v.Target) >= m.cfg.GracePeriods &&
			m.board.Score(v.Target) < m.cfg.Eta
		m.mu.Unlock()
		if doomed {
			m.expel(v.Target, v.Reason)
		}
		return true
	case *msg.ScoreReq:
		// Answer honestly about targets this manager does not track (a
		// manager that lost the target at a membership change dropped its
		// copy): a fabricated 0 would poison the reader's min-vote. The reply
		// still goes out — readers count it toward "all managers answered" —
		// but carries Tracked=false and no score.
		m.mu.Lock()
		resp := &msg.ScoreResp{
			Sender:  m.self,
			Target:  v.Target,
			Tracked: m.board.Tracked(v.Target),
		}
		if resp.Tracked {
			resp.Score = m.board.Score(v.Target)
			resp.Expelled = m.board.Expelled(v.Target)
		}
		m.mu.Unlock()
		m.netw.Send(m.self, from, resp, net.Unreliable)
		return true
	case *msg.Expel:
		// Another manager of the target decided to expel: adopt the verdict
		// so reads from this manager agree. Anyone else's is a forgery.
		if !slices.Contains(m.dir.Managers(v.Target, m.cfg.M), from) {
			return true
		}
		m.mu.Lock()
		first := m.board.MarkExpelled(v.Target, v.Reason)
		m.mu.Unlock()
		if first && m.cfg.OnExpel != nil {
			m.cfg.OnExpel(v.Target, v.Reason)
		}
		return true
	case *msg.Handoff:
		// Another manager's copy, pushed at a membership change: taken only
		// from a current manager of the target (as for Expel), by one, and
		// only if Worse than the copy here. A copy begun at the gain is
		// within its grace periods, so a kept manager's older one replaces
		// it even when blames flushed at the change landed first.
		mgrs := m.dir.Managers(v.Target, m.cfg.M)
		if !slices.Contains(mgrs, from) || !slices.Contains(mgrs, m.self) {
			return true
		}
		e := Entry{TotalBlame: v.TotalBlame, JoinPeriod: v.JoinPeriod, Expelled: v.Expelled, Reason: v.Reason}
		m.mu.Lock()
		if cur, tracked := m.board.Entry(v.Target); !tracked || Worse(e, cur, m.board.period, m.cfg.GracePeriods) {
			m.board.Adopt(v.Target, e)
		}
		m.mu.Unlock()
		return true
	default:
		return false
	}
}

// expel marks the target expelled, notifies the harness and informs the
// target's other managers so their copies converge. Side effects run
// outside the manager lock: OnExpel re-enters the harness, which may call
// back into managers.
func (m *Manager) expel(target msg.NodeID, reason msg.BlameReason) {
	m.mu.Lock()
	first := m.board.MarkExpelled(target, reason)
	m.mu.Unlock()
	if !first {
		return
	}
	if m.cfg.OnExpel != nil {
		m.cfg.OnExpel(target, reason)
	}
	// One Expel serves every other manager, as one Blame serves a flush.
	ex := &msg.Expel{Sender: m.self, Target: target, Reason: reason}
	for _, mgr := range m.dir.Managers(target, m.cfg.M) {
		if mgr == m.self {
			continue
		}
		m.netw.Send(m.self, mgr, ex, net.Unreliable)
	}
}

// Client is the verifier-side interface to the reputation substrate: it
// routes blames to the target's managers. Blames against the same target
// are batched until Flush (typically once per gossip period): the blame
// values of different verifications are designed to be summable (§5), so
// batching costs nothing in fidelity and keeps the messaging overhead
// proportional to the number of blamed targets rather than of blame events.
type Client struct {
	self    msg.NodeID
	cfg     Config
	netw    net.Network
	dir     *membership.Directory
	pending map[msg.NodeID]pendingBlame
	order   []msg.NodeID
	// sends is the set of send blocks the Blames Flush sends are carved
	// from: the owning node's execution context's, which alone flushes.
	sends *msg.Sends
}

type pendingBlame struct {
	value  float64
	reason msg.BlameReason
}

// NewClient creates the client component of node self, with a set of send
// blocks of its own: a client alone on its execution context.
func NewClient(self msg.NodeID, cfg Config, netw net.Network, dir *membership.Directory) *Client {
	return NewClientOn(self, cfg, netw, dir, new(msg.Sends))
}

// NewClientOn creates the client component of node self, carving its Blames
// from sends, the set of send blocks of the node's execution context.
func NewClientOn(self msg.NodeID, cfg Config, netw net.Network, dir *membership.Directory, sends *msg.Sends) *Client {
	return &Client{
		self:    self,
		cfg:     cfg,
		netw:    netw,
		dir:     dir,
		pending: make(map[msg.NodeID]pendingBlame),
		sends:   sends,
	}
}

// Blame accumulates a blame of the given value against target; the batch is
// sent to the target's M managers on the next Flush. The recorded reason is
// the first one of the batch.
func (c *Client) Blame(target msg.NodeID, value float64, reason msg.BlameReason) {
	if value <= 0 {
		return
	}
	if p, ok := c.pending[target]; ok {
		p.value += value
		c.pending[target] = p
		return
	}
	c.pending[target] = pendingBlame{value: value, reason: reason}
	c.order = append(c.order, target)
}

// Pending returns the blame the client holds against target, batched since
// its last Flush.
func (c *Client) Pending(target msg.NodeID) float64 { return c.pending[target].value }

// Flush sends one aggregated blame message per blamed target to each of its
// M managers (§5.1). Blames travel over the unreliable transport; min-vote
// reads tolerate the resulting divergence between manager copies.
//
// One Blame value is shared by all M sends of a target: every backend treats
// messages as immutable once handed to Send (the UDP transport serializes
// them on the spot through the pooled AppendEncode path), so the per-manager
// re-allocation this replaced bought nothing. That Blame is carved from the
// send blocks of the client's execution context (msg.Sends: msg.SendBlock
// to a block for each node that carves from the set, up to a sim shard's
// 64 times that), the way a Decoder carves the ones it receives, and never
// carved twice, so a receiver may keep it. The pending map holds each batch
// by value and is cleared in place — Flush runs once per blamed target per
// period on every node, which makes it a rebalance-scale hot path at 10k
// nodes: a flush allocates a block every block's worth of targets and
// nothing else.
func (c *Client) Flush() {
	for _, target := range c.order {
		p := c.pending[target]
		b := c.sends.Blame(msg.Blame{Sender: c.self, Target: target, Value: p.value, Reason: p.reason})
		for _, mgr := range c.dir.Managers(target, c.cfg.M) {
			c.netw.Send(c.self, mgr, b, net.Unreliable)
		}
	}
	clear(c.pending)
	c.order = c.order[:0]
}

// MinVoteScore aggregates manager score copies with the paper's voting
// function: the minimum over the returned values (§5.1). It also reports
// whether any manager flagged the target as expelled.
func MinVoteScore(copies []float64, expelledFlags []bool) (score float64, expelled bool) {
	if len(copies) == 0 {
		return 0, false
	}
	score = copies[0]
	for _, s := range copies[1:] {
		if s < score {
			score = s
		}
	}
	for _, e := range expelledFlags {
		if e {
			expelled = true
			break
		}
	}
	return score, expelled
}
