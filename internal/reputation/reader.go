package reputation

import (
	"time"

	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/sim"
)

// Reader performs decentralized score reads: it queries a target's M
// managers and votes over the returned copies with the minimum (§5.1 —
// the minimum makes score inflation by colluding managers ineffective,
// and blame-message loss can only raise individual copies, never lower
// the minimum below the truth).
//
// Replies flagged Tracked=false carry no genuine score copy (the manager
// dropped the target when a membership change took it away, or never had
// it — the Handoff a manager the target gains is pushed may not have
// landed yet) and are discarded:
// they count toward "every manager answered" but contribute nothing to the
// vote, so a read that reaches only such managers reports zero replies
// instead of a fabricated score.
//
// Trust model: like every layer of this substrate, the reader trusts the id
// a reply arrives from (not the Sender it names) — there is no message
// authentication anywhere in the protocol, and an adversary able to forge
// that id already owns strictly stronger moves (posing as a manager, its
// Expel marks the target expelled outright and its Blames poison a copy
// directly). The queried set below therefore defends against ids from
// OUTSIDE the manager set (cheap, and keeps forgeries from crowding out the
// vote or terminating the read), not against an adversary impersonating the
// managers themselves. A reply credited from a manager answering a previous,
// timed-out read of the same target is likewise accepted: it is a genuine
// copy from the right manager, merely milliseconds staler.
type Reader struct {
	self    msg.NodeID
	cfg     Config
	ctx     sim.Context
	netw    net.Network
	dir     *membership.Directory
	timeout time.Duration

	pending map[msg.NodeID]*readState
}

type readState struct {
	copies   []float64
	expelled []bool
	// queried holds the managers this read actually contacted, flipped to
	// false as each answers: only their replies count — toward the vote and
	// toward the all-managers-answered early completion — so a node forging
	// ScoreResps from ids outside the manager set can neither terminate the
	// read early nor crowd genuine low copies out of the minimum.
	queried  map[msg.NodeID]bool
	awaiting int
	done     bool
	callback func(score float64, expelled bool, replies int)
}

// NewReader creates a score reader hosted at node self. timeout bounds how
// long a read waits for manager replies.
func NewReader(self msg.NodeID, cfg Config, ctx sim.Context, netw net.Network, dir *membership.Directory, timeout time.Duration) *Reader {
	return &Reader{
		self:    self,
		cfg:     cfg,
		ctx:     ctx,
		netw:    netw,
		dir:     dir,
		timeout: timeout,
		pending: make(map[msg.NodeID]*readState),
	}
}

// Read queries target's managers and delivers the min-vote result to fn.
// The read completes as soon as all queried managers have replied; the
// timeout only covers replies lost on the unreliable transport. Concurrent
// reads of the same target are rejected (fn is called with zero replies).
// Reads with no genuine score copies at all report a zero score with zero
// replies.
func (r *Reader) Read(target msg.NodeID, fn func(score float64, expelled bool, replies int)) {
	if _, dup := r.pending[target]; dup {
		fn(0, false, 0)
		return
	}
	mgrs := r.dir.Managers(target, r.cfg.M)
	st := &readState{
		callback: fn,
		queried:  make(map[msg.NodeID]bool, len(mgrs)),
		awaiting: len(mgrs),
	}
	r.pending[target] = st
	for _, mgr := range mgrs {
		st.queried[mgr] = true
		r.netw.Send(r.self, mgr, &msg.ScoreReq{Sender: r.self, Target: target}, net.Unreliable)
	}
	if st.awaiting == 0 {
		r.finish(target, st)
		return
	}
	r.ctx.After(r.timeout, func() { r.finish(target, st) })
}

// finish resolves an outstanding read exactly once.
func (r *Reader) finish(target msg.NodeID, st *readState) {
	if st.done {
		return
	}
	st.done = true
	delete(r.pending, target)
	score, expelled := MinVoteScore(st.copies, st.expelled)
	st.callback(score, expelled, len(st.copies))
}

// HandleAux consumes ScoreResp messages addressed to this reader. It
// reports whether the message belonged to an outstanding read.
func (r *Reader) HandleAux(from msg.NodeID, m msg.Message) bool {
	resp, ok := m.(*msg.ScoreResp)
	if !ok {
		return false
	}
	st, ok := r.pending[resp.Target]
	if !ok || st.done {
		return true
	}
	// Unqueried senders (forgeries, duplicates) are consumed but ignored.
	if !st.queried[from] {
		return true
	}
	st.queried[from] = false
	st.awaiting--
	if resp.Tracked {
		st.copies = append(st.copies, resp.Score)
		st.expelled = append(st.expelled, resp.Expelled)
	}
	if st.awaiting <= 0 {
		r.finish(resp.Target, st)
	}
	return true
}
