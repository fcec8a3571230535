// Package history implements the bounded accountability log every LiFTinG
// node maintains (§5 of the paper): a trace of the events of the last nh
// gossip periods. The log feeds three consumers:
//
//   - witness duty for direct cross-checking: "did node s propose chunks C
//     to me recently?" (§5.2);
//   - local history auditing: the fanout multiset Fh (nodes the owner
//     proposed to) and the fanin multiset F'h (nodes that served the owner),
//     whose entropies are checked against γ (§5.3);
//   - a-posteriori cross-checking: the list of proposals to be confirmed by
//     their alleged receivers (§5.3).
//
// The log is a ring of nh period slots, reused in place, plus one index of
// received proposals keyed by sender. The retained window is the periods
// (newest−nh, newest]: a slot is emptied the moment its period leaves the
// window, and a record for a period already outside it is dropped.
package history

import (
	"slices"

	"lifting/internal/msg"
	"lifting/internal/stats"
)

// Log is one node's bounded history. It retains the last Retention periods;
// older entries are dropped as the owner's period advances.
//
// Log is a plain data structure with no locking: each node touches only its
// own log from its own execution context.
type Log struct {
	retention msg.Period
	newest    msg.Period
	// slots is the ring; a retained period p lives in slots[p%retention].
	// It is allocated by the first record, so that building a node costs
	// no more than the log's header.
	slots []slot
	// index holds, per sender, the proposals that sender made to the owner
	// inside the window. A sender with none left in the window has no key.
	index map[msg.NodeID][]received
	// spare keeps the backing arrays of deleted index entries for the next
	// new sender; slab is where a new sender's first entry is carved from
	// when there is none to reuse.
	spare [][]received
	slab  []received
}

// slabSize is the number of index entries allocated at a time: a few
// periods' worth of new senders at f = 7.
const slabSize = 64

// received is one proposal witnessed by the owner. Its chunk ids live in
// the arena of the slot of its period, and go when that slot is emptied.
type received struct {
	period msg.Period
	chunks []msg.ChunkID
}

// slot holds one period's records. A slot is reused for period p+retention
// once p leaves the window: its slices are truncated, not reallocated.
type slot struct {
	period msg.Period
	used   bool
	// proposalsSent are the owner's fanout entries for the period.
	proposalsSent []msg.ProposalRecord
	// servesReceived are the owner's fanin entries (as recorded; a
	// freerider may have recorded forged origins).
	servesReceived []msg.ServeRecord
	// askers records, in arrival order, who asked the owner to confirm
	// which suspect's proposals. For an honest suspect these askers are
	// exactly the suspect's servers, which is how the auditor reconstructs
	// F'h (§5.3).
	askers []confirmAsker
	// senders lists the index keys this period appended to, so that
	// emptying the slot trims exactly those.
	senders []msg.NodeID
	// arena backs the chunk-id copies of the records above and of the
	// period's index entries; last is the most recent copy, shared by the
	// next record with equal content (a propose phase records one
	// advertised set once per partner).
	arena []msg.ChunkID
	last  []msg.ChunkID
	// kept counts the chunk ids copied this period, over all the blocks
	// the arena went through: the size of the one block that would do.
	kept int
	// lent is set once records of this slot were handed to a caller: the
	// arena then belongs to that snapshot and the slot takes a new one
	// when it is reused.
	lent bool
}

type confirmAsker struct {
	suspect, asker msg.NodeID
}

// NewLog creates a log retaining the given number of gossip periods (nh).
// It panics if retention is not positive.
func NewLog(retention int) *Log {
	if retention <= 0 {
		panic("history: retention must be positive")
	}
	return &Log{
		retention: msg.Period(retention),
		index:     make(map[msg.NodeID][]received),
	}
}

// oldest returns the first period of the retained window, which is
// (newest−retention, newest].
func (l *Log) oldest() msg.Period {
	if l.newest < l.retention {
		return 0
	}
	return l.newest - l.retention + 1
}

// slotFor returns the slot to record period p into, advancing the window
// when p is newer than anything seen, or nil when p has already left it.
func (l *Log) slotFor(p msg.Period) *slot {
	if l.slots == nil {
		l.slots = make([]slot, l.retention)
	}
	if p > l.newest {
		// Each period entering the window shares its slot with the one
		// retention before it, which leaves.
		q := l.newest + 1
		l.newest = p
		for q = max(q, l.oldest()); q <= p; q++ {
			l.empty(&l.slots[q%l.retention])
		}
	} else if p < l.oldest() {
		return nil
	}
	s := &l.slots[p%l.retention]
	if !s.used {
		s.period, s.used = p, true
		// Expect a period like the last one: without this, each of a
		// node's first nh periods grows five slices from nothing.
		prev := &l.slots[(p+l.retention-1)%l.retention]
		s.proposalsSent = sized(s.proposalsSent, len(prev.proposalsSent))
		s.servesReceived = sized(s.servesReceived, len(prev.servesReceived))
		s.askers = sized(s.askers, len(prev.askers))
		s.senders = sized(s.senders, len(prev.senders))
		s.arena = sized(s.arena, prev.kept)
	}
	return s
}

// sized returns the empty slice s with room for n elements.
func sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	return make([]T, 0, n)
}

// empty drops a slot's records and the index entries it contributed.
func (l *Log) empty(s *slot) {
	if !s.used {
		return
	}
	for _, sender := range s.senders {
		entries, ok := l.index[sender]
		if !ok {
			continue // listed twice, trimmed the first time
		}
		left := slices.DeleteFunc(entries, func(e received) bool { return e.period == s.period })
		if len(left) > 0 {
			l.index[sender] = left
		} else {
			delete(l.index, sender)
			l.spare = append(l.spare, left)
		}
	}
	s.used = false
	s.proposalsSent = s.proposalsSent[:0]
	s.servesReceived = s.servesReceived[:0]
	s.askers = s.askers[:0]
	s.senders = s.senders[:0]
	s.last = nil
	if s.lent || s.kept > cap(s.arena) {
		s.arena, s.lent = make([]msg.ChunkID, 0, max(s.kept, cap(s.arena))), false
	} else {
		s.arena = s.arena[:0]
	}
	s.kept = 0
}

// keep copies chunks into the slot's arena.
func (s *slot) keep(chunks []msg.ChunkID) []msg.ChunkID {
	if slices.Equal(s.last, chunks) {
		return s.last
	}
	if cap(s.arena)-len(s.arena) < len(chunks) {
		// A further block, not append's doubled copy: the copies handed
		// out so far keep the old block alive whatever happens to it.
		s.arena = make([]msg.ChunkID, 0, max(len(chunks), cap(s.arena)))
	}
	s.kept += len(chunks)
	start := len(s.arena)
	s.arena = append(s.arena, chunks...)
	s.last = s.arena[start:len(s.arena):len(s.arena)]
	return s.last
}

// walk calls fn on every retained period in (since, newest], oldest first.
// Snapshot record order follows it: an audited freerider's forgery draws
// and the auditor's poll sampling both consume randomness in record order.
func (l *Log) walk(since msg.Period, fn func(*slot)) {
	if since >= l.newest {
		return
	}
	for p := max(since+1, l.oldest()); p <= l.newest; p++ {
		if s := &l.slots[p%l.retention]; s.used {
			fn(s)
		}
	}
}

// RecordProposalSent logs that the owner proposed chunks to partner during
// period p.
func (l *Log) RecordProposalSent(p msg.Period, partner msg.NodeID, chunks []msg.ChunkID) {
	if s := l.slotFor(p); s != nil {
		s.proposalsSent = append(s.proposalsSent, msg.ProposalRecord{Period: p, Partner: partner, Chunks: s.keep(chunks)})
	}
}

// RecordServeReceived logs that server delivered chunks to the owner during
// period p (a fanin entry).
func (l *Log) RecordServeReceived(p msg.Period, server msg.NodeID, chunks []msg.ChunkID) {
	if s := l.slotFor(p); s != nil {
		s.servesReceived = append(s.servesReceived, msg.ServeRecord{Period: p, Server: server, Chunks: s.keep(chunks)})
	}
}

// RecordProposalReceived logs that from proposed chunks to the owner during
// period p, for later witness duty.
func (l *Log) RecordProposalReceived(p msg.Period, from msg.NodeID, chunks []msg.ChunkID) {
	s := l.slotFor(p)
	if s == nil || len(chunks) == 0 {
		return
	}
	entries, ok := l.index[from]
	if !ok {
		entries = l.newEntries()
	}
	l.index[from] = append(entries, received{period: p, chunks: s.keep(chunks)})
	s.senders = append(s.senders, from)
}

// newEntries returns an empty entry slice for a sender new to the index: a
// recycled one if there is any, else room for one entry carved from the slab.
func (l *Log) newEntries() []received {
	if k := len(l.spare); k > 0 {
		entries := l.spare[k-1]
		l.spare = l.spare[:k-1]
		return entries
	}
	if len(l.slab) == cap(l.slab) {
		l.slab = make([]received, 0, slabSize)
	}
	k := len(l.slab)
	l.slab = l.slab[:k+1]
	return l.slab[k : k : k+1]
}

// RecordConfirmAsker logs that asker sent a Confirm about suspect during
// period p.
func (l *Log) RecordConfirmAsker(p msg.Period, suspect, asker msg.NodeID) {
	if s := l.slotFor(p); s != nil {
		s.askers = append(s.askers, confirmAsker{suspect: suspect, asker: asker})
	}
}

// hasProposalFrom reports whether the owner received, during the retained
// periods in [from, to], proposals from sender that together cover every
// chunk in chunks. This is the witness-side truth for direct cross-checking
// (§5.2): one index lookup and a scan of that sender's entries.
func (l *Log) hasProposalFrom(sender msg.NodeID, from, to msg.Period, chunks []msg.ChunkID) bool {
	if len(chunks) == 0 {
		return true
	}
	entries := l.index[sender]
next:
	for _, c := range chunks {
		for _, e := range entries {
			if from <= e.period && e.period <= to && slices.Contains(e.chunks, c) {
				continue next
			}
		}
		return false
	}
	return true
}

// HasRecentProposalFrom reports whether any combination of retained
// proposals from sender covers chunks. Witness duty asks over the whole
// window because sender and witness periods are not synchronized.
func (l *Log) HasRecentProposalFrom(sender msg.NodeID, chunks []msg.ChunkID) bool {
	return l.hasProposalFrom(sender, 0, l.newest, chunks)
}

// FanoutMultiset returns Fh: the multiset of partners the owner proposed to
// during periods (since, newest].
func (l *Log) FanoutMultiset(since msg.Period) *stats.Multiset[msg.NodeID] {
	ms := stats.NewMultiset[msg.NodeID]()
	l.walk(since, func(s *slot) {
		for i := range s.proposalsSent {
			ms.Add(s.proposalsSent[i].Partner)
		}
	})
	return ms
}

// FaninMultiset returns F'h: the multiset of servers recorded in the owner's
// fanin during periods (since, newest].
func (l *Log) FaninMultiset(since msg.Period) *stats.Multiset[msg.NodeID] {
	ms := stats.NewMultiset[msg.NodeID]()
	l.walk(since, func(s *slot) {
		for i := range s.servesReceived {
			ms.Add(s.servesReceived[i].Server)
		}
	})
	return ms
}

// Proposals returns the owner's fanout records for periods (since, newest],
// oldest period first, in recording order within a period. The records
// share chunk slices with the log; callers must not modify them, and may
// hold them for as long as they like (see slot.lent).
func (l *Log) Proposals(since msg.Period) []msg.ProposalRecord {
	var out []msg.ProposalRecord
	l.walk(since, func(s *slot) {
		out = append(out, s.proposalsSent...)
		s.lent = true
	})
	return out
}

// Serves returns the owner's fanin records for periods (since, newest], in
// the order and under the sharing rule of Proposals.
func (l *Log) Serves(since msg.Period) []msg.ServeRecord {
	var out []msg.ServeRecord
	l.walk(since, func(s *slot) {
		out = append(out, s.servesReceived...)
		s.lent = true
	})
	return out
}

// ProposalPeriods returns the number of distinct periods in (since, newest]
// during which the owner sent at least one proposal. Comparing this count
// against the expected number of periods detects gossip-period stretching
// (§5.3: "checking the gossip period boils down to counting the number of
// proposals in the local history").
func (l *Log) ProposalPeriods(since msg.Period) int {
	n := 0
	l.walk(since, func(s *slot) {
		if len(s.proposalsSent) > 0 {
			n++
		}
	})
	return n
}

// AskersFor returns the multiset of nodes that asked the owner to confirm
// proposals of suspect during periods (since, newest], in ascending period
// order (arrival order within a period): the slice feeds the fanin entropy
// evidence.
func (l *Log) AskersFor(suspect msg.NodeID, since msg.Period) []msg.NodeID {
	var out []msg.NodeID
	l.walk(since, func(s *slot) {
		for _, a := range s.askers {
			if a.suspect == suspect {
				out = append(out, a.asker)
			}
		}
	})
	return out
}

// Snapshot builds the audit response for an AuditReq covering the most
// recent horizon periods: every fanout and fanin record retained. An honest
// node returns this snapshot verbatim; a freerider may forge it (§5.3
// discusses why forgery is caught by a-posteriori cross-checking).
func (l *Log) Snapshot(owner msg.NodeID, horizon int) *msg.AuditResp {
	since := msg.Period(0)
	if h := msg.Period(horizon); l.newest > h {
		since = l.newest - h
	}
	resp := &msg.AuditResp{Sender: owner}
	resp.Proposals = l.Proposals(since)
	resp.Serves = l.Serves(since)
	return resp
}

// Newest returns the most recent period recorded.
func (l *Log) Newest() msg.Period { return l.newest }

// PeriodsRetained returns the number of periods currently held (bounded by
// Retention).
func (l *Log) PeriodsRetained() int {
	n := 0
	for i := range l.slots {
		if l.slots[i].used {
			n++
		}
	}
	return n
}
