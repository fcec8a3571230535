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
// The log is four queues of small records, each in period order: the owner's
// propose phases, the proposals it received, the serves it received and the
// nodes that asked it to confirm somebody. The retained window is the periods
// (newest−nh, newest]: a record leaves the head of its queue the moment its
// period leaves the window, and a record for a period already outside it is
// dropped.
//
// The log keeps the partner and chunk-id lists it is handed; it copies none
// and writes to none. A caller never writes to a list after recording it
// (messages are read-only once sent, and these lists are what messages
// carry), and what the accessors return shares the same lists under the same
// rule, for as long as anybody holds them.
package history

import (
	"slices"
	"sort"

	"lifting/internal/msg"
)

// Log is one node's bounded history. It retains the last Retention periods;
// older entries are dropped as the owner's period advances.
//
// Log is a plain data structure with no locking: each node touches only its
// own log from its own execution context.
type Log struct {
	retention msg.Period
	newest    msg.Period
	// sent holds one record per propose phase: the fanout entries of a
	// period are its partners, each offered the same chunks.
	sent queue[proposePhase]
	// received holds the proposals made to the owner and senders, place for
	// place, who made each: witness duty scans the ids, 4 bytes a proposal,
	// and touches a record only where the id matches.
	received queue[receivedProposal]
	senders  queue[msg.NodeID]
	// serves holds the owner's fanin entries (as recorded; a freerider may
	// have recorded forged origins).
	serves queue[serve]
	// askers records who asked the owner to confirm which suspect's
	// proposals. For an honest suspect these askers are exactly the suspect's
	// servers, which is how the auditor reconstructs F'h (§5.3).
	askers queue[confirmAsker]
}

// record is what a queue of the log holds: a value that knows its period.
type record interface{ when() msg.Period }

type proposePhase struct {
	period   msg.Period
	partners []msg.NodeID
	chunks   []msg.ChunkID
}

type receivedProposal struct {
	period msg.Period
	chunks []msg.ChunkID
}

type serve msg.ServeRecord

type confirmAsker struct {
	period         msg.Period
	suspect, asker msg.NodeID
}

func (r proposePhase) when() msg.Period     { return r.period }
func (r receivedProposal) when() msg.Period { return r.period }
func (r serve) when() msg.Period            { return r.Period }
func (r confirmAsker) when() msg.Period     { return r.period }

// queue is a ring of records held by value, oldest first: place i is
// buf[(head+i) mod len(buf)]. It is made by the first record, so that
// building a node costs no more than the log's header, and it never shrinks:
// its size follows the most records one window ever held.
type queue[T any] struct {
	buf     []T
	head, n int
}

// at returns place i.
func (q *queue[T]) at(i int) *T {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// runs returns the records from place i on, oldest first, as the two
// contiguous stretches of the ring they lie in (the second is empty unless
// they wrap around its end).
func (q *queue[T]) runs(i int) [2][]T {
	if i >= q.n {
		return [2][]T{}
	}
	lo, hi := q.head+i, q.head+q.n
	switch size := len(q.buf); {
	case lo >= size:
		return [2][]T{q.buf[lo-size : hi-size]}
	case hi > size:
		return [2][]T{q.buf[lo:], q.buf[:hi-size]}
	}
	return [2][]T{q.buf[lo:hi]}
}

// resize moves the records into a ring of the given size.
func (q *queue[T]) resize(size int) {
	buf, runs := make([]T, size), q.runs(0)
	copy(buf[copy(buf, runs[0]):], runs[1])
	q.buf, q.head = buf, 0
}

// insert adds v k places before the tail of a ring that has room.
func (q *queue[T]) insert(v T, k int) {
	i := q.n
	q.n++
	for ; k > 0; k, i = k-1, i-1 {
		*q.at(i) = *q.at(i - 1)
	}
	*q.at(i) = v
}

// drop removes the oldest record. The vacated place is zeroed, so that the
// ring pins no list past its period.
func (q *queue[T]) drop() {
	*q.at(0) = *new(T)
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// trim drops the records of periods before oldest and returns how many went.
func trim[T record](q *queue[T], oldest msg.Period) int {
	k := 0
	for ; q.n > 0 && (*q.at(0)).when() < oldest; k++ {
		q.drop()
	}
	return k
}

// file puts r into q behind the records of its period and of earlier ones,
// and returns how far before the tail that is. Gossip records the serves of
// p−1 at the top of phase p, before anything of p, and everything else under
// the period it happens in, so its records arrive in period order, queue by
// queue, and the answer is 0; a late record is moved back to its period's
// place, so that every read is a plain walk.
func file[T record](l *Log, q *queue[T], r T) int {
	k := 0
	for k < q.n && (*q.at(q.n - 1 - k)).when() > r.when() {
		k++
	}
	if q.n == len(q.buf) {
		q.resize(room(l, q))
	}
	q.insert(r, k)
	return k
}

// room returns the size a full ring grows to: twice what it holds while the
// window fills, but no more than an eighth over what the whole window will
// hold at the rate of the periods so far — which, once the window is full, is
// an eighth more. The logs are the largest structure of a run, so what a
// growing ring leaves the collector and what a grown one never uses both
// count: growing by a quarter left four times the ring behind, and plain
// doubling ends up to half empty.
func room[T record](l *Log, q *queue[T]) int {
	if q.n == 0 {
		return 8
	}
	span := l.newest - (*q.at(0)).when() + 1
	window := q.n * int(l.retention) / int(span)
	return min(2*q.n, window+window/8) + 8
}

// after returns the place of the first record of a period after since.
func after[T record](q *queue[T], since msg.Period) int {
	return sort.Search(q.n, func(i int) bool { return (*q.at(i)).when() > since })
}

// NewLog creates a log retaining the given number of gossip periods (nh).
// It panics if retention is not positive.
func NewLog(retention int) *Log {
	if retention <= 0 {
		panic("history: retention must be positive")
	}
	return &Log{retention: msg.Period(retention)}
}

// oldest returns the first period of the retained window, which is
// (newest−retention, newest].
func (l *Log) oldest() msg.Period {
	if l.newest < l.retention {
		return 0
	}
	return l.newest - l.retention + 1
}

// admit reports whether period p is inside the window, advancing the window
// first when p is newer than anything seen.
func (l *Log) admit(p msg.Period) bool {
	if p > l.newest {
		l.newest = p
		oldest := l.oldest()
		trim(&l.sent, oldest)
		for k := trim(&l.received, oldest); k > 0; k-- {
			l.senders.drop()
		}
		trim(&l.serves, oldest)
		trim(&l.askers, oldest)
	}
	return p >= l.oldest()
}

// RecordProposalsSent logs that the owner proposed chunks to each of partners
// during period p: one call per propose phase.
func (l *Log) RecordProposalsSent(p msg.Period, partners []msg.NodeID, chunks []msg.ChunkID) {
	if l.admit(p) && len(partners) > 0 {
		file(l, &l.sent, proposePhase{period: p, partners: partners, chunks: chunks})
	}
}

// RecordServeReceived logs that server delivered chunks to the owner during
// period p (a fanin entry).
func (l *Log) RecordServeReceived(p msg.Period, server msg.NodeID, chunks []msg.ChunkID) {
	if l.admit(p) {
		file(l, &l.serves, serve{Period: p, Server: server, Chunks: chunks})
	}
}

// RecordProposalReceived logs that from proposed chunks to the owner during
// period p, for later witness duty.
func (l *Log) RecordProposalReceived(p msg.Period, from msg.NodeID, chunks []msg.ChunkID) {
	if l.admit(p) && len(chunks) > 0 {
		k := file(l, &l.received, receivedProposal{period: p, chunks: chunks})
		if len(l.senders.buf) != len(l.received.buf) {
			l.senders.resize(len(l.received.buf))
		}
		l.senders.insert(from, k)
	}
}

// RecordConfirmAsker logs that asker sent a Confirm about suspect during
// period p.
func (l *Log) RecordConfirmAsker(p msg.Period, suspect, asker msg.NodeID) {
	if l.admit(p) {
		file(l, &l.askers, confirmAsker{period: p, suspect: suspect, asker: asker})
	}
}

// hasProposalFrom reports whether the owner received, during the retained
// periods in [from, to], proposals from sender that together cover every
// chunk in asked. This is the witness-side truth for direct cross-checking
// (§5.2): one pass over the window's sender ids, newest first — a witness is
// asked within a period or two of the proposal, so the usual yes stops a few
// ids in — marking what each proposal of that sender covers. O(window records
// + |asked| × chunk ids that sender proposed), without allocating unless
// asked is longer than 64, which only a hostile Confirm or AuditPoll is.
func (l *Log) hasProposalFrom(sender msg.NodeID, from, to msg.Period, asked []msg.ChunkID) bool {
	var word [1]uint64
	covered, left := word[:], len(asked) // bit j: asked[j] was proposed
	if left == 0 {
		return true
	} else if left > 64 {
		covered = make([]uint64, (left+63)/64)
	}
	runs, base := l.senders.runs(0), l.senders.n
	for k := 1; k >= 0; k-- {
		run := runs[k]
		base -= len(run) // the place of run[0]
		for i := len(run) - 1; i >= 0; i-- {
			if run[i] != sender {
				continue
			}
			r := l.received.at(base + i)
			if r.period < from || to < r.period {
				continue
			}
			for j, c := range asked {
				if covered[j>>6]>>(j&63)&1 == 0 && slices.Contains(r.chunks, c) {
					covered[j>>6] |= 1 << (j & 63)
					if left--; left == 0 {
						return true
					}
				}
			}
		}
	}
	return false
}

// HasRecentProposalFrom reports whether any combination of retained
// proposals from sender covers chunks. Witness duty asks over the whole
// window because sender and witness periods are not synchronized.
func (l *Log) HasRecentProposalFrom(sender msg.NodeID, chunks []msg.ChunkID) bool {
	return l.hasProposalFrom(sender, 0, l.newest, chunks)
}

// Proposals returns the owner's fanout records for periods (since, newest],
// oldest period first, in recording order within a period: a propose phase
// expands into one record per partner, all sharing its chunk list. Record
// order matters: an audited freerider's forgery draws consume randomness in
// it.
func (l *Log) Proposals(since msg.Period) []msg.ProposalRecord {
	var out []msg.ProposalRecord
	for _, run := range l.sent.runs(after(&l.sent, since)) {
		for _, ph := range run {
			for _, partner := range ph.partners {
				out = append(out, msg.ProposalRecord{Period: ph.period, Partner: partner, Chunks: ph.chunks})
			}
		}
	}
	return out
}

// Serves returns the owner's fanin records for periods (since, newest], in
// the order of Proposals.
func (l *Log) Serves(since msg.Period) []msg.ServeRecord {
	var out []msg.ServeRecord
	for _, run := range l.serves.runs(after(&l.serves, since)) {
		out = slices.Grow(out, len(run))
		for _, r := range run {
			out = append(out, msg.ServeRecord(r))
		}
	}
	return out
}

// AskersFor returns the multiset of nodes that asked the owner to confirm
// proposals of suspect during periods (since, newest], in ascending period
// order (arrival order within a period): the slice feeds the fanin entropy
// evidence.
func (l *Log) AskersFor(suspect msg.NodeID, since msg.Period) []msg.NodeID {
	var out []msg.NodeID
	for _, run := range l.askers.runs(after(&l.askers, since)) {
		for _, a := range run {
			if a.suspect == suspect {
				out = append(out, a.asker)
			}
		}
	}
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
	return &msg.AuditResp{Sender: owner, Proposals: l.Proposals(since), Serves: l.Serves(since)}
}

// Newest returns the most recent period recorded.
func (l *Log) Newest() msg.Period { return l.newest }
