package history

import (
	"sort"

	"lifting/internal/msg"
)

// refLog is the map-per-period implementation Log replaced, kept as the
// reference model the differential test drives Log against. It is the old
// code verbatim except for the retention window, which is the arithmetic
// (newest−retention, newest] in both: the old size-triggered prune kept a
// sparse log's stale periods alive.
type refLog struct {
	retention msg.Period
	periods   map[msg.Period]*refPeriod
	newest    msg.Period
}

type refPeriod struct {
	proposalsSent     []msg.ProposalRecord
	servesReceived    []msg.ServeRecord
	proposalsReceived map[msg.NodeID][]msg.ChunkID
	confirmAskers     map[msg.NodeID][]msg.NodeID
}

func newRefLog(retention int) *refLog {
	return &refLog{retention: msg.Period(retention), periods: make(map[msg.Period]*refPeriod)}
}

func (l *refLog) retains(p msg.Period) bool {
	return p <= l.newest && l.newest-p < l.retention
}

// period returns nil for a period that already left the window.
func (l *refLog) period(p msg.Period) *refPeriod {
	if p > l.newest {
		l.newest = p
		for q := range l.periods {
			if !l.retains(q) {
				delete(l.periods, q)
			}
		}
	}
	if !l.retains(p) {
		return nil
	}
	pl, ok := l.periods[p]
	if !ok {
		pl = &refPeriod{
			proposalsReceived: make(map[msg.NodeID][]msg.ChunkID),
			confirmAskers:     make(map[msg.NodeID][]msg.NodeID),
		}
		l.periods[p] = pl
	}
	return pl
}

func (l *refLog) RecordProposalSent(p msg.Period, partner msg.NodeID, chunks []msg.ChunkID) {
	if pl := l.period(p); pl != nil {
		cp := append([]msg.ChunkID{}, chunks...)
		pl.proposalsSent = append(pl.proposalsSent, msg.ProposalRecord{Period: p, Partner: partner, Chunks: cp})
	}
}

func (l *refLog) RecordServeReceived(p msg.Period, server msg.NodeID, chunks []msg.ChunkID) {
	if pl := l.period(p); pl != nil {
		cp := append([]msg.ChunkID{}, chunks...)
		pl.servesReceived = append(pl.servesReceived, msg.ServeRecord{Period: p, Server: server, Chunks: cp})
	}
}

func (l *refLog) RecordProposalReceived(p msg.Period, from msg.NodeID, chunks []msg.ChunkID) {
	if pl := l.period(p); pl != nil {
		pl.proposalsReceived[from] = append(pl.proposalsReceived[from], chunks...)
	}
}

func (l *refLog) RecordConfirmAsker(p msg.Period, suspect, asker msg.NodeID) {
	if pl := l.period(p); pl != nil {
		pl.confirmAskers[suspect] = append(pl.confirmAskers[suspect], asker)
	}
}

func (l *refLog) HasRecentProposalFrom(sender msg.NodeID, chunks []msg.ChunkID) bool {
	got := make(map[msg.ChunkID]bool)
	for _, pl := range l.periods {
		for _, c := range pl.proposalsReceived[sender] {
			got[c] = true
		}
	}
	for _, c := range chunks {
		if !got[c] {
			return false
		}
	}
	return true
}

// LastProposalTo returns the period and chunks of the last proposal recorded
// to partner: the newest period's last record naming it.
func (l *refLog) LastProposalTo(partner msg.NodeID) (msg.Period, []msg.ChunkID, bool) {
	for p := l.newest; l.retains(p); p-- {
		pl := l.periods[p]
		if pl == nil {
			continue
		}
		sent := pl.proposalsSent
		for j := len(sent) - 1; j >= 0; j-- {
			if sent[j].Partner == partner {
				return sent[j].Period, sent[j].Chunks, true
			}
		}
		if p == 0 {
			break
		}
	}
	return 0, nil, false
}

func (l *refLog) periodsAfter(since msg.Period) []msg.Period {
	out := make([]msg.Period, 0, len(l.periods))
	for p := range l.periods {
		if p > since {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (l *refLog) Proposals(since msg.Period) []msg.ProposalRecord {
	var out []msg.ProposalRecord
	for _, p := range l.periodsAfter(since) {
		out = append(out, l.periods[p].proposalsSent...)
	}
	return out
}

func (l *refLog) Serves(since msg.Period) []msg.ServeRecord {
	var out []msg.ServeRecord
	for _, p := range l.periodsAfter(since) {
		out = append(out, l.periods[p].servesReceived...)
	}
	return out
}

func (l *refLog) AskersFor(suspect msg.NodeID) []msg.NodeID {
	var out []msg.NodeID
	for _, p := range l.periodsAfter(0) {
		out = append(out, l.periods[p].confirmAskers[suspect]...)
	}
	return out
}

func (l *refLog) Snapshot(owner msg.NodeID, horizon int) *msg.AuditResp {
	since := msg.Period(0)
	if h := msg.Period(horizon); l.newest > h {
		since = l.newest - h
	}
	return &msg.AuditResp{Sender: owner, Proposals: l.Proposals(since), Serves: l.Serves(since)}
}
