package sim

import (
	"slices"
	"time"
)

// callback in event.to marks a callback event: payload holds the func().
const callback int32 = -1

// follows in event.to marks a delivery that the next event of its queue
// continues, as part of one node event: a group's member other than its
// last. Node ids stay below it.
const follows int32 = 1 << 30

// never is the time of the next event of an empty queue.
const never = time.Duration(1<<63 - 1)

// event is one scheduled occurrence, kept by value wherever it waits: in a
// calendar page, a heap or an outbox. to ≥ 0 marks a delivery of payload to
// node to&^follows through the engine's Sink, sent by node dom; to ==
// callback marks a func() held in payload. seq is dom's sequence number
// shifted up by tagBits, which orders dom's events, and a delivery keeps
// its tag (Engine.Deliver) in the low tagBits: no two events of a domain
// share a sequence number, so the tag never decides the order.
type event struct {
	at      time.Duration
	seq     uint64
	payload any
	dom     int32 // ordering domain: the scheduling node's id, or globalDomain
	to      int32
}

// tagBits is how much of an event's seq a delivery's tag takes: a domain
// numbers its first 2^32 events, and a tag is 32 bits.
const tagBits = 32

// less is the canonical event order: time, then domain, then per-domain
// sequence.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	return a.seq < b.seq
}

// minheap is a binary min-heap of events by value, for the few events the
// calendar cannot place: those beyond its span and those below its horizon.
// container/heap costs an interface call per comparison and an allocation per
// Push; a heap of pointers costs two cold loads per comparison.
type minheap []event

func (h *minheap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(&ev, &s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*h = s
}

func (h *minheap) pop() event {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = event{} // the backing array keeps no payload alive
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(&s[r], &s[c]) {
			c = r
		}
		if !less(&s[c], &last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

const (
	// ringLen is the number of calendar buckets; a power of two. With the
	// 5 ms lookahead of a default run the ring spans 1.28 s, past the
	// protocol's longest routine timer (1 s).
	ringLen = 256
	// pageLen makes a page one 4 KB allocation: 102 events of 40 bytes plus
	// the 16-byte header.
	pageLen = 102
)

// page is a fixed-size run of a bucket's events.
type page struct {
	next *page
	n    int
	ev   [pageLen]event
}

// bucket is the chain of pages holding one slot's events, in push order.
type bucket struct {
	head, tail *page
}

// queue is a calendar queue: a priority queue over the canonical event order
// for a schedule in which almost nothing is due sooner than one lookahead
// window. Time is cut into slots one window wide; slot k's events wait,
// unordered, in bucket k mod ringLen, so a push is an append. Only what lies
// before the horizon is ordered: when nothing does, the next non-empty bucket
// is copied out and sorted into cur, the horizon moves past its slot, and
// pops walk cur front to back. A push below the horizon goes to the late
// heap, so the earlier of cur's head and late's is always the queue's
// minimum. Events at or beyond the ring's span (horizon + ringLen slots) wait
// in the far heap and move into the ring as the horizon advances.
//
// Pages recycle through a free list, so the calendar's memory follows the
// largest number of events ever pending at once, not the largest bucket each
// ring position has seen.
type queue struct {
	cur     []event       // the open slice in canonical order; pops cut it from the front
	late    minheap       // pushed below the horizon since the slice was opened
	buf     []event       // backs cur and, behind it, the scratch half of a merge
	runs    []int         // scratch: the bounds of a loaded bucket's ascending runs
	horizon time.Duration // a slot boundary; the ring holds the ringLen slots from here
	limit   time.Duration // horizon + ringLen*window: where far begins
	window  time.Duration
	inRing  int // events hung on the ring
	far     minheap
	free    *page
	ring    [ringLen]bucket
}

// init makes the zero queue usable with slots of the given width.
func (q *queue) init(window time.Duration) {
	q.window = window
	q.seek(0)
}

func (q *queue) len() int { return len(q.cur) + len(q.late) + q.inRing + len(q.far) }

// seek moves the horizon to the start of the slot that contains t.
func (q *queue) seek(t time.Duration) {
	q.horizon = t - t%q.window
	q.limit = q.horizon + ringLen*q.window
}

// follow re-anchors an empty calendar at the clock. Without it the horizon
// stays where the last event left it, and after an idle gap longer than the
// ring's span every push would take the detour through the far heap.
func (q *queue) follow(now time.Duration) {
	if q.len() == 0 {
		q.seek(now)
	}
}

func (q *queue) push(ev event) {
	switch {
	case ev.at < q.horizon:
		q.late.push(ev)
	case ev.at < q.limit:
		q.hang(ev)
	default:
		q.far.push(ev)
	}
}

// hang appends ev, which lies within the ring's span, to its slot's bucket.
func (q *queue) hang(ev event) {
	q.appendTo(&q.ring[int64(ev.at/q.window)&(ringLen-1)], ev)
	q.inRing++
}

// appendTo appends ev to the chain b — a bucket of the ring, or an outbox —
// taking a page from the free list when b's last one is full.
func (q *queue) appendTo(b *bucket, ev event) {
	p := b.tail
	if p == nil || p.n == pageLen {
		p = q.free
		if p == nil {
			p = new(page)
		} else {
			q.free, p.next = p.next, nil
		}
		if b.tail == nil {
			b.head = p
		} else {
			b.tail.next = p
		}
		b.tail = p
	}
	p.ev[p.n] = ev
	p.n++
}

// drain pushes every event of b, an outbox that queue src filled from its
// free list, and empties it. Each page goes back to src's free list, for
// the outbox to take again: a page that joined this queue's list instead
// would move a page from one shard to the other at every merge whose
// traffic runs one way, and the sender would allocate one where the
// receiver's list grows (a Run that ends inside a window did, every call).
func (q *queue) drain(b *bucket, src *queue) {
	for p := b.head; p != nil; {
		for i := range p.ev[:p.n] {
			q.push(p.ev[i])
		}
		clear(p.ev[:p.n]) // a free page keeps no payload alive
		p.n = 0
		next := p.next
		p.next, src.free = src.free, p
		p = next
	}
	*b = bucket{}
}

// below reports whether any queued event lies below the horizon, opening the
// next slice if none does and one starts before bound.
func (q *queue) below(bound time.Duration) bool {
	return len(q.cur) > 0 || len(q.late) > 0 || q.horizon < bound && q.load()
}

// lateFirst reports whether the earliest event below the horizon — there is
// one — is late's head rather than cur's.
func (q *queue) lateFirst() bool {
	return len(q.cur) == 0 || len(q.late) > 0 && less(&q.late[0], &q.cur[0])
}

// nextAt returns the time of the earliest queued event, or never.
func (q *queue) nextAt() time.Duration {
	q.below(never)
	return q.earliest()
}

// earliest returns a lower bound on the time of the earliest queued event,
// or never: the earlier of cur's and late's heads when either holds one —
// exact — else the start of the first non-empty slot, else far's head.
// Unlike nextAt it never opens a slice, so a scan between windows leaves the
// loading and sorting to the goroutine that runs the queue's next window.
func (q *queue) earliest() time.Duration {
	switch {
	case len(q.cur) > 0 || len(q.late) > 0:
		if q.lateFirst() {
			return q.late[0].at
		}
		return q.cur[0].at
	case q.inRing > 0:
		return time.Duration(q.firstSlot()) * q.window
	case len(q.far) > 0:
		return q.far[0].at
	}
	return never
}

// firstSlot returns the first slot at or past the horizon whose bucket holds
// events; the ring must hold some.
func (q *queue) firstSlot() int64 {
	slot := int64(q.horizon / q.window)
	for q.ring[slot&(ringLen-1)].head == nil {
		slot++
	}
	return slot
}

// popBefore removes and returns the earliest event if it is due before
// bound. It does not open a slice that starts at or past bound, so what a
// barrier merges for the next window is still an append.
func (q *queue) popBefore(bound time.Duration) (event, bool) {
	if !q.below(bound) {
		return event{}, false
	}
	if q.lateFirst() {
		if q.late[0].at >= bound {
			return event{}, false
		}
		return q.late.pop(), true
	}
	ev := q.cur[0]
	if ev.at >= bound {
		return event{}, false
	}
	q.cur[0] = event{} // the backing array keeps no payload alive
	q.cur = q.cur[1:]
	return ev, true
}

// load opens the next non-empty slot: its bucket becomes cur and the horizon
// moves past it. Nothing may be left below the horizon. It reports false if
// the queue is empty.
func (q *queue) load() bool {
	if q.inRing == 0 {
		if len(q.far) == 0 {
			return false
		}
		// Nothing within the span: hop the ring to the earliest far event.
		q.seek(q.far[0].at)
		q.migrate()
	}
	slot := q.firstSlot()
	b := &q.ring[slot&(ringLen-1)]
	p := b.head
	*b = bucket{}
	q.seek(time.Duration(slot+1) * q.window)
	// The bucket is detached before far events migrate: the slot that just
	// entered the span shares its ring position.
	q.migrate()
	s := q.buf[:0]
	for p != nil {
		s = append(s, p.ev[:p.n]...)
		q.inRing -= p.n
		clear(p.ev[:p.n]) // a free page keeps no payload alive
		p.n = 0
		next := p.next
		p.next, q.free = q.free, p
		p = next
	}
	q.cur = q.sorted(s)
	return true
}

// sorted returns the events of s, which starts buf's backing array, in
// canonical order. A bucket is ascending runs laid end to end — a shard's own
// sends of one window, each other shard's, each timer delay's, and a period
// flush's sends one short run per sender: up to 31 640 runs in one
// 207 464-event slice of a 4000-node run, and 425 708 of the 10 006 877
// events its slices hold in slices of more than 256 — so the runs are
// merged, pairwise, to and fro between s and the room behind it:
// O(n log runs) comparisons, n when the bucket is already in order and no
// worse than any sort when it is in none.
func (q *queue) sorted(s []event) []event {
	n := len(s)
	runs := append(q.runs[:0], 0)
	for i := 1; i < n; i++ {
		if less(&s[i], &s[i-1]) {
			runs = append(runs, i)
		}
	}
	runs = append(runs, n) // run k is s[runs[k]:runs[k+1]]
	q.runs = runs
	if len(runs) > 2 {
		s = slices.Grow(s, n)
	}
	q.buf = s[:cap(s)]
	if len(runs) == 2 {
		return s
	}
	src, dst := s, q.buf[n:2*n]
	for len(runs) > 2 {
		merged := runs[:1]
		for k := 0; k+1 < len(runs); k += 2 {
			lo, mid, hi := runs[k], runs[k+1], runs[min(k+2, len(runs)-1)]
			merge(dst[lo:hi], src[lo:mid], src[mid:hi])
			merged = append(merged, hi)
		}
		runs = merged
		src, dst = dst, src
	}
	clear(dst) // the half left over keeps no payload alive
	return src
}

// merge fills dst with the ascending runs a and b, in order.
func merge(dst, a, b []event) {
	for len(a) > 0 && len(b) > 0 {
		if less(&b[0], &a[0]) {
			dst[0], b = b[0], b[1:]
		} else {
			dst[0], a = a[0], a[1:]
		}
		dst = dst[1:]
	}
	copy(dst[copy(dst, a):], b)
}

// migrate moves the far events the span now covers into the ring.
func (q *queue) migrate() {
	for len(q.far) > 0 && q.far[0].at < q.limit {
		q.hang(q.far.pop())
	}
}
