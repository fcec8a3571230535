package sim

import "time"

// Deadlines is the open deadlines of one node that share one delay: a FIFO
// of records held by value, each lapsing delay after it was pushed. It is
// the mechanism only — what a lapsed deadline means is the lapse function of
// whoever made the queue.
//
// A deadline costs no closure and no timer of its own: every Push arms the
// same func value, made once, and whichever fire comes k-th lapses the k-th
// record pushed. That is the record that is due, because the queue has one
// delay and a Context scales delays monotonically — fire order is push order
// — and it stays so under a Context that scales After and not Now (Skewed),
// because no due time is ever computed here. Like everything a node owns it
// is used from that node's callbacks only.
type Deadlines[T any] struct {
	ctx   Context
	delay time.Duration
	lapse func(T)
	fire  func() // d.pop as a value
	// The open records, oldest first, are a ring: place i is
	// buf[(head+i) mod len(buf)]. The ring is made by the first Push, grows
	// by a quarter (at least deadlinesRoom places) when full, and never
	// shrinks: it ends within a quarter of the most records ever open at
	// once. A node has four of these for the whole run, so what a doubled
	// ring would never use counts.
	buf     []T
	head, n int
}

// deadlinesRoom is the size of the ring the first Push makes.
const deadlinesRoom = 4

// NewDeadlines returns an empty queue whose records lapse delay after their
// Push, on ctx's timers.
func NewDeadlines[T any](ctx Context, delay time.Duration, lapse func(T)) *Deadlines[T] {
	d := &Deadlines[T]{ctx: ctx, delay: delay, lapse: lapse}
	d.fire = d.pop
	return d
}

// Push opens a deadline: lapse(rec) runs delay from now, after the lapse of
// every record pushed before it.
func (d *Deadlines[T]) Push(rec T) {
	if d.n == len(d.buf) {
		buf := make([]T, d.n+max(d.n/4, deadlinesRoom))
		k := copy(buf, d.buf[d.head:])
		copy(buf[k:], d.buf[:d.head])
		d.buf, d.head = buf, 0
	}
	d.n++
	*d.At(d.n - 1) = rec
	d.ctx.After(d.delay, d.fire)
}

// pop lapses the oldest record. Its place is zeroed first, so that the ring
// pins nothing the record held, and lapse may Push. A fire that finds no
// record (the queue was released) does nothing.
func (d *Deadlines[T]) pop() {
	if d.n == 0 {
		return
	}
	oldest := d.At(0)
	rec := *oldest
	*oldest = *new(T)
	if d.head++; d.head == len(d.buf) {
		d.head = 0
	}
	d.n--
	d.lapse(rec)
}

// Pending returns the number of open records.
func (d *Deadlines[T]) Pending() int { return d.n }

// At returns the i-th oldest open record, 0 ≤ i < Pending, for its owner to
// read or update in place. The pointer is good until the next Push.
func (d *Deadlines[T]) At(i int) *T {
	if i += d.head; i >= len(d.buf) {
		i -= len(d.buf)
	}
	return &d.buf[i]
}

// Release drops every open record unlapsed, and the ring with them. It is
// for an owner that has stopped for good: the fires still armed find nothing,
// so a record pushed after a Release would lapse early, on one of them.
func (d *Deadlines[T]) Release() {
	d.buf, d.head, d.n = nil, 0, 0
}
