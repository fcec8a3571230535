package transport

import (
	"net/netip"
	"sync"
	"time"

	"lifting/internal/msg"
)

// maxDelayedDatagrams bounds the delayed wire jobs one node's clock holds:
// each outbound datagram — the frame one callback's sends to one peer share,
// however many messages it carries — and each inbound message waiting out
// the node's half of the latency (the receiver delays messages, not
// datagrams). Past it a job is dropped, every message in it counted like
// any other loss; callbacks are never dropped. A node hears a few hundred
// messages a second, so at the modelled latencies (milliseconds to a
// second) a healthy clock holds a small fraction of it.
const maxDelayedDatagrams = 4096

// job is one entry of a clock, held by value. It is exactly one of
//   - a callback: fn;
//   - a delayed send (copies > 0): the frame in *frame, shipped copies times
//     to addr from the clock's node — or, with msg.FlagFragment in flags, the
//     message encoding in *frame, cut into a fragment train when it fires;
//   - a delayed dispatch: m, from from, handed to the clock's node.
type job struct {
	due    time.Duration
	seq    uint64
	fn     func()
	m      msg.Message
	from   msg.NodeID
	copies uint8
	flags  uint8
	frame  *[]byte
	addr   netip.AddrPort
}

// datagram reports whether the job counts against maxDelayedDatagrams.
func (j *job) datagram() bool { return j.fn == nil }

// jobHeap is a binary min-heap of jobs on (due, seq). push numbers the jobs,
// so jobs with equal dues pop in push order.
type jobHeap struct {
	jobs []job
	seq  uint64
}

func (h *jobHeap) less(a, b int) bool {
	x, y := &h.jobs[a], &h.jobs[b]
	return x.due < y.due || x.due == y.due && x.seq < y.seq
}

// push adds j and reports whether it is now the earliest job.
func (h *jobHeap) push(j job) bool {
	j.seq = h.seq
	h.seq++
	h.jobs = append(h.jobs, j)
	i := len(h.jobs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.jobs[i], h.jobs[parent] = h.jobs[parent], h.jobs[i]
		i = parent
	}
	return i == 0
}

// pop removes and returns the earliest job. The vacated slot is zeroed, so
// the heap pins nothing a popped job held.
func (h *jobHeap) pop() job {
	j := h.jobs[0]
	last := len(h.jobs) - 1
	h.jobs[0] = h.jobs[last]
	h.jobs[last] = job{}
	h.jobs = h.jobs[:last]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < last && h.less(l, least) {
			least = l
		}
		if r := l + 1; r < last && h.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h.jobs[i], h.jobs[least] = h.jobs[least], h.jobs[i]
		i = least
	}
	return j
}

// clock is the one source of delays of a hosted node (or, with node nil, of
// the runtime's harness callbacks): a jobHeap served by one goroutine and one
// time.Timer. Callbacks and dispatches run under the node's lock, sends
// without it; harness callbacks run under no lock.
type clock struct {
	rt   *Runtime
	node *nodeCtx

	mu        sync.Mutex
	heap      jobHeap
	datagrams int // delayed dispatches and sends pending
	stopped   bool

	wake  chan struct{} // a new earliest job, or stop; buffered 1
	timer *time.Timer
}

// startClock makes a clock and starts its goroutine, counted in rt.loops.
func startClock(rt *Runtime, node *nodeCtx) *clock {
	c := &clock{rt: rt, node: node, wake: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
	c.timer.Stop()
	rt.loops.Add(1)
	go c.run()
	return c
}

// push queues j to run d from now (d < 0 is 0); see at.
func (c *clock) push(d time.Duration, j job) { c.at(c.rt.Now()+max(d, 0), j) }

// at queues j to run at due. A stopped clock queues nothing; a full one
// drops a datagram with OnDrop. Either way a refused job's frame goes back
// to the pool.
func (c *clock) at(due time.Duration, j job) {
	j.due = due
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		c.rt.release(&j)
		return
	}
	if j.datagram() {
		if c.datagrams >= maxDelayedDatagrams {
			c.mu.Unlock()
			c.rt.drop(&j)
			return
		}
		c.datagrams++
	}
	head := c.heap.push(j)
	c.mu.Unlock()
	if head {
		c.signal()
	}
}

func (c *clock) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// stop makes the goroutine drop every pending job and exit once the job it
// may be running returns.
func (c *clock) stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	c.signal()
}

// pending returns the number of queued jobs and how many of them are
// datagrams.
//
//lint:allow no-orphan TestDelayedDatagramsAreBounded and TestCloseDropsPendingWork observe the queue through it
func (c *clock) pending() (jobs, datagrams int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.heap.jobs), c.datagrams
}

func (c *clock) run() {
	defer c.rt.loops.Done()
	for {
		c.mu.Lock()
		if c.stopped {
			for i := range c.heap.jobs {
				c.rt.release(&c.heap.jobs[i])
			}
			c.heap.jobs, c.datagrams = nil, 0
			c.mu.Unlock()
			return
		}
		if len(c.heap.jobs) == 0 {
			c.mu.Unlock()
			<-c.wake
			continue
		}
		if wait := c.heap.jobs[0].due - c.rt.Now(); wait > 0 {
			c.mu.Unlock()
			// go.mod's go 1.22 keeps the buffered timer channel: a fire that
			// raced Stop may leave a stale tick behind, which only costs one
			// extra turn of this loop.
			c.timer.Reset(wait)
			select {
			case <-c.timer.C:
			case <-c.wake:
				if !c.timer.Stop() {
					select {
					case <-c.timer.C:
					default:
					}
				}
			}
			continue
		}
		j := c.heap.pop()
		if j.datagram() {
			c.datagrams--
		}
		c.mu.Unlock()
		c.fire(&j)
	}
}

func (c *clock) fire(j *job) {
	n := c.node
	switch {
	case j.copies > 0:
		c.rt.write(n, j)
		c.rt.release(j)
	case n == nil:
		j.fn()
	default:
		n.mu.Lock()
		defer n.mu.Unlock()
		n.out.begin()
		if j.fn != nil {
			j.fn()
		} else {
			c.rt.dispatch(n, j.from, j.m)
		}
		n.out.flush(n)
	}
}
