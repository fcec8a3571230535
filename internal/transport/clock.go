package transport

import (
	"net/netip"
	"sync"
	"time"

	"lifting/internal/msg"
)

// maxDelayedDatagrams bounds the delayed wire jobs the clock holds for one
// node: each outbound datagram — the frame one callback's sends to one peer
// share, however many messages it carries — and each inbound message waiting
// out the node's half of the latency (the receiver delays messages, not
// datagrams). Past it a job is dropped, every message in it counted like
// any other loss; callbacks are never dropped. The bound is per node, so a
// flooded node costs the others on the shared clock nothing. A node hears a
// few hundred messages a second, so at the modelled latencies (milliseconds
// to a second) a healthy node holds a small fraction of it.
const maxDelayedDatagrams = 4096

// job is one entry of the clock, held by value. It is exactly one of
//   - a callback: fn, of node — or of the harness, with node nil;
//   - a delayed send (copies > 0): the frame in *frame, shipped copies times
//     to addr from node — or, with msg.FlagFragment in flags, the message
//     encoding in *frame, cut into a fragment train when it fires;
//   - a delayed dispatch: m, from from, handed to node.
type job struct {
	due    time.Duration
	seq    uint64
	node   *nodeCtx
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
// so jobs with equal dues pop in push order. A sift moves the hole, not the
// job: one copy of a job per level.
type jobHeap struct {
	jobs []job
	seq  uint64
}

func (x *job) before(y *job) bool { return x.due < y.due || x.due == y.due && x.seq < y.seq }

// push adds j and reports whether it is now the earliest job.
func (h *jobHeap) push(j job) bool {
	j.seq = h.seq
	h.seq++
	h.jobs = append(h.jobs, job{})
	i := len(h.jobs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !j.before(&h.jobs[parent]) {
			break
		}
		h.jobs[i] = h.jobs[parent]
		i = parent
	}
	h.jobs[i] = j
	return i == 0
}

// pop removes and returns the earliest job. The vacated slot is zeroed, so
// the heap pins nothing a popped job held.
func (h *jobHeap) pop() job {
	top, last := h.jobs[0], len(h.jobs)-1
	if last > 0 {
		i := 0
		for c := 1; c < last; c = 2*i + 1 {
			if c+1 < last && h.jobs[c+1].before(&h.jobs[c]) {
				c++
			}
			if !h.jobs[c].before(&h.jobs[last]) {
				break
			}
			h.jobs[i] = h.jobs[c]
			i = c
		}
		h.jobs[i] = h.jobs[last]
	}
	h.jobs[last] = job{}
	h.jobs = h.jobs[:last]
	return top
}

// clock is the one source of delays of a runtime: a jobHeap served by one
// goroutine and one time.Timer, for every hosted node and for the harness.
// Callbacks and dispatches run under their node's lock, sends without it;
// harness callbacks run under no lock.
type clock struct {
	rt *Runtime

	mu      sync.Mutex // guards heap, stopped and every nodeCtx.delayed
	heap    jobHeap
	stopped bool

	wake  chan struct{} // a new earliest job, or stop; buffered 1
	timer *time.Timer
}

// push queues j to run d from now (d < 0 is 0); see at.
func (c *clock) push(d time.Duration, j job) { c.at(c.rt.Now()+max(d, 0), j) }

// at queues j to run at due. A stopped clock queues nothing; a datagram
// whose node is at maxDelayedDatagrams is dropped with OnDrop. Either way a
// refused job's frame goes back to the pool.
func (c *clock) at(due time.Duration, j job) {
	j.due = due
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		c.rt.release(&j)
		return
	}
	if j.datagram() {
		if j.node.delayed >= maxDelayedDatagrams {
			c.mu.Unlock()
			c.rt.drop(&j)
			return
		}
		j.node.delayed++
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

func (c *clock) run() {
	defer c.rt.loops.Done()
	for {
		c.mu.Lock()
		if c.stopped {
			for i := range c.heap.jobs {
				j := &c.heap.jobs[i]
				if j.datagram() {
					j.node.delayed--
				}
				c.rt.release(j)
			}
			c.heap = jobHeap{}
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
			j.node.delayed--
		}
		c.mu.Unlock()
		c.fire(&j)
	}
}

func (c *clock) fire(j *job) {
	n := j.node
	switch {
	case j.copies > 0:
		c.rt.write(j)
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
