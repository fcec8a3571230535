package transport

import (
	gonet "net"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"lifting/internal/msg"
	"lifting/internal/net"
)

// outboxSend is one send of FuzzOutbox's schedule, as the test sees it.
type outboxSend struct {
	m         msg.Message
	to        msg.NodeID
	flags     uint8
	held, dup bool
	callback  int // the callback it is sent in, the index of its run; -1 for none
}

// sentGroup is one datagram, as the runtime queued it or as net.Outbox
// groups it: where it goes, its flags, its copies, whether it is a
// fragment train, and the sends it carries, by index.
type sentGroup struct {
	to       netip.AddrPort
	flags    uint8
	copies   uint8
	fragment bool
	members  []int
}

// lane is a class of datagrams whose order on the clock is their order of
// shipping: the held ones; the others of one set of flags that go alone;
// and the callbacks' groups of one destination and flags.
type lane struct {
	held, alone bool
	to          netip.AddrPort
	flags       uint8
}

// laneOf returns g's lane, sends being the schedule g's members index.
func laneOf(g sentGroup, sends []outboxSend) lane {
	s := sends[g.members[0]]
	switch {
	case s.held:
		return lane{held: true}
	case g.copies > 1 || g.fragment || s.callback < 0:
		return lane{alone: true, flags: g.flags}
	}
	return lane{to: g.to, flags: g.flags}
}

// FuzzOutbox drives a fuzzer-written sequence of one node's sends through
// a runtime, once at latency 0 and once at 2 h, and holds what left against
// the groups net.Outbox — the datagram model, which FuzzGrouping holds
// against its own model — makes of the same sends. At latency 0 the
// datagrams leave inline, to sink sockets nobody reads; at 2 h every one
// waits on the clock heap, where the target reads it. A held message waits
// ReorderDelay (2 h) at either latency. The checks:
//   - every queued frame passes RawFrame and ParseBatch, with node 1 its
//     one sender, and a fragment job carries one message's encoding;
//   - what is queued is exactly net.Outbox's groups — all of them at 2 h,
//     the held ones at 0 — each with its address, flags and copies, a
//     message too big for a frame as a fragment train;
//   - they wait on the clock in the order net.Outbox ships them, lane by
//     lane (see lane);
//   - no buffer is held by a slot, a job or the pools twice over, and the
//     pools hold only buffers of their own size.
//
// The schedule is three bytes per send: kind (bits 0–1: blame, score
// request, serve, serve), destination (bits 2–3, of three), a drawn reorder
// (bit 4) and duplication (bit 5), reliable class (bit 6, which draws
// neither), and outside any callback (bit 7); then the serve's size, 4 ×
// the 15 bits of the next two bytes, past msg.MaxFramePayload at the top.
// The last byte's top bit ends the callback before it. The committed corpus
// under testdata/fuzz replays on every plain `go test`.
func FuzzOutbox(f *testing.F) {
	payload := make([]byte, 1<<17)
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 3*128 {
			t.Skip("long schedules only repeat short ones")
		}
		for _, latency := range []time.Duration{0, 2 * time.Hour} {
			checkOutbox(t, schedule, latency, payload)
		}
	})
}

func checkOutbox(t *testing.T, schedule []byte, latency time.Duration, payload []byte) {
	book := NewBook()
	rt := New(Options{Seed: 1, Book: book})
	defer rt.Close()
	rt.Attach(1, nil)
	n := rt.localNode(1)
	dests := make([]netip.AddrPort, 3)
	for i := range dests {
		sink, err := gonet.ListenUDP("udp", gonet.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		dests[i] = sink.LocalAddr().(*gonet.UDPAddr).AddrPort()
		book.SetAddr(msg.NodeID(10+i), dests[i])
	}
	prob := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	var sends []outboxSend
	send := func(op []byte, callback int) {
		s := outboxSend{to: msg.NodeID(10 + int(op[0]>>2&3)%3), held: op[0]&0x10 != 0, dup: op[0]&0x20 != 0, callback: callback}
		mode := net.Unreliable
		if op[0]&0x40 != 0 {
			mode, s.flags, s.held, s.dup = net.Reliable, msg.FlagReliable, false, false
		}
		seq := len(sends)
		switch op[0] & 3 {
		case 0:
			s.m = &msg.Blame{Sender: 1, Target: msg.NodeID(seq), Value: 1}
		case 1:
			s.m = &msg.ScoreReq{Sender: 1, Target: msg.NodeID(seq)}
		default:
			size := (int(op[1])<<7 | int(op[2]&0x7f)) * 4
			s.m = &msg.Serve{Sender: 1, Chunk: msg.ChunkID(seq), PayloadSize: size, Payload: payload[:size]}
		}
		sends = append(sends, s)
		rt.SetConditions(1, net.Conditions{LatencyBase: latency, ReorderProb: prob(s.held), ReorderDelay: 2 * time.Hour, DupProb: prob(s.dup)})
		rt.Send(1, s.to, s.m, mode)
	}
	ops := schedule[:len(schedule)/3*3]
	for i := 0; i < len(ops); {
		if ops[i]&0x80 != 0 {
			send(ops[i:i+3], -1)
			i += 3
			continue
		}
		j := i + 3
		for j < len(ops) && ops[j]&0x80 == 0 && ops[j+2]&0x80 == 0 {
			j += 3
		}
		run, callback := ops[i:j], i
		rt.clock.fire(&job{node: n, fn: func() {
			for k := 0; k < len(run); k += 3 {
				send(run[k:k+3], callback)
			}
		}})
		i = j
	}

	// What net.Outbox makes of the same sends: every group at 2 h, the
	// held ones at 0.
	var want []sentGroup
	var o net.Outbox[[]int]
	leave := func(g *net.Group[[]int]) {
		if latency > 0 || sends[g.Body[0]].held {
			want = append(want, sentGroup{to: dests[g.To-10], flags: g.Flags, copies: g.Copies, fragment: g.Oversize(), members: slices.Clone(g.Body)})
		}
	}
	for i, s := range sends {
		if i > 0 && s.callback != sends[i-1].callback {
			for _, g := range o.End() {
				leave(&g)
			}
		}
		copies := 1
		if s.dup {
			copies = 2
		}
		g, fresh := o.Add(1, s.to, s.flags, msg.EncodedSize(s.m), 0, copies, s.held, s.callback >= 0)
		if fresh {
			g.Body = g.Body[:0]
		}
		g.Body = append(g.Body, i)
		if g.Alone {
			leave(g)
		}
	}
	for _, g := range o.End() {
		leave(&g)
	}

	// What waits on the clock, in the order it would leave.
	rt.clock.mu.Lock()
	jobs := append([]job(nil), rt.clock.heap.jobs...)
	rt.clock.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].before(&jobs[b]) })
	seqOf := func(m msg.Message) int {
		switch v := m.(type) {
		case *msg.Blame:
			return int(v.Target)
		case *msg.ScoreReq:
			return int(v.Target)
		case *msg.Serve:
			return int(v.Chunk)
		}
		t.Fatalf("a queued %T was never sent", m)
		return 0
	}
	var got []sentGroup
	for _, j := range jobs {
		if j.node != n || j.copies == 0 || j.frame == nil {
			t.Fatalf("a job that is no datagram of node 1: %+v", j)
		}
		g := sentGroup{to: j.addr, flags: j.flags &^ msg.FlagFragment, copies: j.copies, fragment: j.flags&msg.FlagFragment != 0}
		if g.fragment {
			m, err := msg.Decode(*j.frame)
			if err != nil {
				t.Fatalf("a fragment job's encoding: %v", err)
			}
			g.members = append(g.members, seqOf(m))
		} else {
			payload, flags, err := msg.RawFrame(*j.frame)
			if err != nil || flags != j.flags {
				t.Fatalf("a queued frame: %v, flags %#x on a job of %#x", err, flags, j.flags)
			}
			batch, err := msg.ParseBatch(payload)
			if err != nil || batch.Sender != 1 {
				t.Fatalf("a queued frame's batch: %v, sender %d", err, batch.Sender)
			}
			for e := batch.Next(); e != nil; e = batch.Next() {
				m, err := msg.Decode(e)
				if err != nil {
					t.Fatal(err)
				}
				g.members = append(g.members, seqOf(m))
			}
		}
		got = append(got, g)
	}
	// Every datagram is due one delay after its latest member's send, the
	// delay set by its flags and whether it is held, so within a lane the
	// clock keeps the order net.Outbox ships in: a group that goes alone
	// ships at its send, and a destination and flags' groups of a callback
	// follow each other as each fills. Across lanes the dues interleave.
	lanes := func(gs []sentGroup) map[lane][]sentGroup {
		by := make(map[lane][]sentGroup)
		for _, g := range gs {
			k := laneOf(g, sends)
			by[k] = append(by[k], g)
		}
		return by
	}
	if got, want := lanes(got), lanes(want); !reflect.DeepEqual(got, want) {
		t.Fatalf("latency %v: queued, lane by lane in clock order\n%+v\nnet.Outbox groups, in the order it ships them\n%+v", latency, got, want)
	}

	// Every buffer has one holder: a slot, a job or a pool.
	holder := make(map[*byte]string)
	hold := func(frame *[]byte, who string) {
		at := unsafe.SliceData((*frame)[:cap(*frame)])
		if prev, ok := holder[at]; ok {
			t.Fatalf("one buffer is held by %s and by %s", prev, who)
		}
		holder[at] = who
	}
	n.out.mu.Lock()
	slots := n.out.groups.End()
	if n.out.open || len(slots) != 0 {
		t.Fatalf("the outbox is left open %v with %d groups", n.out.open, len(slots))
	}
	for _, g := range slots[:cap(slots)] {
		if g.Body.frame != nil {
			hold(g.Body.frame, "a slot")
		}
	}
	n.out.mu.Unlock()
	for _, j := range jobs {
		if j.flags&msg.FlagFragment == 0 {
			hold(j.frame, "a job")
		}
	}
	for i := 0; i < 64; i++ {
		b := rt.bufs.Get().(*[]byte)
		if cap(*b) != smallFrame {
			t.Fatalf("the small pool holds a %d-byte buffer", cap(*b))
		}
		hold(b, "the small pool")
	}
	for i := 0; i < 8; i++ {
		b := rt.full.Get().(*[]byte)
		if cap(*b) != fullFrame {
			t.Fatalf("the full pool holds a %d-byte buffer", cap(*b))
		}
		hold(b, "the full pool")
	}
}
