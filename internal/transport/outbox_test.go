package transport

import (
	gonet "net"
	"net/netip"
	"sort"
	"testing"
	"time"
	"unsafe"

	"lifting/internal/msg"
	"lifting/internal/net"
)

// outboxSend is one send of FuzzOutbox's schedule, as the model sees it.
type outboxSend struct {
	m                   msg.Message
	to                  netip.AddrPort
	flags               uint8
	held, dup, oversize bool
}

// FuzzOutbox drives a fuzzer-written sequence of one node's sends through a
// runtime, once at latency 0 and once at 2 h, and checks what left against
// a model of the outbox. At latency 0 the datagrams leave inline, to sink
// sockets nobody reads; at 2 h every one waits on the clock heap, where the
// target reads it. A held message waits ReorderDelay (2 h) at either
// latency. The checks:
//   - every queued frame passes RawFrame and ParseBatch, with node 1 its
//     one sender, and carries what was sent to its address with its flags;
//   - the messages that join groups keep their send order per destination
//     and flags;
//   - a held or duplicated message is alone in its datagram, with copies 2
//     for a duplicate, and every message is queued exactly when the model
//     says it waits (all of them at 2 h, the held ones at 0);
//   - a message too big for a frame is a fragment job carrying its encoding;
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
	send := func(op []byte) {
		dest := int(op[0]>>2&3) % 3
		s := outboxSend{to: dests[dest], held: op[0]&0x10 != 0, dup: op[0]&0x20 != 0}
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
		enc, err := msg.Encode(s.m)
		if err != nil {
			t.Fatal(err)
		}
		s.oversize = msg.CountSize+msg.EntryHeaderSize+len(enc) > msg.MaxFramePayload
		sends = append(sends, s)
		rt.SetConditions(1, net.Conditions{LatencyBase: latency, ReorderProb: prob(s.held), ReorderDelay: 2 * time.Hour, DupProb: prob(s.dup)})
		rt.Send(1, msg.NodeID(10+dest), s.m, mode)
	}
	ops := schedule[:len(schedule)/3*3]
	for i := 0; i < len(ops); {
		if ops[i]&0x80 != 0 {
			send(ops[i : i+3])
			i += 3
			continue
		}
		j := i + 3
		for j < len(ops) && ops[j]&0x80 == 0 && ops[j+2]&0x80 == 0 {
			j += 3
		}
		run := ops[i:j]
		rt.clock.fire(&job{node: n, fn: func() {
			for k := 0; k < len(run); k += 3 {
				send(run[k : k+3])
			}
		}})
		i = j
	}

	// What waits on the clock, in the order it would leave.
	rt.clock.mu.Lock()
	jobs := append([]job(nil), rt.clock.heap.jobs...)
	rt.clock.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].before(&jobs[b]) })
	type stream struct {
		to    netip.AddrPort
		flags uint8
	}
	last := make(map[stream]int)
	queued := make([]int, len(sends))
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
	for _, j := range jobs {
		if j.node != n || j.copies == 0 || j.frame == nil {
			t.Fatalf("a job that is no datagram of node 1: %+v", j)
		}
		var ms []msg.Message
		if j.flags&msg.FlagFragment != 0 {
			m, err := msg.Decode(*j.frame)
			if err != nil {
				t.Fatalf("a fragment job's encoding: %v", err)
			}
			if !sends[seqOf(m)].oversize {
				t.Fatalf("send #%d fits a frame, yet left as a fragment train", seqOf(m))
			}
			ms = append(ms, m)
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
				if sends[seqOf(m)].oversize {
					t.Fatalf("send #%d outgrows a frame, yet left in one", seqOf(m))
				}
				ms = append(ms, m)
			}
		}
		for _, m := range ms {
			seq := seqOf(m)
			s := sends[seq]
			queued[seq]++
			if s.to != j.addr || s.flags != j.flags&^msg.FlagFragment {
				t.Fatalf("send #%d to %v, flags %#x, left for %v with flags %#x", seq, s.to, s.flags, j.addr, j.flags)
			}
			if want := 1 + int(prob(s.dup)); int(j.copies) != want {
				t.Fatalf("send #%d left as %d copies, want %d", seq, j.copies, want)
			}
			if (s.held || s.dup) && len(ms) != 1 {
				t.Fatalf("send #%d drew a reorder or duplication, yet shares a datagram with %d others", seq, len(ms)-1)
			}
			if s.held || s.dup || s.oversize {
				continue
			}
			k := stream{s.to, s.flags}
			if prev, ok := last[k]; ok && prev > seq {
				t.Fatalf("send #%d leaves for %v after send #%d, sent after it", seq, s.to, prev)
			}
			last[k] = seq
		}
	}
	for seq, s := range sends {
		if want := latency > 0 || s.held; queued[seq] != int(prob(want)) {
			t.Fatalf("send #%d (held %v, latency %v) is queued %d times", seq, s.held, latency, queued[seq])
		}
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
	if n.out.open || len(n.out.groups) != 0 {
		t.Fatalf("the outbox is left open %v with %d groups", n.out.open, len(n.out.groups))
	}
	for _, g := range n.out.groups[:cap(n.out.groups)] {
		if g.frame != nil {
			hold(g.frame, "a slot")
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
