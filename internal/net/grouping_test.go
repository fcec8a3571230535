package net_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// add is one call of Outbox.Add, as the table test makes it.
type add struct {
	sender, to msg.NodeID
	flags      uint8
	enc        int
	due        time.Duration
	copies     int
	held       bool
	outside    bool // sent outside any node callback
}

// shipped is one group as it leaves an outbox: when it goes alone, at once,
// else when its callback ends.
type shipped struct {
	To       msg.NodeID
	Flags    uint8
	Copies   uint8
	Due      time.Duration
	Oversize bool
	Members  []int // the adds it carries, by index
}

// ship runs adds through an Outbox as callbacks, ending one wherever end
// lists an add's index (the add after the callback that ends), and returns
// what left, in the order it left.
func ship(adds []add, end ...int) []shipped {
	var o net.Outbox[[]int]
	var out []shipped
	leave := func(g *net.Group[[]int]) {
		out = append(out, shipped{To: g.To, Flags: g.Flags, Copies: g.Copies, Due: g.Due, Oversize: g.Oversize(), Members: slices.Clone(g.Body)})
	}
	for i, a := range adds {
		if slices.Contains(end, i) {
			for _, g := range o.End() {
				leave(&g)
			}
		}
		g, fresh := o.Add(a.sender, a.to, a.flags, a.enc, a.due, max(a.copies, 1), a.held, !a.outside)
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
	return out
}

// TestGroupingRule states the datagram model clause by clause: one group
// per sender, destination and flags for each callback, due at its latest
// member's due; alone, a message held by a reorder, a duplicate (as two
// copies), a send outside any callback and a message too big for any frame;
// and a second group once a frame is full.
func TestGroupingRule(t *testing.T) {
	const rel = msg.FlagReliable
	// Forty destinations, each sent to twice: each group gathers its two
	// messages across the thirty-nine others.
	var forty []add
	var fortyGroups []shipped
	for k := range 80 {
		forty = append(forty, add{sender: 1, to: msg.NodeID(100 + k%40), enc: 9})
		if k < 40 {
			fortyGroups = append(fortyGroups, shipped{To: msg.NodeID(100 + k), Copies: 1, Members: []int{k, k + 40}})
		}
	}
	// An entry of big and one of rest fill a frame exactly.
	big := msg.MaxFramePayload / 2
	rest := msg.MaxFramePayload - msg.CountSize - 2*msg.EntryHeaderSize - big
	for _, tc := range []struct {
		name string
		adds []add
		end  []int
		want []shipped
	}{{
		name: "one group per destination",
		adds: []add{{sender: 1, to: 10, enc: 9}, {sender: 1, to: 11, enc: 9}, {sender: 1, to: 10, enc: 9}},
		want: []shipped{{To: 10, Copies: 1, Members: []int{0, 2}}, {To: 11, Copies: 1, Members: []int{1}}},
	}, {
		name: "one group per sender",
		adds: []add{{sender: 1, to: 10, enc: 9}, {sender: 2, to: 10, enc: 9}, {sender: 1, to: 10, enc: 9}},
		want: []shipped{{To: 10, Copies: 1, Members: []int{0, 2}}, {To: 10, Copies: 1, Members: []int{1}}},
	}, {
		name: "one group per flags",
		adds: []add{{sender: 1, to: 10, enc: 9}, {sender: 1, to: 10, flags: rel, enc: 9}, {sender: 1, to: 10, flags: rel, enc: 9}},
		want: []shipped{{To: 10, Copies: 1, Members: []int{0}}, {To: 10, Flags: rel, Copies: 1, Members: []int{1, 2}}},
	}, {
		name: "one group per callback",
		adds: []add{{sender: 1, to: 10, enc: 9}, {sender: 1, to: 10, enc: 9}},
		end:  []int{1},
		want: []shipped{{To: 10, Copies: 1, Members: []int{0}}, {To: 10, Copies: 1, Members: []int{1}}},
	}, {
		name: "due is the latest member's",
		adds: []add{{sender: 1, to: 10, enc: 9, due: 5}, {sender: 1, to: 10, enc: 9, due: 9}, {sender: 1, to: 10, enc: 9, due: 7}},
		want: []shipped{{To: 10, Copies: 1, Due: 9, Members: []int{0, 1, 2}}},
	}, {
		name: "a reorder-held message goes alone, at once",
		adds: []add{{sender: 1, to: 10, enc: 9, due: 5}, {sender: 1, to: 10, enc: 9, due: 30, held: true}, {sender: 1, to: 10, enc: 9, due: 5}},
		want: []shipped{{To: 10, Copies: 1, Due: 30, Members: []int{1}}, {To: 10, Copies: 1, Due: 5, Members: []int{0, 2}}},
	}, {
		name: "a duplicate goes alone, as two copies",
		adds: []add{{sender: 1, to: 10, enc: 9}, {sender: 1, to: 10, enc: 9, copies: 2}, {sender: 1, to: 10, enc: 9}},
		want: []shipped{{To: 10, Copies: 2, Members: []int{1}}, {To: 10, Copies: 1, Members: []int{0, 2}}},
	}, {
		name: "a send outside any callback goes alone",
		adds: []add{{sender: 1, to: 10, enc: 9, outside: true}, {sender: 1, to: 10, enc: 9, outside: true}},
		want: []shipped{{To: 10, Copies: 1, Members: []int{0}}, {To: 10, Copies: 1, Members: []int{1}}},
	}, {
		name: "a message too big for any frame goes alone",
		adds: []add{{sender: 1, to: 10, enc: 9}, {sender: 1, to: 10, enc: msg.MaxFramePayload}, {sender: 1, to: 10, enc: 9}},
		want: []shipped{{To: 10, Copies: 1, Oversize: true, Members: []int{1}}, {To: 10, Copies: 1, Members: []int{0, 2}}},
	}, {
		name: "forty destinations",
		adds: forty,
		want: fortyGroups,
	}, {
		name: "two entries that fill a frame share it",
		adds: []add{{sender: 1, to: 10, enc: big}, {sender: 1, to: 10, enc: rest}},
		want: []shipped{{To: 10, Copies: 1, Members: []int{0, 1}}},
	}, {
		name: "a full frame opens a second group, which later sends join",
		adds: []add{{sender: 1, to: 10, enc: big}, {sender: 1, to: 10, enc: rest + 1}, {sender: 1, to: 11, enc: 9}, {sender: 1, to: 10, enc: 9}},
		want: []shipped{{To: 10, Copies: 1, Members: []int{0}}, {To: 10, Copies: 1, Members: []int{1, 3}}, {To: 11, Copies: 1, Members: []int{2}}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			if got := ship(tc.adds, tc.end...); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("shipped %+v\nwant    %+v", got, tc.want)
			}
		})
	}
}

// send is one send of FuzzGrouping's schedule.
type send struct {
	m              msg.Message
	to             msg.NodeID
	reliable       bool
	held, dup      bool
	outside        bool
	callback, step int // the callback it is sent in (-1: none) and its step of the schedule
	enc            int
}

// group is one group of the model: the sends it carries, by index.
type group struct {
	to      msg.NodeID
	flags   uint8
	copies  int
	held    bool
	step    int // the step of the schedule that ships it
	members []int
}

// model is the datagram model written out once more, send by send, for the
// fuzz test to hold both runtimes' outboxes against: the groups a schedule
// ships, in the order they leave.
func model(sends []send) []group {
	var out, open []group
	lens := map[int]int{} // open group → frame payload bytes
	last := map[[2]int]int{}
	for i, s := range sends {
		if i > 0 && s.callback != sends[i-1].callback {
			out, open = append(out, open...), nil
			clear(last)
		}
		var flags uint8
		if s.reliable {
			flags = msg.FlagReliable
		}
		copies := 1
		if s.dup {
			copies = 2
		}
		entry := msg.EntryHeaderSize + s.enc
		g := group{to: s.to, flags: flags, copies: copies, held: s.held, step: s.step, members: []int{i}}
		if s.held || s.dup || s.outside || msg.CountSize+entry > msg.MaxFramePayload {
			out = append(out, g)
			continue
		}
		key := [2]int{int(s.to), int(flags)}
		if k, ok := last[key]; ok && lens[k]+entry <= msg.MaxFramePayload {
			open[k].members = append(open[k].members, i)
			lens[k] += entry
			continue
		}
		last[key] = len(open)
		lens[len(open)] = msg.CountSize + entry
		open = append(open, g)
	}
	return append(out, open...)
}

// schedule decodes a fuzzer-written schedule, three bytes per send: kind
// (bits 0–1: blame, score request, serve, serve), destination (bits 2–3,
// of three: nodes 10 to 12), a drawn reorder (bit 4) and duplication (bit
// 5), reliable class (bit 6, which draws neither), and outside any callback
// (bit 7); then the serve's size, 4 × the 15 bits of the next two bytes,
// past msg.MaxFramePayload at the top. The last byte's top bit ends the
// callback before it. Every callback and every send outside one is a step
// of its own.
func schedule(ops []byte, payload []byte) []send {
	ops = ops[:len(ops)/3*3]
	var sends []send
	callback, step := -1, 0
	for i := 0; i < len(ops); i += 3 {
		op := ops[i : i+3]
		s := send{to: msg.NodeID(10 + int(op[0]>>2&3)%3), held: op[0]&0x10 != 0, dup: op[0]&0x20 != 0, outside: op[0]&0x80 != 0}
		if op[0]&0x40 != 0 {
			s.reliable, s.held, s.dup = true, false, false
		}
		switch {
		case s.outside:
			callback = -1
			step++
		case callback < 0 || op[2]&0x80 != 0:
			callback = i
			step++
		}
		s.callback, s.step = callback, step
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
		s.enc = msg.EncodedSize(s.m)
		sends = append(sends, s)
	}
	return sends
}

// seqOf is the index of the send that carried m.
func seqOf(m msg.Message) int {
	switch v := m.(type) {
	case *msg.Blame:
		return int(v.Target)
	case *msg.ScoreReq:
		return int(v.Target)
	case *msg.Serve:
		return int(v.Chunk)
	}
	panic(fmt.Sprintf("a %T was never sent", m))
}

// conditions are the sender's conditions for s: a reorder or a duplicate
// drawn for certain when s has one.
func conditions(s send, latency, hold time.Duration) net.Conditions {
	c := net.Conditions{LatencyBase: latency, ReorderDelay: hold}
	if s.held {
		c.ReorderProb = 1
	}
	if s.dup {
		c.DupProb = 1
	}
	return c
}

// FuzzGrouping holds the Outbox, and the sim's delivery of what it groups,
// against the model, for a fuzzer-written schedule of node 1's sends. The
// Outbox must ship the model's groups, in its order, each due at its latest
// member's due; on the sim each group is one delivery event per copy,
// arriving at that due in the order the groups left, a held one
// ReorderDelay later. The udp runtime's outbox is held against Outbox by
// transport's FuzzOutbox. The committed corpus under testdata/fuzz replays
// on every plain `go test`.
func FuzzGrouping(f *testing.F) {
	payload := make([]byte, 1<<17)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*128 {
			t.Skip("long schedules only repeat short ones")
		}
		sends := schedule(ops, payload)
		want := model(sends)
		checkRule(t, sends, want)
		checkSim(t, sends, want)
	})
}

// The schedule's timing on the sim: one step a millisecond, every link
// this latency long, a held message this much longer.
const (
	stepTime  = time.Millisecond
	latency   = 5 * time.Millisecond
	holdDelay = time.Hour
)

// due is when a message of group g, or g itself, is due on the sim.
func (g group) due() time.Duration {
	d := time.Duration(g.step)*stepTime + latency
	if g.flags&msg.FlagReliable != 0 {
		d = time.Duration(g.step)*stepTime + latency*net.ReliableSetupFactor
	}
	if g.held {
		d += holdDelay
	}
	return d
}

func checkRule(t *testing.T, sends []send, want []group) {
	adds := make([]add, len(sends))
	var end []int
	for i, s := range sends {
		g := model(sends[i : i+1])[0] // s alone: its flags, copies and own due
		adds[i] = add{sender: 1, to: s.to, flags: g.flags, enc: s.enc, due: g.due(), copies: g.copies, held: s.held, outside: s.outside}
		if i > 0 && s.callback != sends[i-1].callback {
			end = append(end, i)
		}
	}
	var ships []shipped
	for _, g := range want {
		ships = append(ships, shipped{To: g.to, Flags: g.flags, Copies: uint8(g.copies), Due: g.due(),
			Oversize: msg.CountSize+msg.EntryHeaderSize+sends[g.members[0]].enc > msg.MaxFramePayload, Members: g.members})
	}
	if got := ship(adds, end...); !reflect.DeepEqual(got, ships) {
		t.Fatalf("the Outbox shipped\n%+v\nthe model ships\n%+v", got, ships)
	}
}

// arrival is what one destination received in one delivery event.
type arrival struct {
	to      msg.NodeID
	flags   uint8
	at      time.Duration
	members []int
}

// recorder records node `to`'s deliveries, one arrival per engine event.
type recorder struct {
	eng  *sim.Engine
	to   msg.NodeID
	got  *[]arrival
	sent []send
	last uint64
}

func (r *recorder) HandleMessage(_ msg.NodeID, m msg.Message) {
	seq := seqOf(m)
	if ev := r.eng.Events(); ev != r.last {
		r.last = ev
		var flags uint8
		if r.sent[seq].reliable {
			flags = msg.FlagReliable
		}
		*r.got = append(*r.got, arrival{to: r.to, flags: flags, at: r.eng.NodeNow(int(r.to))})
	}
	a := &(*r.got)[len(*r.got)-1]
	a.members = append(a.members, seq)
}

func checkSim(t *testing.T, sends []send, want []group) {
	eng := sim.NewSharded(1, latency)
	n := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Conditions{LatencyBase: latency})
	var got []arrival
	n.Attach(1, &recorder{eng: eng, to: 1, got: &got, sent: sends})
	for to := msg.NodeID(10); to < 13; to++ {
		n.Attach(to, &recorder{eng: eng, to: to, got: &got, sent: sends})
	}
	at := func(s send) time.Duration { return time.Duration(s.step) * stepTime }
	send := func(s send) {
		n.SetConditions(1, conditions(s, latency, holdDelay))
		n.Send(1, s.to, s.m, s.mode())
	}
	for i := 0; i < len(sends); {
		s := sends[i]
		if s.outside {
			eng.After(at(s), func() { send(s) })
			i++
			continue
		}
		j := i + 1
		for j < len(sends) && sends[j].callback == s.callback {
			j++
		}
		run := sends[i:j]
		eng.Domain(1).After(at(s), func() {
			for _, s := range run {
				send(s)
			}
		})
		i = j
	}
	eng.RunAll()

	var arrivals []arrival
	for _, g := range want {
		for range g.copies {
			arrivals = append(arrivals, arrival{to: g.to, flags: g.flags, at: g.due(), members: g.members})
		}
	}
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].at < arrivals[b].at })
	if !reflect.DeepEqual(got, arrivals) {
		t.Fatalf("the sim delivered\n%+v\nthe model ships\n%+v", got, arrivals)
	}
}

func (s send) mode() net.Mode {
	if s.reliable {
		return net.Reliable
	}
	return net.Unreliable
}
