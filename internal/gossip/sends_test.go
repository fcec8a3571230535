package gossip

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// keptLists is a Monitor that keeps every list a node hands it — the fan-in
// blocks of its propose phases, the lists of chunks it served — beside a
// copy taken when it was handed over.
type keptLists struct {
	NopMonitor
	lists, copies [][]msg.ChunkID
}

func (k *keptLists) keep(l []msg.ChunkID) {
	k.lists = append(k.lists, l)
	k.copies = append(k.copies, slices.Clone(l))
}

func (k *keptLists) OnProposePhase(_ msg.Period, _ []msg.NodeID, _ []msg.ChunkID, servers []msg.ServeRecord) {
	for _, s := range servers {
		k.keep(s.Chunks)
	}
}

func (k *keptLists) OnServed(_ msg.NodeID, _ msg.Period, served []msg.ChunkID) { k.keep(served) }

// builtNet keeps every message its senders hand it, beside a copy taken as
// it is handed over.
type builtNet struct {
	inner        *net.SimNet
	sent, copies []msg.Message
}

func (b *builtNet) Send(from, to msg.NodeID, m msg.Message, mode net.Mode) {
	var c msg.Message
	switch v := m.(type) {
	case *msg.Propose:
		c = &msg.Propose{Sender: v.Sender, Period: v.Period, Chunks: slices.Clone(v.Chunks), Origins: slices.Clone(v.Origins)}
	case *msg.Request:
		c = &msg.Request{Sender: v.Sender, Period: v.Period, Chunks: slices.Clone(v.Chunks)}
	case *msg.Serve:
		cp := *v
		c = &cp
	}
	b.sent, b.copies = append(b.sent, m), append(b.copies, c)
	b.inner.Send(from, to, m, mode)
}

// deliveries counts the messages a node is handed.
type deliveries struct {
	node *Node
	got  *int
}

func (d deliveries) HandleMessage(from msg.NodeID, m msg.Message) {
	*d.got++
	d.node.HandleMessage(from, m)
}

// TestSentMessagesAreNotAliased runs two nodes on one engine shard, carving
// from its one set of send blocks as cluster.New's nodes do, through a
// network that delivers every message twice. Each period both nodes take 16
// new chunks of their own and trade them: each proposes to the other, which
// requests all 16, and is served. In 64 periods the two carve at least three
// blocks' worth of every kind they send — Proposes, Requests, Serves, the
// proposals and fan-in blocks, the origins, the requests and serve lists —
// interleaved. After the last send, every message, each delivered twice,
// must still be what its sender built, and every list handed to a monitor
// what it was handed: a block reused for a later carve would rewrite an
// earlier one here.
func TestSentMessagesAreNotAliased(t *testing.T) {
	const perPeriod, periods = 16, 64
	cfg := testConfig()
	cfg.F = 1
	eng := sim.NewEngine()
	dir := membership.Sequential(2)
	inner := net.NewSimNet(eng, rng.New(1), metrics.NewCollector(), net.Conditions{LatencyBase: time.Millisecond, DupProb: 1})
	netw := &builtNet{inner: inner}
	sends := new(msg.Sends)
	var nodes [2]*Node
	var mons [2]keptLists
	var got int
	for i := range nodes {
		id := msg.NodeID(i)
		cfg := cfg
		cfg.StartOffset = time.Duration(2*i+1) * cfg.Period / 4
		nodes[i] = NewNode(id, cfg, shipped(cfg, Deps{Ctx: eng.Domain(i), Net: netw, Dir: dir, Rand: rng.New(uint64(i + 1)), Sends: sends, Monitor: &mons[i]}))
		inner.Attach(id, deliveries{node: nodes[i], got: &got})
		nodes[i].Start()
	}
	next := msg.ChunkID(0)
	for p := 0; p < periods; p++ {
		for i := range nodes {
			for k := 0; k < perPeriod; k++ {
				inject(nodes[i], next)
				next++
			}
		}
		eng.Run(eng.Now() + cfg.Period)
	}
	eng.Run(eng.Now() + 2*cfg.Period)

	for i, n := range nodes {
		if want := int(next); n.ChunkCount() < want-2*perPeriod {
			t.Fatalf("node %d holds %d of %d chunks: the periods are not the exchange described", i, n.ChunkCount(), want)
		}
	}
	// The block sizes of a msg.Sends set: 16 structs, 64 serves, 512 ids.
	counts := map[msg.Kind]int{}
	var proposed, origins, requested int
	for _, m := range netw.sent {
		counts[m.Kind()]++
		switch v := m.(type) {
		case *msg.Propose:
			proposed += len(v.Chunks)
			origins += len(v.Origins)
		case *msg.Request:
			requested += len(v.Chunks)
		}
	}
	if counts[msg.KindPropose] < 3*16 || counts[msg.KindRequest] < 3*16 || counts[msg.KindServe] < 3*64 ||
		proposed < 3*512 || origins < 3*512 || requested < 3*512 {
		t.Fatalf("built %v, with %d proposed ids, %d origins and %d requested: fewer than three blocks of some kind", counts, proposed, origins, requested)
	}
	if got != 2*len(netw.sent) {
		t.Fatalf("%d deliveries of %d messages, want every message twice", got, len(netw.sent))
	}
	for k, m := range netw.sent {
		if want := netw.copies[k]; !reflect.DeepEqual(m, want) {
			t.Fatalf("message %d now reads %+v, but its sender built %+v: it was written over by a later send", k, m, want)
		}
	}
	for i := range mons {
		for k, l := range mons[i].lists {
			if !slices.Equal(l, mons[i].copies[k]) {
				t.Fatalf("node %d's list %d now reads %v, but was %v when handed over", i, k, l, mons[i].copies[k])
			}
		}
	}
}
