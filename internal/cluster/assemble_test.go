package cluster

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/sim"
)

// wired reads an unexported field path out of an assembled protocol object.
// The protocol packages expose no accessors for their wiring (and this test
// must observe what a node was actually built with, not what the caller
// meant to build), so it goes through reflection; a renamed field fails
// loudly here.
func wired(t *testing.T, v any, path ...string) reflect.Value {
	t.Helper()
	rv := reflect.ValueOf(v)
	for _, name := range path {
		for rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Interface {
			rv = rv.Elem()
		}
		rv = rv.FieldByName(name)
		if !rv.IsValid() {
			t.Fatalf("%T has no field path %v", v, path)
		}
	}
	return rv
}

// auxTypes lists the dynamic types on a node's aux chain, in order.
func auxTypes(t *testing.T, node *gossip.Node) []string {
	t.Helper()
	chain := wired(t, node, "deps", "Aux").Elem()
	out := make([]string, chain.Len())
	for i := range out {
		out[i] = chain.Index(i).Elem().Type().String()
	}
	return out
}

// TestOneNodeClustersAssembleLikeCluster is the first step of the
// differential test of an in-process cluster against a deployment: for one
// seed and one configuration, node i built through cluster.New and node i
// built as the one node of a Deployment cluster are the same node — same
// propose phase, same random streams, same store, same compensation, same
// stream bytes, same aux chain up to the two handlers the callers declare
// (the cluster's auditor proxy at the source, the deployment's score
// reader) — and a freerider scenario reaches the same verdict, with the same
// scores, through both. The n one-node clusters share one sim runtime, as
// deployment processes share a network. It fails as soon as either path
// grows private assembly again.
func TestOneNodeClustersAssembleLikeCluster(t *testing.T) {
	const (
		n         = 24
		firstFree = 20
		duration  = 2400 * time.Millisecond
	)
	rider := freerider.Degree{Delta1: 0.5, Delta2: 0.5, Delta3: 0.5}
	opts := fastOptions(runtime.KindSim, n)
	opts.BlameMode = BlameMessages
	// Lossy links, so the default compensation (Equation 5) is nonzero: the
	// cluster and every deployment derive pl from the network defaults.
	opts.NetDefaults = net.Uniform(0.02, 2*time.Millisecond)
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if id >= firstFree {
			return rider
		}
		return nil
	}
	c := New(opts)

	engine := sim.NewSharded(1, opts.NetDefaults.LatencyBase) // the layout New picks for opts
	collector := metrics.NewCollector()
	rt := runtime.NewSim(engine, net.NewSimNet(engine, rng.New(opts.Seed).Derive("net"), collector, opts.NetDefaults))
	hosts := make([]*Cluster, n)
	for i := range hosts {
		ho := opts
		ho.Deployment = &Deployment{Self: msg.NodeID(i), Runtime: rt, Collector: collector}
		hosts[i] = New(ho)
		if got := len(hosts[i].Nodes); got != 1 {
			t.Fatalf("deployment cluster %d built %d nodes, want 1", i, got)
		}
	}

	// The recipe: every observable ingredient agrees, node by node.
	const (
		auditorAux = "cluster.auditorProxy"
		readerAux  = "*reputation.Reader"
	)
	if c.Opts.Rep.Compensation <= 0 {
		t.Fatalf("cluster defaulted no compensation: %v", c.Opts.Rep.Compensation)
	}
	_, wantHash := c.Content.Chunk(0)
	offsets := make(map[int64]bool)
	for i, h := range hosts {
		id := msg.NodeID(i)
		cn, hn := c.Nodes[id], h.Nodes[id]
		co := wired(t, cn, "cfg", "StartOffset").Int()
		if ho := wired(t, hn, "cfg", "StartOffset").Int(); co != ho {
			t.Errorf("node %d: StartOffset %v in the cluster, %v in its deployment", i, time.Duration(co), time.Duration(ho))
		}
		offsets[co] = true
		if cs, hs := wired(t, cn, "deps", "Rand", "seed").Uint(), wired(t, hn, "deps", "Rand", "seed").Uint(); cs != hs {
			t.Errorf("node %d: gossip stream seed %#x in the cluster, %#x in its deployment", i, cs, hs)
		}
		if cc, hc := wired(t, cn, "deps", "Store", "slots").Len(), wired(t, hn, "deps", "Store", "slots").Len(); cc != hc || cc == 0 {
			t.Errorf("node %d: store capacity %d in the cluster, %d in its deployment", i, cc, hc)
		}
		cb := wired(t, c.Managers[id], "cfg", "Compensation").Float()
		if hb := wired(t, h.Managers[id], "cfg", "Compensation").Float(); cb != hb || cb != c.Opts.Rep.Compensation {
			t.Errorf("node %d: compensation %v in the cluster, %v in its deployment, defaulted %v", i, cb, hb, c.Opts.Rep.Compensation)
		}
		if _, hash := h.Content.Chunk(0); hash != wantHash {
			t.Errorf("node %d: chunk 0 hashes to %#x in its deployment, %#x in the cluster", i, hash, wantHash)
		}
		if got, want := cn.Behavior() != (gossip.Honest{}), i >= firstFree; got != want || (hn.Behavior() != gossip.Honest{}) != want {
			t.Errorf("node %d: freerider = %v in the cluster, %v in its deployment, want %v", i, got, hn.Behavior() != gossip.Honest{}, want)
		}

		ca, ha := auxTypes(t, cn), auxTypes(t, hn)
		if slices.Contains(ca, auditorAux) != (i == 0) {
			t.Errorf("node %d: cluster aux chain %v; the auditor proxy belongs to the source only", i, ca)
		}
		if !slices.Contains(ha, readerAux) {
			t.Errorf("node %d: deployment aux chain %v lacks the score reader", i, ha)
		}
		shared := func(chain []string) []string {
			return slices.DeleteFunc(slices.Clone(chain), func(s string) bool { return s == auditorAux || s == readerAux })
		}
		if !slices.Equal(shared(ca), shared(ha)) || len(shared(ca)) == 0 {
			t.Errorf("node %d: aux chain %v in the cluster, %v in its deployment", i, ca, ha)
		}
	}
	if len(offsets) < n/2 {
		t.Errorf("only %d distinct StartOffsets over %d nodes: the offset stream is not per-node", len(offsets), n)
	}

	// The verdict: freeriders score below the honest mean either way.
	verdict := func(entry string, scores map[msg.NodeID]float64) {
		var honest, riders float64
		for id, s := range scores {
			switch {
			case id == 0:
			case id >= firstFree:
				riders += s
			default:
				honest += s
			}
		}
		honest /= firstFree - 1
		riders /= n - firstFree
		t.Logf("%s: honest mean %.2f, freerider mean %.2f", entry, honest, riders)
		if riders >= honest {
			t.Errorf("%s: freerider mean %.2f not below honest mean %.2f", entry, riders, honest)
		}
	}

	c.Start()
	c.StartStream(duration)
	c.Run(duration + 200*time.Millisecond)
	verdict("cluster.New", c.Scores())

	for _, h := range hosts {
		h.Start()
	}
	hosts[0].StartStream(duration)
	if err := rt.Run(context.Background(), duration+200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Min-vote over the manager copies, read in-process the way
	// Cluster.Scores reads them (an over-the-wire ReadScores would block on
	// virtual time).
	scores := make(map[msg.NodeID]float64, n)
	for target := range hosts {
		var copies []float64
		for _, m := range hosts[0].Dir.Managers(msg.NodeID(target), opts.Rep.M) {
			if s, tracked := hosts[m].Managers[m].Score(msg.NodeID(target)); tracked {
				copies = append(copies, s)
			}
		}
		scores[msg.NodeID(target)], _ = reputation.MinVoteScore(copies, nil)
	}
	verdict("one-node clusters", scores)

	// Same nodes on the same seeded network: with static membership the two
	// assemblies differ only in how many period clocks tick, so the scores
	// agree to the bit, not just in verdict.
	for id, s := range c.Scores() {
		if s != scores[id] {
			t.Errorf("node %d scores %v through cluster.New, %v through one-node clusters", id, s, scores[id])
		}
	}
}

// TestDerivedOptionsAssembleTheSameNode pins setDefaults' derivations: a
// zero Core.F/Period/HistoryPeriods and a zero Gossip.ChunkPayload assemble
// the node the restated literal does — TestBytesPerNode's shape, one seed,
// equal collector snapshot after 5 s — and a value stated explicitly, equal
// or not, is left alone.
func TestDerivedOptionsAssembleTheSameNode(t *testing.T) {
	shape := func() Options {
		opts := baseOptions(120, 0.01)
		opts.Seed, opts.Shards, opts.BlameMode = 23, 1, BlameMessages
		opts.Gossip.ChunkPayload, opts.Stream.ChunkPayload = 5264, 5264
		opts.Rep = reputation.Config{M: 25, Eta: -1e9, FlushEvery: 5, GracePeriods: 24}
		opts.NetDefaults = net.Uniform(0.01, 5*time.Millisecond)
		opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id >= 108 {
				return freerider.Degree{Delta1: 0.7, Delta2: 0.7}
			}
			return nil
		}
		return opts
	}
	snapshot := func(opts Options) (Options, metrics.Snapshot) {
		c := New(opts)
		c.Start()
		c.StartStream(5 * time.Second)
		c.Run(5 * time.Second)
		return c.Opts, c.Collector.SnapshotAt(0)
	}

	restated := shape()
	derived := shape()
	derived.Core.F, derived.Core.Period, derived.Core.HistoryPeriods = 0, 0, 0
	derived.Gossip.ChunkPayload = 0
	wantOpts, want := snapshot(restated)
	gotOpts, got := snapshot(derived)
	if want.UsefulChunks == 0 || want.VerificationBytes == 0 {
		t.Fatalf("the restated run disseminated or verified nothing: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("derived options ran a different system:\n derived:  %+v\n restated: %+v", got, want)
	}
	if gotOpts.Core != wantOpts.Core || gotOpts.Gossip != wantOpts.Gossip {
		t.Errorf("derived options resolved differently:\n derived:  %+v %+v\n restated: %+v %+v",
			gotOpts.Gossip, gotOpts.Core, wantOpts.Gossip, wantOpts.Core)
	}

	explicit := shape()
	explicit.Core.F, explicit.Core.Period, explicit.Core.HistoryPeriods = 5, 2*tg, 20
	explicit.Gossip.ChunkPayload = 256
	explicit.setDefaults()
	if c := explicit.Core; c.F != 5 || c.Period != 2*tg || c.HistoryPeriods != 20 {
		t.Errorf("explicit Core overwritten: F %d, Period %v, HistoryPeriods %d", c.F, c.Period, c.HistoryPeriods)
	}
	if explicit.Gossip.ChunkPayload != 256 {
		t.Errorf("explicit Gossip.ChunkPayload overwritten: %d", explicit.Gossip.ChunkPayload)
	}
}

// TestInvalidStreamPanics pins that no system is assembled around a stream
// that cannot be broadcast: New refuses it like N < 2, where it once ran
// with the content plane silently off.
func TestInvalidStreamPanics(t *testing.T) {
	opts := fastOptions(runtime.KindSim, 4)
	opts.Stream.BitrateBps = 0
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "stream:") {
			t.Errorf("recovered %v, want a panic naming the invalid %+v", r, opts.Stream)
		}
	}()
	New(opts)
}
