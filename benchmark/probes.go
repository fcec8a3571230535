package main

import (
	"fmt"
	"net/http"
	gort "runtime"
	"sort"
	"sync/atomic"
	"time"

	"lifting/internal/content"
	"lifting/internal/gateway"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/sim"
	"lifting/internal/stats"
	"lifting/internal/transport"
)

// Probes are fixed-iteration loops over one layer's public functions, with
// inputs shaped like the workloads' (8-id proposals, 1316-byte serves, 25
// managers over 4000 nodes). They run in the traced pass of every workload
// and do not depend on it: a probe that moves while the workload's own
// counters stand still says the layer changed where the workload does not
// go.

// perCall runs fn n times and returns the nanoseconds one call took.
func perCall(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// allocsPerCall runs fn n times and returns the heap objects one call
// allocated.
func allocsPerCall(n int, fn func()) float64 {
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	gort.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// handlerFunc adapts a function to net.Handler.
type handlerFunc func(from msg.NodeID, m msg.Message)

func (f handlerFunc) HandleMessage(from msg.NodeID, m msg.Message) { f(from, m) }

// nullNet swallows sends: the reputation probe measures the client, not a
// network.
type nullNet struct{}

func (nullNet) Send(_, _ msg.NodeID, _ msg.Message, _ net.Mode) {}

// runProbes runs every probe at 1/div of its full iteration count.
func runProbes(div int) (map[string]float64, error) {
	m := map[string]float64{}
	probeSim(m, div)
	probeNet(m, div)
	probeReputation(m, div)
	probeMembership(m, div)
	probeMsg(m, div)
	probeContent(m, div)
	probeGateway(m, div)
	probeMetricsAndStats(m, div)
	return m, probeTransport(m, div)
}

const probeNodes = 64

func probeSim(m map[string]float64, div int) {
	// Rounds of 32k pending events: about what 4000 nodes keep in the queue.
	const pending = 1 << 15
	rounds := max(1, 16/div)
	fired := make([]int, probeNodes) // one counter per domain: shards run them concurrently
	drain := func(e *sim.Engine) float64 {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for i := 0; i < pending; i++ {
				node := i % probeNodes
				e.Domain(node).After(time.Duration(i%1000)*time.Millisecond, func() { fired[node]++ })
			}
			e.RunAll()
		}
		return float64(time.Since(start)) / float64(rounds*pending)
	}
	m["sim.event_ns"] = drain(sim.NewEngine())
	m["sim.sharded_event_ns"] = drain(sim.NewSharded(gort.GOMAXPROCS(0), 5*time.Millisecond))
}

func probePropose() *msg.Propose {
	return &msg.Propose{Sender: 1, Period: 7, Chunks: []msg.ChunkID{40, 41, 42, 43, 44, 45, 46, 47}}
}

func probeServe(size int) *msg.Serve {
	payload := content.Generate(23, 40, size)
	return &msg.Serve{Sender: 1, Period: 7, Chunk: 40, PayloadSize: size, Hash: content.HashBytes(payload), Payload: payload}
}

func probeNet(m map[string]float64, div int) {
	sends := (1 << 17) / div
	engine := sim.NewSharded(1, 5*time.Millisecond)
	simnet := net.NewSimNet(engine, rng.New(23), metrics.NewCollector(), net.Uniform(0.01, 5*time.Millisecond))
	delivered := 0
	for i := 0; i < probeNodes; i++ {
		engine.Domain(i) // registers the node with the sharded engine, as cluster.New does
		simnet.Attach(msg.NodeID(i), handlerFunc(func(msg.NodeID, msg.Message) { delivered++ }))
	}
	propose := probePropose()
	i := 0
	round := func() {
		// Send from the global phase, then let the engine deliver.
		for j := 0; j < 1024; j++ {
			simnet.Send(msg.NodeID(i%probeNodes), msg.NodeID((i+1)%probeNodes), propose, net.Unreliable)
			i++
		}
		engine.RunAll()
	}
	m["net.send_deliver_ns"] = perCall(sends/1024, round) / 1024
	m["net.send_deliver_allocs"] = allocsPerCall(sends/1024, round) / 1024
}

func probeReputation(m map[string]float64, div int) {
	const targets = 20
	rounds := 6400 / div
	dir := membership.Sequential(4000)
	client := reputation.NewClient(1, reputation.Config{M: 25}, nullNet{}, dir)
	round := func() {
		for t := 0; t < targets; t++ {
			client.Blame(msg.NodeID(100+t*37), 1.5, msg.ReasonUnknown)
		}
		client.Flush()
	}
	round() // the manager sets of the targets are cached from here on
	m["reputation.flush_ns_per_blame"] = perCall(rounds, round) / targets
}

func probeMembership(m map[string]float64, div int) {
	const n, mgrs = 4000, 25
	joins := 640 / div
	dir := membership.Sequential(n)
	lookups := func() {
		for t := 0; t < n; t++ {
			dir.Managers(msg.NodeID(t), mgrs)
		}
	}
	lookups()
	m["membership.managers_hit_ns"] = perCall(4, lookups) / n
	// A lookup right behind a join, which bumps the epoch and empties the
	// cache. The clock reads cost tens of ns against a miss's microseconds.
	var miss time.Duration
	for j := 0; j < joins; j++ {
		dir.Join(msg.NodeID(n + j))
		start := time.Now()
		dir.Managers(msg.NodeID(j*17), mgrs)
		miss += time.Since(start)
	}
	m["membership.managers_miss_ns"] = float64(miss) / float64(joins)
}

func probeMsg(m map[string]float64, div int) {
	n := (1 << 17) / div
	propose, serve := probePropose(), probeServe(1316)
	buf := make([]byte, 0, 2048)
	encode := func(mm msg.Message) func() {
		return func() {
			var err error
			if buf, err = msg.AppendEncode(buf[:0], mm); err != nil {
				panic(err) // a well-formed message of our own making
			}
		}
	}
	decode := func(b []byte) func() {
		return func() {
			if _, err := msg.Decode(b); err != nil {
				panic(err)
			}
		}
	}
	m["msg.encode_ns"] = perCall(n, encode(propose))
	proposeBytes, _ := msg.Encode(propose) // encoded once above without error
	m["msg.decode_ns"] = perCall(n, decode(proposeBytes))
	m["msg.decode_allocs"] = allocsPerCall(n, decode(proposeBytes))
	m["msg.serve_encode_ns"] = perCall(n, encode(serve))
	serveBytes, _ := msg.Encode(serve) // encoded once above without error
	m["msg.serve_decode_ns"] = perCall(n, decode(serveBytes))
	m["msg.frame_roundtrip_ns"] = perCall(n, func() {
		var err error
		if buf, err = msg.AppendFrame(buf[:0], serve, 0); err != nil {
			panic(err)
		}
		if _, _, err = msg.DecodeFrame(buf); err != nil {
			panic(err)
		}
	})
}

func probeContent(m map[string]float64, div int) {
	n := (1 << 17) / div
	payload := content.Generate(23, 40, 1316)
	var sink uint64
	m["content.hash_ns_per_kb"] = perCall(n, func() { sink += content.HashBytes(payload) }) * 1024 / 1316
	calSink.Add(sink)
	store := content.NewStore(128)
	c := 0
	m["content.store_putget_ns"] = perCall(n, func() {
		store.Put(msg.ChunkID(c), payload, 1)
		store.Get(msg.ChunkID(c))
		c++
	})
}

// discard is the http.ResponseWriter the handler probes write into.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

func probeGateway(m map[string]float64, div int) {
	hits, misses := (1<<15)/div, (1<<12)/div
	g := gateway.New(gateway.Options{Origin: content.NewSource(23, 1316), CacheCapacity: 128})
	handler := g.Handler()
	serve := func(id int) {
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("/stream/chunk/%d", id), nil)
		if err != nil {
			panic(err) // a constant, well-formed URL
		}
		handler.ServeHTTP(&discard{h: http.Header{}}, req)
	}
	serve(5)
	m["gateway.handler_hit_ns"] = perCall(hits, func() { serve(5) })
	id := 1000
	m["gateway.origin_miss_ns"] = perCall(misses, func() { serve(id); id++ })
}

func probeMetricsAndStats(m map[string]float64, div int) {
	n := (1 << 20) / div
	col := metrics.NewCollector()
	propose := probePropose()
	size := propose.WireSize()
	i := 0
	m["metrics.onsend_ns"] = perCall(n, func() { col.OnSend(msg.NodeID(i%probeNodes), propose, size); i++ })

	// 600 occurrences over 300 partners: an audit's fanout multiset.
	set := stats.NewMultiset[msg.NodeID]()
	rand := rng.New(23)
	for j := 0; j < 600; j++ {
		set.Add(msg.NodeID(rand.IntN(300)))
	}
	var sink float64
	m["stats.entropy_ns"] = perCall(6400/div, func() { sink += set.Entropy() })
	calSink.Add(uint64(sink))
}

// probeTransport measures the UDP runtime between two loopback sockets with
// no modelled loss or latency: what is left is codec, syscalls, the receive
// loop and the scheduler.
func probeTransport(m map[string]float64, div int) error {
	rt := transport.New(transport.Options{})
	defer rt.Close()
	for id := msg.NodeID(0); id < 2; id++ {
		if _, err := rt.AddNode(id, "127.0.0.1:0"); err != nil {
			return fmt.Errorf("transport probe: %w", err)
		}
	}
	arrived := make(chan struct{}, 1)
	rt.Attach(0, handlerFunc(func(msg.NodeID, msg.Message) { arrived <- struct{}{} }))
	echo := handlerFunc(func(_ msg.NodeID, mm msg.Message) { rt.Send(1, 0, mm, net.Unreliable) })
	rt.Attach(1, echo)

	// roundTrips sends mm to node 1 n times, waits for it to come back each
	// time and returns the median in microseconds. A lost datagram (rare on
	// loopback) costs one timeout and no sample.
	roundTrips := func(n int, mm msg.Message) float64 {
		samples := make([]int64, 0, n)
		lost := time.NewTimer(time.Hour)
		defer lost.Stop()
		for i := 0; i < n; i++ {
			lost.Reset(200 * time.Millisecond)
			start := time.Now()
			rt.Send(0, 1, mm, net.Unreliable)
			select {
			case <-arrived:
				samples = append(samples, int64(time.Since(start)))
				if !lost.Stop() {
					<-lost.C
				}
			case <-lost.C:
			}
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return percentileNs(samples, 50, 1e3)
	}
	m["transport.pingpong_us"] = roundTrips(20480/div, probePropose())
	// 200 KB does not fit a datagram: it leaves as a train of fragment
	// frames and is reassembled before dispatch, in both directions.
	m["transport.fragment_roundtrip_us"] = roundTrips(64/div, probeServe(200<<10))

	var received atomic.Int64
	rt.Attach(1, handlerFunc(func(msg.NodeID, msg.Message) { received.Add(1) }))
	serve := probeServe(1316)
	flood := 2 * time.Second / time.Duration(div)
	for start := time.Now(); time.Since(start) < flood; {
		rt.Send(0, 1, serve, net.Unreliable)
	}
	time.Sleep(20 * time.Millisecond) // datagrams still in the socket buffer
	m["transport.flood_msgs_per_s"] = float64(received.Load()) / flood.Seconds()
	return nil
}
