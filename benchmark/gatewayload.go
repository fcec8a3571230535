package main

import (
	"fmt"
	"net/http"
	gort "runtime"
	"sync"
	"time"

	"lifting/internal/content"
	"lifting/internal/gateway"
	"lifting/internal/msg"
	"lifting/internal/rng"
)

// The gateway_edge request mix. The edge's direct-mapped cache holds 128
// chunks; 90 % of requests fall in a 96-chunk hot window that fits it, 10 %
// anywhere in 4096 chunks (32x the cache), where they miss, travel the
// upstream hop and evict a hot slot three times out of four.
const (
	gatewayChunkBytes = 1316
	edgeCacheChunks   = 128
	hotWindowChunks   = 96
	coldRangeChunks   = 4096
	coldShare         = 0.10
)

// gatewaySpec sizes the gateway_edge workload; the smoke test shrinks the
// two durations.
type gatewaySpec struct {
	why            string
	clients        int
	warmup, window time.Duration
	// probeDiv divides the probes' iteration counts (1 in the benchmark).
	probeDiv int
	// outDir receives the traced pass's artifacts.
	outDir string
}

func gatewayEdgeSpec(window time.Duration) gatewaySpec {
	return gatewaySpec{
		why:     "closed-loop HTTP clients on an edge gateway in front of an origin, working set 32x the edge cache: cache, upstream hop, origin regenerate and hash; bypasses every gossip, sim and transport layer",
		clients: gort.NumCPU(), warmup: time.Second, window: window, probeDiv: 1, outDir: artifactsDir,
	}
}

// gatewayRig is an origin gateway, an edge gateway in front of it and the
// closed-loop clients of the edge, all on loopback.
type gatewayRig struct {
	origin, edge *gateway.Gateway
	base         string
	hotBase      int
	// want is the canonical content hash of every chunk a client can ask
	// for, computed from the seed alone: a response is correct only if the
	// payload FetchChunk verified is the payload of the chunk requested.
	want    []uint64
	clients []*http.Client
	rands   []*rng.Stream
}

// setUp starts both gateways and warms the edge cache and the keep-alive
// connections up.
func (s gatewaySpec) setUp(seed uint64) (*gatewayRig, error) {
	root := rng.New(seed)
	contentSeed := root.Derive("content").Seed()
	rig := &gatewayRig{
		origin:  gateway.New(gateway.Options{Origin: content.NewSource(contentSeed, gatewayChunkBytes)}),
		hotBase: root.Derive("hot").IntN(coldRangeChunks - hotWindowChunks),
		want:    make([]uint64, coldRangeChunks),
	}
	originAddr, err := rig.origin.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.edge = gateway.New(gateway.Options{Upstream: "http://" + originAddr, CacheCapacity: edgeCacheChunks})
	edgeAddr, err := rig.edge.Start("127.0.0.1:0")
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.base = "http://" + edgeAddr
	for c := range rig.want {
		rig.want[c] = content.HashBytes(content.Generate(contentSeed, msg.ChunkID(c), gatewayChunkBytes))
	}
	for i := 0; i < s.clients; i++ {
		rig.clients = append(rig.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   5 * time.Second,
		})
		rig.rands = append(rig.rands, root.Derive("client").ForNode(uint32(i)))
	}
	rig.load(s.warmup)
	return rig, nil
}

func (r *gatewayRig) close() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	if r.edge != nil {
		_ = r.edge.Close() // listener teardown; nothing to report
	}
	_ = r.origin.Close() // listener teardown; nothing to report
}

// gatewayLoad is what the clients saw over one load phase.
type gatewayLoad struct {
	hotNs, coldNs []int64 // verified-response latencies by request class
	failed        int     // FetchChunk errors
	wrong         int     // verified payloads that were not the chunk asked for
	loadS         float64 // how long the phase really lasted
}

func (l *gatewayLoad) merge(o gatewayLoad) {
	l.hotNs = append(l.hotNs, o.hotNs...)
	l.coldNs = append(l.coldNs, o.coldNs...)
	l.failed += o.failed
	l.wrong += o.wrong
}

// load runs every client in a closed loop for d: each sends its next
// request when the previous response has been read and verified.
func (r *gatewayRig) load(d time.Duration) gatewayLoad {
	results := make([]gatewayLoad, len(r.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, rand, res := r.clients[i], r.rands[i], &results[i]
			for time.Now().Before(deadline) {
				cold := rand.Bernoulli(coldShare)
				id := r.hotBase + rand.IntN(hotWindowChunks)
				if cold {
					id = rand.IntN(coldRangeChunks)
				}
				sent := time.Now()
				_, hash, err := gateway.FetchChunk(client, r.base, msg.ChunkID(id))
				ns := int64(time.Since(sent))
				switch {
				case err != nil:
					res.failed++
				case hash != r.want[id]:
					res.wrong++
				case cold:
					res.coldNs = append(res.coldNs, ns)
				default:
					res.hotNs = append(res.hotNs, ns)
				}
			}
		}()
	}
	wg.Wait()
	all := gatewayLoad{loadS: time.Since(start).Seconds()}
	for _, res := range results {
		all.merge(res)
	}
	return all
}

// gatewayPass is what one timed run of gateway_edge measured.
type gatewayPass struct {
	gatewayLoad
	cost
	edge gateway.Stats // counters over the measured window only
}

func (p gatewayPass) responses() int { return len(p.hotNs) + len(p.coldNs) }

// timedRun loads a warmed-up rig for the window and tears it down: the timed
// region is the load phase plus the teardown.
func (s gatewaySpec) timedRun(rig *gatewayRig) gatewayPass {
	warm := rig.edge.Stats()
	reg := beginRegion()
	p := gatewayPass{gatewayLoad: rig.load(s.window)}
	hot := rig.edge.Stats()
	rig.close()
	p.cost = reg.end()
	p.edge = gateway.Stats{
		Requests:     hot.Requests - warm.Requests,
		CacheHits:    hot.CacheHits - warm.CacheHits,
		UpstreamHits: hot.UpstreamHits - warm.UpstreamHits,
		BytesServed:  hot.BytesServed - warm.BytesServed,
	}
	return p
}

// pass sets the rig up and runs the timed region once.
func (s gatewaySpec) pass(seed uint64) (gatewayPass, error) {
	start := time.Now()
	rig, err := s.setUp(seed)
	if err != nil {
		return gatewayPass{}, fmt.Errorf("gateway_edge: set-up: %w", err)
	}
	setupS := time.Since(start).Seconds()
	p := s.timedRun(rig)
	p.setupS = setupS
	return p, nil
}
