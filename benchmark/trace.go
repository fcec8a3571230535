package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	gort "runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"lifting/internal/msg"
	"lifting/internal/net"
)

// artifactsDir is where the traced pass of the full-size workloads leaves
// its artifacts, relative to the directory the benchmark is run from (the
// repository root).
const artifactsDir = "benchmark/out"

// kindSlots covers msg.KindPropose..msg.KindAuditPollResp; slot 0 absorbs
// anything else.
const kindSlots = int(msg.KindAuditPollResp) + 1

// tracer accumulates, per message kind, how long the nodes' message handlers
// ran and how often. It is the benchmark's only instrument inside a running
// cluster: spans are taken around net.Handler.HandleMessage, the boundary
// through which every backend hands a message to the protocol layers.
type tracer struct {
	kinds [kindSlots]struct {
		busyNs, calls atomic.Int64
		_             [48]byte // one cache line per kind: shards and socket loops update them concurrently
	}
}

// span is one node's handler seen through the tracer.
type span struct {
	h net.Handler
	t *tracer
}

func (t *tracer) wrap(h net.Handler) net.Handler { return span{h: h, t: t} }

func (s span) HandleMessage(from msg.NodeID, m msg.Message) {
	start := time.Now()
	s.h.HandleMessage(from, m)
	k := int(m.Kind())
	if k >= kindSlots {
		k = 0
	}
	s.t.kinds[k].busyNs.Add(int64(time.Since(start)))
	s.t.kinds[k].calls.Add(1)
}

// handlerLayer names the package that owns a kind's handler. Dissemination
// kinds run gossip.Node (which calls the verifier's monitor hooks and the
// payload hash check inline); cross-checking and audits run core; blame and
// score traffic runs reputation.
func handlerLayer(k msg.Kind) string {
	switch k {
	case msg.KindPropose, msg.KindRequest, msg.KindServe:
		return "gossip"
	case msg.KindBlame, msg.KindScoreReq, msg.KindScoreResp, msg.KindExpel:
		return "reputation"
	default:
		return "core"
	}
}

// layerTotals sums the per-kind spans by owning layer.
func (t *tracer) layerTotals() (busyNs, calls map[string]int64) {
	busyNs, calls = map[string]int64{}, map[string]int64{}
	for k := 1; k < kindSlots; k++ {
		layer := handlerLayer(msg.Kind(k))
		busyNs[layer] += t.kinds[k].busyNs.Load()
		calls[layer] += t.kinds[k].calls.Load()
	}
	return busyNs, calls
}

// kindSpan is one row of spans.json.
type kindSpan struct {
	Kind   string `json:"kind"`
	Layer  string `json:"layer"`
	BusyNs int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
}

func (t *tracer) rows() []kindSpan {
	var rows []kindSpan
	for k := 1; k < kindSlots; k++ {
		kind := msg.Kind(k)
		rows = append(rows, kindSpan{
			Kind: kind.String(), Layer: handlerLayer(kind),
			BusyNs: t.kinds[k].busyNs.Load(), Calls: t.kinds[k].calls.Load(),
		})
	}
	return rows
}

// allocLayers are the packages the allocation table has a row for; every
// other frame, the benchmark's own included, lands in "other".
var allocLayers = []string{
	"sim", "net", "msg", "gossip", "core", "history", "reputation", "membership",
	"metrics", "content", "cluster", "transport", "gateway", "other",
}

// allocsByLayer walks the runtime's allocation profile and attributes the
// objects allocated so far to the innermost layer (lifting/internal/<pkg>)
// on each sampled stack, scaling sampled counts the way pprof does. Call it
// before and after a region and subtract: the profile is cumulative.
func allocsByLayer() map[string]float64 {
	// The profile lags two collections behind the allocations it describes.
	gort.GC()
	gort.GC()
	records := make([]gort.MemProfileRecord, 1024)
	for {
		n, ok := gort.MemProfile(records, true)
		if ok {
			records = records[:n]
			break
		}
		records = make([]gort.MemProfileRecord, n+n/4+64)
	}
	out := make(map[string]float64, len(allocLayers))
	rate := float64(gort.MemProfileRate)
	for i := range records {
		r := &records[i]
		if r.AllocObjects == 0 {
			continue
		}
		objects := float64(r.AllocObjects)
		if rate > 1 {
			// A sampled object of average size s stands for 1/(1-e^(-s/rate)).
			avg := float64(r.AllocBytes) / objects
			objects /= 1 - math.Exp(-avg/rate)
		}
		out[stackLayer(r.Stack())] += objects
	}
	return out
}

// stackLayer returns the innermost layer on the stack, or "other". Helper
// packages that are not layers (the runtime seam's timers, rng, stream) are
// walked through to the layer that called them.
func stackLayer(stack []uintptr) string {
	const prefix = "lifting/internal/"
	frames := gort.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, prefix); ok {
			if pkg := rest[:strings.IndexAny(rest+".", "./")]; pkg != "other" && slices.Contains(allocLayers, pkg) {
				return pkg
			}
		}
		if !more {
			return "other"
		}
	}
}

// allocShares turns two allocsByLayer readings into each layer's percentage
// of the objects allocated in between.
func allocShares(before, after map[string]float64) map[string]float64 {
	delta := make(map[string]float64, len(allocLayers))
	total := 0.0
	for _, l := range allocLayers {
		d := math.Max(after[l]-before[l], 0)
		delta[l] = d
		total += d
	}
	for l, d := range delta {
		if total > 0 {
			delta[l] = 100 * d / total
		}
	}
	return delta
}

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// heapLiveMB is the heap still reachable after a full collection.
func heapLiveMB() float64 {
	gort.GC()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// profiles writes a workload's CPU and allocation profiles under outDir, so
// the next performance change starts from a profile and not from a guess.
type profiles struct {
	dir string
	cpu *os.File
}

func startProfiles(outDir, workload string) (*profiles, error) {
	dir := filepath.Join(outDir, workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace artifacts: %w", err)
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("trace artifacts: %w", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, fmt.Errorf("trace artifacts: %w", err)
	}
	return &profiles{dir: dir, cpu: cpu}, nil
}

// stopCPU ends the CPU profile; call it right after the timed region.
func (p *profiles) stopCPU() error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return fmt.Errorf("trace artifacts: %w", err)
	}
	return nil
}

// finish writes heap.pprof (allocations since process start) and spans.json.
func (p *profiles) finish(spans any) error {
	heap, err := os.Create(filepath.Join(p.dir, "heap.pprof"))
	if err != nil {
		return fmt.Errorf("trace artifacts: %w", err)
	}
	if err := pprof.Lookup("allocs").WriteTo(heap, 0); err != nil {
		heap.Close()
		return fmt.Errorf("trace artifacts: %w", err)
	}
	if err := heap.Close(); err != nil {
		return fmt.Errorf("trace artifacts: %w", err)
	}
	b, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return fmt.Errorf("trace artifacts: %w", err)
	}
	if err := os.WriteFile(filepath.Join(p.dir, "spans.json"), append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace artifacts: %w", err)
	}
	return nil
}
