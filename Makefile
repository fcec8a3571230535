# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: test race benchmark profile heap fuzz fmt vet lint

test:
	$(GO) build ./...
	$(GO) test -shuffle=on -timeout 600s ./...

# Static gates: formatting, go vet, and the lint suite (cmd/lifting-lint)
# that mechanically enforces the byte-identical document contract —
# wall-clock reads, global rand, unordered map iteration and
# float/time-typed document fields — and keeps orphan packages and
# functions only their tests call from growing back (see DESIGN.md).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/lifting-lint ./...

# The concurrent half of the runtime seam (the UDP transport and the cluster
# assembled on it) under the race detector, plus the reputation substrate
# (manager boards are hit from node goroutines while the harness ticks
# periods and hands state off), the discrete-event engine (node events run
# on shard goroutines inside lookahead windows — its one layout, whatever the
# shard count — and cross shards by value, through outboxes the coordinator
# merges at the barrier), the metrics collector (striped atomic counters
# hammered from sender goroutines, a first-seen node's slot installed in
# place under them, while scrapers render the exposition) and the content
# plane (chunk stores and the HTTP gateway serve shared payload slices to
# concurrent readers).
race:
	$(GO) test -race -timeout 600s ./internal/cluster/ ./internal/transport/ ./internal/reputation/ ./internal/membership/ ./internal/sim/ ./internal/metrics/ ./internal/content/ ./internal/gateway/

# The whole-system benchmark every perf or simplicity PR is judged by
# (BENCHMARK.json, benchmark/README.md): four workloads, end-to-end metrics.
benchmark:
	$(GO) run ./benchmark

# Where sim_scale's CPU and allocations go: its traced pass (per-layer
# metrics, and profiles under benchmark/out/sim_scale/), then the top of the
# CPU profile and the top allocation sites by object count.
profile:
	$(GO) run ./benchmark -workload sim_scale -trace 1
	$(GO) tool pprof -top -nodecount 30 benchmark/out/sim_scale/cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_objects benchmark/out/sim_scale/heap.pprof

# Where a node's bytes are: TestBytesPerNode's cluster (sim_scale's shape at
# n = 500, streamed past nh periods so every log is full), profiled while it
# is alive — the test parks it in a package variable, so the profile `go test`
# writes at exit still sees it. benchmark/out/sim_scale/heap.pprof cannot
# answer this: it is written after the probes, when the cluster is long gone.
heap:
	$(GO) test -run '^TestBytesPerNode$$' -count=1 -v -o cluster.test -memprofile cluster-heap.pprof -memprofilerate 4096 ./internal/cluster/
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount 25 cluster.test cluster-heap.pprof

# Extended fuzzing of the network-facing decoder and of the engine's event
# queue against a sorted reference (the committed seed corpora replay on
# every plain `go test`).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 60s ./internal/msg/
	$(GO) test -run '^$$' -fuzz FuzzQueueOrder -fuzztime 60s ./internal/sim/

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
