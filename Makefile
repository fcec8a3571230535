# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: test race benchmark allocs profile heap fuzz fmt vet lint identical size pairs

test:
	$(GO) build ./...
	$(GO) test -shuffle=on -timeout 600s ./...

# Static gates: formatting, go vet, and the lint suite (cmd/lifting-lint)
# that mechanically enforces the byte-identical document contract —
# wall-clock reads, global rand, unordered map iteration and
# float/time-typed document fields — and keeps orphan packages, functions and
# methods only their tests call, and fields only their tests set, from growing
# back (no-orphan), as it keeps knobs nobody turns: fields and parameters the
# product only ever sets to one constant (one-value; see DESIGN.md).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/lifting-lint ./...

# The concurrent half of the runtime seam (the UDP transport, whose receive
# loops each own a decoder that hands out memory other goroutines keep, and
# the cluster assembled on it) under the race detector, plus the reputation
# substrate (manager boards are hit from node goroutines while the harness
# ticks periods and tracks, drops and queues handoffs of the targets a
# membership change moves; each manager sends its Handoffs on its own
# node's goroutine), the membership directory (the
# cached manager assignment is read from every node goroutine while
# churn mutates the view), the discrete-event engine (node events run on
# shard goroutines inside lookahead windows — its one layout, whatever the
# shard count — each node's period duty and blame flush among them, and
# cross shards by value, through outboxes the coordinator merges at the
# barrier), the metrics collector (striped atomic counters
# hammered from sender goroutines while scrapers take snapshots, one per
# /metrics scrape), the content plane (chunk stores and the HTTP gateway
# serve shared payload slices to concurrent readers), gossip (its serve path
# is where shard goroutines meet the verified-once table a sim cluster's
# nodes share), obs (its scrape and status callbacks run on HTTP handler
# goroutines, concurrently with the node) and the lifting-node daemon's
# in-process runs, whose /status reads the cluster from those goroutines —
# one across a -soak crash and restart of its own node, which takes the
# manager /status reads away and builds a fresh one (its subprocess tests
# stay out). ci.yml's race step points here.
race:
	$(GO) test -race -timeout 600s ./internal/cluster/ ./internal/transport/ ./internal/reputation/ ./internal/membership/ ./internal/sim/ ./internal/metrics/ ./internal/content/ ./internal/gateway/ ./internal/gossip/ ./internal/obs/
	$(GO) test -race -run '^TestRun' ./cmd/lifting-node/

# The whole-system benchmark every perf or simplicity PR is judged by
# (BENCHMARK.json, benchmark/README.md): four workloads, end-to-end metrics.
benchmark:
	$(GO) run ./benchmark

# The allocation ceiling: one untraced pass each of sim_churn and sim_scale
# (~1 min in all), whose allocs_per_chunk — a count that repeats exactly for
# a seed — must not exceed its ceiling. It reads the result line the
# benchmark prints last (needs jq). sim_scale measured 0.65 on Go 1.24 once
# every message a node sends was carved from send blocks (1.98 before), 0.52
# once partner lists were too, and 0.37 once a shard's set of send blocks
# took blocks 64 times a one-node set's and a window stopped allocating its
# dispatch (0.52 before): ALLOCS_CEILING, 0.45, sits below the old cost, so
# a return to 16-struct shard blocks fails, and above the new one by the
# room Go releases take in what their maps allocate. sim_churn has a
# ceiling of its own, CHURN_ALLOCS_CEILING: it measured 0.25 once manager
# sets outlived the membership changes that leave them alone (0.58 while
# every change threw the whole manager cache away), and 0.17 with a shard's
# larger send blocks — so 0.21 fails a return to either. wire_udp (20 s of
# wall clock more) has one too, WIRE_ALLOCS_CEILING: its count varies a few
# per cent run to run, and it measured 0.47 with one wire clock, 0.55 with a
# clock per node and 0.93 before send blocks — so a clock or send-path
# change that brings back per-message allocations fails.
ALLOCS_CEILING = 0.45
CHURN_ALLOCS_CEILING = 0.21
WIRE_ALLOCS_CEILING = 0.8
allocs:
	@set -e; for spec in sim_churn:$(CHURN_ALLOCS_CEILING) sim_scale:$(ALLOCS_CEILING) wire_udp:$(WIRE_ALLOCS_CEILING); do \
		w=$${spec%%:*}; max=$${spec#*:}; \
		out=$$($(GO) run ./benchmark -workload $$w -seed 23 -seconds 20 -trace 0); \
		v=$$(printf '%s\n' "$$out" | tail -n 1 | jq '.metrics.allocs_per_chunk.value'); \
		echo "$$w allocs_per_chunk $$v (ceiling $$max)"; \
		printf '%s\n' "$$out" | tail -n 1 | jq -e --argjson max $$max \
			'.metrics.allocs_per_chunk.value | type == "number" and . <= $$max' > /dev/null \
			|| { echo "allocs: $$w allocates $$v per chunk, over the ceiling $$max"; exit 1; }; \
	done

# Where a workload's CPU and allocations go (sim_scale unless WORKLOAD names
# another, e.g. `make profile WORKLOAD=wire_udp`): its traced pass (per-layer
# metrics, and profiles under benchmark/out/$(WORKLOAD)/), then the top of
# the CPU profile and the top allocation sites by object count.
WORKLOAD ?= sim_scale
profile:
	$(GO) run ./benchmark -workload $(WORKLOAD) -trace 1
	$(GO) tool pprof -top -nodecount 30 benchmark/out/$(WORKLOAD)/cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_objects benchmark/out/$(WORKLOAD)/heap.pprof

# Where a node's bytes are: TestBytesPerNode's cluster (sim_scale's shape at
# n = 500, streamed past nh periods so every log is full), profiled while it
# is alive — the test parks it in a package variable, so the profile `go test`
# writes at exit still sees it. benchmark/out/sim_scale/heap.pprof cannot
# answer this: it is written after the probes, when the cluster is long gone.
heap:
	$(GO) test -run '^TestBytesPerNode$$' -count=1 -v -o cluster.test -memprofile cluster-heap.pprof -memprofilerate 4096 ./internal/cluster/
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount 25 cluster.test cluster-heap.pprof

# Extended fuzzing of the network-facing decoder and fragment reassembler,
# the gateway's edge cache (hostile ids against its bound and index), of
# the engine's event queue and the wire clock's deadline heap against their
# reference models, of the udp outbox against the datagram model's groups,
# of the datagram model and the sim's delivery of its groups against a
# model of the rule, of the link model against the inline code it replaced,
# and of the manager cache under churn against the from-scratch assignment
# (the committed seed corpora replay on every plain `go test`). ci.yml's
# pull-request fuzz step names the same targets, for 20 s each.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 60s ./internal/msg/
	$(GO) test -run '^$$' -fuzz FuzzReassembly -fuzztime 60s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzEdgeCache -fuzztime 60s ./internal/gateway/
	$(GO) test -run '^$$' -fuzz FuzzQueueOrder -fuzztime 60s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzClockOrder -fuzztime 60s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzOutbox -fuzztime 60s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzGrouping -fuzztime 60s ./internal/net/
	$(GO) test -run '^$$' -fuzz FuzzLinkModel -fuzztime 60s ./internal/net/
	$(GO) test -run '^$$' -fuzz FuzzManagers -fuzztime 60s ./internal/membership/

# The identity check every refactor of the seeded path runs: lifting-sim built
# at BASE (a `git archive` of that revision in a temporary directory — nothing
# is written to the repository or its .git) and at the working tree, the
# standing set of seeded documents run on both, `cmp`ed pair by pair. A
# document that differs prints how many cells moved in each experiment, then
# lists every scalar that does — experiment, JSON path, the column of a table
# cell, old → new (JSONDIFF, a jq program) — so "only scale's events cells
# moved" is this command's output. The last document is the full-size `all`
# (every experiment at paper scale): ~4 min in all on 2 cores.
define JSONDIFF
[($$a[0] | [paths(scalars)]) + ($$b[0] | [paths(scalars)]) | unique | .[] as $$p
| (try ($$a[0] | getpath($$p)) catch null) as $$old
| (try ($$b[0] | getpath($$p)) catch null) as $$new
| select($$old != $$new)
| {p: $$p, old: $$old, new: $$new,
   exp: (if $$p[0] == "results" then $$b[0].results[$$p[1]].experiment // "?" else null end)}]
| ("  moved cells: \(group_by(.exp) | map("\(.[0].exp // "(document)") \(length)") | join(", ")) (\(length) in all)"),
  (.[] | .p as $$p
   | (if .exp != null then "\(.exp): " else "" end) as $$exp
   | (if ($$p | length) == 7 and $$p[2] == "tables" and $$p[4] == "rows"
      then " (\(try ($$b[0] | getpath($$p[0:4] + ["columns", $$p[6]])) catch "?"))" else "" end) as $$col
   | "    \($$exp)\($$p | map(tostring) | join("."))\($$col)  \(.old | tojson) → \(.new | tojson)")
endef
export JSONDIFF
BASE ?= HEAD
identical:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" "$$tmp/base" "$$tmp/work"; \
	git archive $(BASE) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/base/lifting-sim" ./cmd/lifting-sim); \
	$(GO) build -o "$$tmp/work/lifting-sim" ./cmd/lifting-sim; \
	fail=0; \
	for spec in \
		"all-quick: all -quick" \
		"scale-shards0: scale -n 1000 -seed 7 -shards 0" \
		"scale-shards1: scale -n 1000 -seed 7 -shards 1" \
		"scale-shards2: scale -n 1000 -seed 7 -shards 2" \
		"scale-shards8: scale -n 1000 -seed 7 -shards 8" \
		"churn-shards1: churn -backend sim -shards 1" \
		"churn-shards8: churn -backend sim -shards 8" \
		"soak-shards1: soak -quick -backend sim -shards 1" \
		"soak-shards8: soak -quick -backend sim -shards 8" \
		"soak-full: soak -backend sim -shards 8" \
		"matrix: matrix -quick -backend sim" \
		"all-full: all"; do \
		name=$${spec%%:*}; args=$${spec#*:}; \
		for side in base work; do \
			"$$tmp/$$side/lifting-sim" $$args -json > "$$tmp/$$side/$$name.json" 2> "$$tmp/$$side/$$name.err" || true; \
			[ -s "$$tmp/$$side/$$name.json" ] || { echo "NO DOCUMENT from $$side for:$$args"; cat "$$tmp/$$side/$$name.err"; exit 1; }; \
		done; \
		if cmp -s "$$tmp/base/$$name.json" "$$tmp/work/$$name.json"; then \
			echo "identical $$name ($$(wc -c < "$$tmp/work/$$name.json" | tr -d ' ') bytes):$$args"; \
		else \
			echo "DIFFERS   $$name:$$args"; \
			jq -rn --slurpfile a "$$tmp/base/$$name.json" --slurpfile b "$$tmp/work/$$name.json" "$$JSONDIFF"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then echo "identical: documents differ from $(BASE)"; exit 1; fi; \
	echo "identical: every document byte-equal to $(BASE)'s"

# The table a claimed gain is judged by (ROADMAP's claim rule): the benchmark
# built at BASE (a `git archive` in a temporary directory, as `identical`
# takes it) and at the working tree, and N alternating pairs of one untraced
# pass each, `-workload $(WORKLOAD) -seed $(SEED) -seconds 20 -trace 0`,
# base first in odd pairs and the working tree first in even ones. It prints
# every run as it ends (its end-to-end metrics and sim digest), then for each
# end-to-end metric of BENCHMARK.json each side's median and quartiles, the
# change of the medians, how many pairs the working tree won (by the
# metric's direction; a tie wins nothing) and whether the medians are further
# apart than the base's interquartile range. Nothing is written to the
# repository. e.g. `make pairs BASE=HEAD~1 WORKLOAD=sim_scale N=10`.
N ?= 10
SEED ?= 23
define PAIRSTABLE
def q($$p): sort as $$s | ($$s | length) as $$n | (($$n - 1) * $$p) as $$x | ($$x | floor) as $$i
  | $$s[$$i] + ($$s[[$$i + 1, $$n - 1] | min] - $$s[$$i]) * ($$x - $$i);
def r: if . == null then "-" else (. * 10000 | round) / 10000 | tostring end;
. as $$runs
| ($$runs | map(.pair) | max) as $$pairs
| "metric  base median [q1, q3]  →  work median [q1, q3]  change  wins  gap > base IQR",
  ($$bench[0].end_to_end[] as $$e
   | [$$runs[] | select(.side == "base") | .m[$$e.name] | select(. != null)] as $$b
   | [$$runs[] | select(.side == "work") | .m[$$e.name] | select(. != null)] as $$w
   | select(($$b | length) > 0 and ($$w | length) > 0)
   | [range(1; $$pairs + 1) as $$p
      | ([$$runs[] | select(.pair == $$p and .side == "base") | .m[$$e.name]][0]) as $$x
      | ([$$runs[] | select(.pair == $$p and .side == "work") | .m[$$e.name]][0]) as $$y
      | select($$x != null and $$y != null)
      | if $$e.better == "lower" then $$y < $$x else $$y > $$x end
      | select(.)] as $$won
   | ($$b | q(0.5)) as $$bm | ($$w | q(0.5)) as $$wm
   | (($$b | q(0.75)) - ($$b | q(0.25))) as $$iqr
   | "\($$e.name | .+ "                    " | .[:18])  \($$bm | r) [\($$b | q(0.25) | r), \($$b | q(0.75) | r)]"
     + "  →  \($$wm | r) [\($$w | q(0.25) | r), \($$w | q(0.75) | r)]"
     + "  \(if $$bm == 0 then "-" else (($$wm - $$bm) / $$bm * 1000 | round) / 10 | tostring + "%" end)"
     + "  \($$won | length)/\($$pairs) won"
     + "  \(if ($$wm - $$bm | fabs) > $$iqr and (if $$e.better == "lower" then $$wm < $$bm else $$wm > $$bm end) then "yes" else "no" end)")
endef
export PAIRSTABLE
pairs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; \
	git archive $(BASE) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/base.bench" ./benchmark); \
	$(GO) build -o "$$tmp/work.bench" ./benchmark; \
	echo "pairs: $(N) of -workload $(WORKLOAD) -seed $(SEED), base $(BASE) against the working tree"; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base work"; else order="work base"; fi; \
		for side in $$order; do \
			"$$tmp/$$side.bench" -workload $(WORKLOAD) -seed $(SEED) -seconds 20 -trace 0 > "$$tmp/out" 2>&1 \
				|| { cat "$$tmp/out"; echo "pairs: the $$side run of pair $$i failed"; exit 1; }; \
			digest=$$(sed -n 's/^sim_digest: //p' "$$tmp/out"); \
			tail -n 1 "$$tmp/out" | jq -c --arg side $$side --argjson pair $$i \
				'{pair: $$pair, side: $$side, failed: .failed, m: (.metrics | map_values(.value))}' >> "$$tmp/runs.jsonl"; \
			tail -n 1 "$$tmp/runs.jsonl" | jq -r --arg digest "$$digest" \
				'"pair \(.pair) \(.side)  " + ([.m | to_entries[] | "\(.key)=\(.value)"] | join(" ")) + "  failed=\(.failed)" + (if $$digest == "" then "" else "  sim_digest=\($$digest)" end)'; \
		done; \
	done; \
	jq -rs --slurpfile bench BENCHMARK.json "$$PAIRSTABLE" "$$tmp/runs.jsonl"

# The figures a simplicity PR and a re-anchor quote: non-test Go lines outside
# benchmark/ and outside testdata/ (lint fixtures are not product), per
# package directory and in total, and how many //lint:allow escapes those
# files carry. With BASE=<rev> on the command line it counts the
# same at BASE too (a `git archive` in a temporary directory, as `identical`
# takes it) and prints base, working tree and difference for every package
# that differs, the total and the allows.
SIZE_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*'
SIZE_LINES = $(SIZE_FILES) -exec wc -l {} + \
	| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); print d, $$1 }'
SIZE_ALLOWS = $(SIZE_FILES) -exec grep -c '//lint:allow' {} + \
	| awk -F: '{ s += $$NF } END { print s }'
size:
ifeq ($(origin BASE),file)
	@$(SIZE_LINES) | awk '{ n[$$1] += $$2; t += $$2 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%6d non-test Go lines outside benchmark/ and testdata/\n", t }'
	@printf '%6d //lint:allow in them\n' $$($(SIZE_ALLOWS))
else
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	git archive $(BASE) | tar -x -C "$$tmp"; \
	echo "  base   work  delta (base $(BASE), work = working tree)"; \
	{ (cd "$$tmp" && $(SIZE_LINES)) | sed 's/^/base /'; $(SIZE_LINES) | sed 's/^/work /'; } \
		| awk '{ n[$$1, $$2] += $$3; d[$$2] = 1; t[$$1] += $$3 } \
		END { for (p in d) if (n["base", p] != n["work", p]) \
			printf "%6d %6d %+6d %s\n", n["base", p], n["work", p], n["work", p] - n["base", p], p | "sort -k4"; \
		close("sort -k4"); \
		printf "%6d %6d %+6d non-test Go lines outside benchmark/ and testdata/\n", t["base"], t["work"], t["work"] - t["base"] }'; \
	base=$$(cd "$$tmp" && $(SIZE_ALLOWS)); work=$$($(SIZE_ALLOWS)); \
	printf '%6d %6d %+6d //lint:allow in them\n' $$base $$work $$((work - base))
endif

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
