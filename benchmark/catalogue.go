package main

// metricDef names one metric. BENCHMARK.json at the repository root repeats
// the two lists below with their directions and bounds; the smoke test keeps
// the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, so each is defined by what it means to the workload's
// user (see README.md for the per-workload definitions):
// a "chunk" is a chunk reaching a consumer — a first delivery to a node on
// the cluster workloads, a verified HTTP response on gateway_edge.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"allocs_per_chunk", "count"},
	{"peak_rss_mb", "MB"},
	{"chunks_per_s", "1/s"},
	{"lag_mean_ms", "ms"},
}

// perLayer are the traced pass's metrics, one group per package under
// internal/. A layer that does no work in a workload reads 0 there.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.shards", "count"},
	{"sim.outside_handlers_cpu_s", "s"},
	{"sim.shard_speedup", "x"},
	{"sim.event_ns", "ns"},
	{"sim.sharded_event_ns", "ns"},

	{"net.msgs_sent", "count"},
	{"net.msgs_dropped", "count"},
	{"net.bytes_sent", "B"},
	{"net.send_deliver_ns", "ns"},
	{"net.send_deliver_allocs", "count"},

	{"gossip.handle_cpu_s", "s"},
	{"gossip.handle_calls", "count"},
	{"gossip.handle_ns_per_call", "ns"},
	{"gossip.useful_chunks", "count"},
	{"gossip.dup_chunk_ratio", "ratio"},
	{"gossip.serve_mean_ms", "ms"},
	{"gossip.serve_over_25ms_pct", "%"},
	{"gossip.missed_chunk_pct", "%"},

	{"core.handle_cpu_s", "s"},
	{"core.handle_calls", "count"},
	{"core.handle_ns_per_call", "ns"},
	{"core.confirm_ns_per_call", "ns"},
	{"core.blames_issued", "count"},
	{"core.verif_overhead_pct", "%"},

	{"reputation.handle_cpu_s", "s"},
	{"reputation.handle_calls", "count"},
	{"reputation.handle_ns_per_call", "ns"},
	{"reputation.handoffs", "count"},
	{"reputation.max_tracked_per_manager", "count"},
	{"reputation.detect_mean_s", "s"},
	{"reputation.flush_ns_per_blame", "ns"},

	{"membership.epochs", "count"},
	{"membership.managers_hit_ns", "ns"},
	{"membership.managers_miss_ns", "ns"},

	{"msg.encode_ns", "ns"},
	{"msg.decode_ns", "ns"},
	{"msg.decode_allocs", "count"},
	{"msg.serve_encode_ns", "ns"},
	{"msg.serve_decode_ns", "ns"},
	{"msg.frame_roundtrip_ns", "ns"},

	{"transport.outside_handlers_cpu_s", "s"},
	{"transport.cpu_us_per_msg", "us"},
	{"transport.allocs_per_msg", "count"},
	{"transport.msgs_sent", "count"},
	{"transport.msgs_dropped", "count"},
	{"transport.pingpong_us", "us"},
	{"transport.flood_msgs_per_s", "1/s"},
	{"transport.fragment_roundtrip_us", "us"},

	{"content.hash_ns_per_kb", "ns"},
	{"content.store_putget_ns", "ns"},

	{"gateway.cache_hit_ratio", "ratio"},
	{"gateway.upstream_ratio", "ratio"},
	{"gateway.bytes_served", "B"},
	{"gateway.cpu_us_per_req", "us"},
	{"gateway.req_p50_us", "us"},
	{"gateway.req_p95_us", "us"},
	{"gateway.req_p99_us", "us"},
	{"gateway.handler_hit_ns", "ns"},
	{"gateway.origin_miss_ns", "ns"},

	{"metrics.onsend_ns", "ns"},
	{"stats.entropy_ns", "ns"},

	{"sim.alloc_pct", "%"},
	{"net.alloc_pct", "%"},
	{"msg.alloc_pct", "%"},
	{"gossip.alloc_pct", "%"},
	{"core.alloc_pct", "%"},
	{"history.alloc_pct", "%"},
	{"reputation.alloc_pct", "%"},
	{"membership.alloc_pct", "%"},
	{"metrics.alloc_pct", "%"},
	{"content.alloc_pct", "%"},
	{"cluster.alloc_pct", "%"},
	{"transport.alloc_pct", "%"},
	{"gateway.alloc_pct", "%"},
	{"other.alloc_pct", "%"},

	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_live_mb", "MB"},
	{"trace.overhead_pct", "%"},
}
