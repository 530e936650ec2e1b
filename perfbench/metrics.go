package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (metrics_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
	// moves is the end-to-end metric a change in this layer should move;
	// exercised and bypassed name a workload that runs the layer and one
	// that does not (per-layer metrics only).
	moves, exercised, bypassed string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "ops/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "latency_tail_ms", unit: "ms", better: "lower"},
	{name: "ok_ratio", unit: "ratio", better: "higher"},
	{name: "cost_ratio", unit: "ratio", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "live_heap_mb", unit: "MB", better: "lower"},
}

const (
	p50Thr  = "latency_p50_ms, throughput_ops_s"
	thrP90  = "throughput_ops_s, latency_p90_ms"
	p50Heap = "latency_p50_ms, live_heap_mb"
)

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"server.roundtrip_ms", "ms", "lower", p50Thr, serveHot, solveLarge},
	{"server.unaccounted_ms", "ms", "lower", p50Thr, serveHot, solveLarge},
	{"wire.decode_ms", "ms", "lower", p50Thr, serveHot, solveLarge},
	{"wire.decode_allocs", "allocs", "lower", p50Thr, serveHot, solveLarge},
	{"wire.request_kb", "KiB", "lower", p50Thr, serveHot, solveLarge},
	{"wire.encode_ms", "ms", "lower", p50Thr, serveHot, solveLarge},
	{"wire.encode_allocs", "allocs", "lower", p50Thr, serveHot, solveLarge},
	{"wire.response_kb", "KiB", "lower", p50Thr, serveHot, solveLarge},
	{"schedule.export_ms", "ms", "lower", "latency_p50_ms", serveHot, solveLarge},
	{"schedule.export_allocs", "allocs", "lower", "latency_p50_ms", serveHot, solveLarge},
	{"dag.fingerprint_ms", "ms", "lower", "latency_p50_ms", serveHot, solveLarge},
	{"dag.fingerprint_allocs", "allocs", "lower", "latency_p50_ms", serveHot, solveLarge},
	{"solver.plan_ms", "ms", "lower", p50Heap, serveHot, solveLarge},
	{"solver.supply_ms", "ms", "lower", p50Heap, serveHot, solveLarge},
	{"solver.cache_ms", "ms", "lower", p50Heap, serveHot, solveLarge},
	{"solver.coalesce_ms", "ms", "lower", p50Heap, serveHot, solveLarge},
	{"solver.solve_allocs", "allocs", "lower", p50Heap, serveHot, solveLarge},
	{"solver.plan_hit_ratio", "ratio", "higher", p50Heap, serveHot, solveLarge},
	{"solver.solve_hit_ratio", "ratio", "higher", p50Heap, serveHot, solveLarge},
	{"solver.coalesced_ratio", "ratio", "higher", p50Heap, serveHot, solveLarge},
	{"solver.contention_per_op", "count/op", "lower", p50Heap, serveHot, solveLarge},
	{"platform.cluster_build_ms", "ms", "lower", thrP90 + ", setup_s", solveLarge, serveHot},
	{"platform.link_procs", "count", "lower", thrP90 + ", setup_s", solveLarge, serveHot},
	{"heft.schedule_ms", "ms", "lower", thrP90 + ", setup_s", solveLarge, serveHot},
	{"ceg.build_ms", "ms", "lower", thrP90 + ", setup_s", solveLarge, serveHot},
	{"greenheft.map_ms", "ms", "lower", "latency_p90_ms", serveCold, serveHot},
	{"core.greedy_ms", "ms", "lower", p50Thr, serveCold, serveHot},
	{"core.local_search_ms", "ms", "lower", p50Thr, serveCold, serveHot},
	{"core.ls_rounds", "count/op", "lower", p50Thr, serveCold, serveHot},
	{"core.ls_moves", "count/op", "lower", p50Thr, serveCold, serveHot},
	{"core.ls_scans", "count/op", "lower", p50Thr, serveCold, serveHot},
	{"core.cost_ratio", "ratio", "lower", "cost_ratio", serveCold, serveHot},
	{"solver.schedule_ms", "ms", "lower", p50Thr, serveCold, serveHot},
	{"tier.gets_per_op", "count/op", "lower", p50Heap, fleetTier, serveHot},
	{"tier.hit_ratio", "ratio", "higher", p50Heap, fleetTier, serveHot},
	{"tier.errors", "count", "lower", p50Heap, fleetTier, serveHot},
	{"tier.timeouts", "count", "lower", p50Heap, fleetTier, serveHot},
	{"tier.put_drops", "count", "lower", p50Heap, fleetTier, serveHot},
	{"solver.tier_ms", "ms", "lower", p50Heap, fleetTier, serveHot},
	{"runtime.allocs_per_op", "allocs/op", "lower", "throughput_ops_s", solveLarge, ""},
	{"runtime.alloc_kb_per_op", "KiB/op", "lower", "throughput_ops_s", solveLarge, ""},
	{"runtime.gc_cpu_share", "ratio", "lower", "throughput_ops_s", solveLarge, ""},
	{"trace.overhead_ratio", "ratio", "lower", "", serveHot, ""},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for defs from values; it panics on a
// missing value, which only a bug in the run code can cause.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("perfbench: no value for metric " + d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}
