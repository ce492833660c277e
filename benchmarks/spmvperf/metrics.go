package main

// The benchmark's schema: the workloads and every metric a run emits.
// BENCHMARK.json at the root of the repository is this table rendered
// by -schema; the self-test fails when the two drift apart.

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none. Exact marks a
// count that repeats exactly for one seed, so -compare demands equality.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// workloadDef declares one workload by name with the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

const (
	lower  = "lower"
	higher = "higher"
)

// workloadDefs lists the four regime workloads. Each run drives the
// library entry points on the workload's own matrix and the daemon
// routes on the RMAT serving fixture (see README.md for why both halves
// run everywhere).
var workloadDefs = []workloadDef{
	{"er_merge", "ErdosRenyi(1M, deg 3), default engine: intermediate records ~ nnz, so presort + merge dominate a warm SpMV"},
	{"zipf_step1", "Zipf(1M, deg 8, s 1.8) with VLDI(8) + HDN(500) + Workers 2: heavy rows fold in step 1, so step 1 and planning dominate"},
	{"hyper_dim", "ErdosRenyi(8M, deg 0.125), default engine: dimension far above nnz, a 245-way merge with no accumulation, dimension-proportional drain costs"},
	{"serve_rmat", "RMAT(17, 8) Graph500 behind the in-process daemon with spmvd's defaults: JSON + HTTP dominate a round trip; skewed stripes"},
}

// endToEnd lists what a user of the library or the daemon sees. Every
// workload emits every one of them from an untraced run. SpMSpV is not
// among them: on hyper_dim the call is two passes of zeroing over a 64 MB
// result and little else, which this sandbox runs at anything between 10
// and 22 ms from one process to the next, so it is core.spmspv_ms of the
// traced run (see README.md, "One metric is demoted").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "spmv_oneshot_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "spmv_warm_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "iterate_ms_per_iter", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "iterate_its_ms_per_iter", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "pagerank_ms_per_iter", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "block4_ms_per_rhs", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "oneshot_alloc_mb", Unit: "MB", Better: lower, Bound: 0.05},
	{Name: "serve_spmv_rps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "serve_spmv_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "serve_spmv_p90_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "serve_batched_rps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "serve_batched_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
}

// perLayer lists the single-layer metrics of the traced run, named
// <module>.<metric>. Timings are taken from outside the layer, by
// calling its public functions on the workload's real data, or from the
// engine's Recorder lanes.
var perLayer = []metricDef{
	{Name: "graph.generate_s", Unit: "s", Better: lower},
	{Name: "matrix.partition1d_ms", Unit: "ms", Better: lower},
	{Name: "matrix.partition1d_ns_per_nnz", Unit: "ns", Better: lower},
	{Name: "matrix.partition1d_alloc_mb", Unit: "MB", Better: lower},
	{Name: "matrix.stripes", Unit: "count", Better: lower, Exact: true},
	{Name: "matrix.to_csr_ms", Unit: "ms", Better: lower},

	{Name: "hdn.build_ms", Unit: "ms", Better: lower},
	{Name: "hdn.routed_records", Unit: "count", Better: higher, Exact: true},
	{Name: "hdn.filter_kb", Unit: "KB", Better: lower, Exact: true},

	{Name: "core.plan_ms", Unit: "ms", Better: lower},
	{Name: "core.spmv_stripes_ms", Unit: "ms", Better: lower},
	{Name: "core.step1_wall_ms", Unit: "ms", Better: lower},
	{Name: "core.step1_busy_ms", Unit: "ms", Better: lower},
	{Name: "core.step1_ns_per_nnz", Unit: "ns", Better: lower},
	{Name: "core.step2_wall_ms", Unit: "ms", Better: lower},
	{Name: "core.step2_other_ms", Unit: "ms", Better: lower},
	{Name: "core.workers_speedup", Unit: "x", Better: higher},
	{Name: "core.its_ratio", Unit: "x", Better: lower},
	{Name: "core.warm_allocs_per_op", Unit: "count", Better: lower},
	{Name: "core.warm_alloc_kb_per_op", Unit: "KB", Better: lower},
	{Name: "core.iterate_allocs_per_iter", Unit: "count", Better: lower},
	{Name: "core.products", Unit: "count", Better: lower, Exact: true},
	{Name: "core.intermediate_records", Unit: "count", Better: lower, Exact: true},
	{Name: "core.injected_ratio", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.stripe_imbalance", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.ledger_bytes_per_nnz", Unit: "B", Better: lower, Exact: true},
	{Name: "core.pagerank_iters", Unit: "count", Better: lower, Exact: true},
	{Name: "core.spmspv_ms", Unit: "ms", Better: lower},
	{Name: "core.spmspv_segments_active", Unit: "count", Better: lower, Exact: true},

	{Name: "vldi.encode_ns_per_delta", Unit: "ns", Better: lower},
	{Name: "vldi.decode_ns_per_delta", Unit: "ns", Better: lower},
	{Name: "vldi.size_ns_per_delta", Unit: "ns", Better: lower},
	{Name: "vldi.roundtrip_ns_per_rec", Unit: "ns", Better: lower},
	{Name: "vldi.bits_per_delta", Unit: "bits", Better: lower, Exact: true},

	{Name: "bitonic.sortwith_ns_per_rec", Unit: "ns", Better: lower},
	{Name: "bitonic.comparators", Unit: "count", Better: lower, Exact: true},

	{Name: "merge.losertree_ns_per_rec", Unit: "ns", Better: lower},
	{Name: "merge.mergepath_ns_per_rec", Unit: "ns", Better: lower},
	{Name: "merge.heap_ns_per_rec", Unit: "ns", Better: lower},
	{Name: "merge.ways", Unit: "count", Better: lower, Exact: true},
	{Name: "merge.accumulate_ratio", Unit: "ratio", Better: lower, Exact: true},

	{Name: "prap.presort_wall_ms", Unit: "ms", Better: lower},
	{Name: "prap.merge_wall_ms", Unit: "ms", Better: lower},
	{Name: "prap.merge_into_ms", Unit: "ms", Better: lower},
	{Name: "prap.merge_into_ns_per_rec", Unit: "ns", Better: lower},
	{Name: "prap.merge_into_dense_ms", Unit: "ms", Better: lower},
	{Name: "prap.merge_into_sparse_ms", Unit: "ms", Better: lower},
	{Name: "prap.merge_into_mergepath_ms", Unit: "ms", Better: lower},
	{Name: "prap.merge_workers_speedup", Unit: "x", Better: higher},
	{Name: "prap.merge_into_allocs", Unit: "count", Better: lower},
	{Name: "prap.load_imbalance", Unit: "ratio", Better: lower, Exact: true},

	{Name: "serve.pool_do_spmv_ms", Unit: "ms", Better: lower},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: lower},
	{Name: "serve.batch_occupancy", Unit: "ratio", Better: higher},
	{Name: "serve.flushes", Unit: "count", Better: lower},
	{Name: "serve.rejected_429", Unit: "count", Better: lower},
	{Name: "serve.rejected_503", Unit: "count", Better: lower},
	{Name: "serve.pagerank_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.spmspv_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.iterate_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.mixed_spmv_p90_ms", Unit: "ms", Better: lower},
	{Name: "serve.mixed_rps", Unit: "1/s", Better: higher},
	{Name: "serve.metrics_scrape_ms", Unit: "ms", Better: lower},
	{Name: "serve.ledger_matches", Unit: "count", Better: higher, Exact: true},

	{Name: "baseline.reference_ms", Unit: "ms", Better: lower},
	{Name: "baseline.csr_ms", Unit: "ms", Better: lower},
	{Name: "baseline.csr_par_ms", Unit: "ms", Better: lower},
	{Name: "baseline.mergecsr_ms", Unit: "ms", Better: lower},
	{Name: "baseline.gap_vs_csr", Unit: "x", Better: lower},
	{Name: "baseline.gap_oneshot_vs_csr", Unit: "x", Better: lower},

	{Name: "rt.gc_cycles", Unit: "count", Better: lower},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "rt.peak_heap_mb", Unit: "MB", Better: lower},
	{Name: "rt.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
}

// runSeconds is the measuring time the driver passes as --seconds.
const runSeconds = 20

// schema is BENCHMARK.json.
type schema struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []schemaWork   `json:"workloads"`
	EndToEnd   []schemaMetric `json:"end_to_end"`
	PerLayer   []schemaMetric `json:"per_layer"`
}

type schemaWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type schemaMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkSchema renders the tables above in the BENCHMARK.json shape.
func benchmarkSchema() schema {
	s := schema{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		s.Workloads = append(s.Workloads, schemaWork(w))
	}
	for _, m := range endToEnd {
		b := m.Bound
		s.EndToEnd = append(s.EndToEnd, schemaMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &b})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, schemaMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return s
}
