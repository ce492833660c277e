package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Meta identifies the workload a report describes.
type Meta struct {
	// Workload names the run (a command line, an experiment ID).
	Workload string `json:"workload"`
	// Matrix shape of the main operand, when there is one.
	Rows uint64 `json:"rows,omitempty"`
	Cols uint64 `json:"cols,omitempty"`
	NNZ  uint64 `json:"nnz,omitempty"`
	// Parallelism knobs of the run, as configured: a worker count of 0
	// (omitted) runs runtime.GOMAXPROCS goroutines, at most one per task.
	Workers      int `json:"workers,omitempty"`
	MergeWorkers int `json:"merge_workers,omitempty"`
	MergeCores   int `json:"merge_cores,omitempty"`
	// Overlap records whether ITS iteration overlap was on.
	Overlap bool `json:"overlap,omitempty"`
	// Host allocation deltas over the run (runtime.MemStats Mallocs and
	// TotalAlloc), the observability surface of the engine's scratch
	// arenas: a steady-state regression shows up here as well as in the
	// allocation-budget test.
	HostAllocs     uint64 `json:"host_allocs,omitempty"`
	HostAllocBytes uint64 `json:"host_alloc_bytes,omitempty"`
}

// Lane summarizes one timeline lane: how much of the run's makespan it
// spent busy. The per-worker step1/ and merge/ lanes make the Fig. 11
// load-balance story measurable on a real run.
type Lane struct {
	Lane        string  `json:"lane"`
	Spans       int     `json:"spans"`
	BusyNS      uint64  `json:"busy_ns"`
	Utilization float64 `json:"utilization"`
}

// Iteration is one recorded iteration boundary with its counter deltas.
type Iteration struct {
	Index    int      `json:"index"`
	Label    string   `json:"label"`
	AtNS     uint64   `json:"at_ns"`
	Counters Counters `json:"counters"`
}

// Report is one run's complete observability surface, ready to render.
type Report struct {
	Meta       Meta        `json:"meta"`
	WallNS     uint64      `json:"wall_ns"`
	Lanes      []Lane      `json:"lanes"`
	Iterations []Iteration `json:"iterations"`
	Totals     Counters    `json:"totals"`
}

// NewReport assembles a report directly from an aggregated counter
// snapshot, without a recorder: no span lanes, no iteration axis, just
// the totals. The serving layer renders live pool ledgers and
// per-request counter deltas through it, reusing the exact JSON and
// Prometheus expositions of the recorded reports.
func NewReport(meta Meta, totals Counters) *Report {
	return &Report{Meta: meta, Totals: totals}
}

// Build assembles the report: per-lane busy time and utilization over
// the recorded makespan, the iteration snapshots in record order, and
// totals as the exact sum of the per-iteration deltas.
func (r *Recorder) Build(meta Meta) *Report {
	rep := &Report{Meta: meta}
	if r == nil {
		return rep
	}
	spans := r.tl.Spans()
	makespan := r.tl.Makespan()
	rep.WallNS = r.Now()
	if rep.WallNS < makespan {
		rep.WallNS = makespan
	}

	busy := map[string]uint64{}
	count := map[string]int{}
	var laneOrder []string
	for _, s := range spans {
		if _, seen := busy[s.Lane]; !seen {
			laneOrder = append(laneOrder, s.Lane)
		}
		busy[s.Lane] += s.End - s.Start
		count[s.Lane]++
	}
	sort.Strings(laneOrder)
	for _, lane := range laneOrder {
		u := 0.0
		if makespan > 0 {
			u = float64(busy[lane]) / float64(makespan)
		}
		rep.Lanes = append(rep.Lanes, Lane{Lane: lane, Spans: count[lane], BusyNS: busy[lane], Utilization: u})
	}

	r.mu.Lock()
	rep.Iterations = append([]Iteration(nil), r.iters...)
	r.mu.Unlock()
	for _, it := range rep.Iterations {
		rep.Totals = rep.Totals.Add(it.Counters)
	}
	return rep
}

// WriteJSON renders the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// promWriter emits Prometheus text-exposition lines, latching the
// first write error so a metric block reads linearly.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) header(name, typ, help string) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
}

func (p *promWriter) metric(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s %g\n", name, labels, v)
}

// WritePrometheus renders the report's totals and lane gauges in the
// Prometheus text exposition format (version 0.0.4), suitable for a
// node_exporter textfile collector or a push gateway. Per-iteration
// series are deliberately not exported — Prometheus scrapes state, not
// history; the JSON report carries the iteration axis.
func (rep *Report) WritePrometheus(w io.Writer) error {
	t := rep.Totals
	p := &promWriter{w: w}

	p.header("mwmerge_traffic_bytes_total", "counter", "Off-chip traffic by Fig. 4 category.")
	p.metric("mwmerge_traffic_bytes_total", `category="matrix"`, float64(t.Traffic.MatrixBytes))
	p.metric("mwmerge_traffic_bytes_total", `category="source_vector"`, float64(t.Traffic.SourceVectorBytes))
	p.metric("mwmerge_traffic_bytes_total", `category="intermediate_write"`, float64(t.Traffic.IntermediateWrite))
	p.metric("mwmerge_traffic_bytes_total", `category="intermediate_read"`, float64(t.Traffic.IntermediateRead))
	p.metric("mwmerge_traffic_bytes_total", `category="result"`, float64(t.Traffic.ResultBytes))
	p.metric("mwmerge_traffic_bytes_total", `category="wastage"`, float64(t.Traffic.WastageBytes))

	p.header("mwmerge_transition_saved_bytes_total", "counter", "Inter-iteration y round-trip bytes ITS overlap kept on chip.")
	p.metric("mwmerge_transition_saved_bytes_total", "", float64(t.TransitionBytesSaved))
	p.header("mwmerge_products_total", "counter", "Step-1 multiply-accumulate operations.")
	p.metric("mwmerge_products_total", "", float64(t.Products))
	p.header("mwmerge_intermediate_records_total", "counter", "Step-1 intermediate vector records.")
	p.metric("mwmerge_intermediate_records_total", "", float64(t.IntermediateRecords))
	p.header("mwmerge_hdn_records_total", "counter", "Records routed to the High-Degree-Node pipeline.")
	p.metric("mwmerge_hdn_records_total", "", float64(t.HDNRecords))
	p.header("mwmerge_hdn_false_routed_total", "counter", "Bloom-filter false positives routed to the HDN pipeline.")
	p.metric("mwmerge_hdn_false_routed_total", "", float64(t.HDNFalseRouted))

	p.header("mwmerge_vldi_bytes_total", "counter", "Meta-data bytes before/after VLDI compression.")
	p.metric("mwmerge_vldi_bytes_total", `stream="vector",form="compressed"`, float64(t.VecCompressedBytes))
	p.metric("mwmerge_vldi_bytes_total", `stream="vector",form="uncompressed"`, float64(t.VecUncompressedBytes))
	p.metric("mwmerge_vldi_bytes_total", `stream="matrix",form="compressed"`, float64(t.MatCompressedBytes))
	p.metric("mwmerge_vldi_bytes_total", `stream="matrix",form="uncompressed"`, float64(t.MatUncompressedBytes))

	p.header("mwmerge_merge_injected_total", "counter", "Missing keys injected by the PRaP merge cores.")
	p.metric("mwmerge_merge_injected_total", "", float64(t.MergeInjected))
	p.header("mwmerge_merge_emitted_total", "counter", "Dense elements streamed out by the PRaP store queue.")
	p.metric("mwmerge_merge_emitted_total", "", float64(t.MergeEmitted))
	p.header("mwmerge_step1_runs_total", "counter", "Step-1 runs (stripe fan-outs) executed.")
	p.metric("mwmerge_step1_runs_total", "", float64(t.Step1Runs))
	p.header("mwmerge_step1_stripe_nnz_total", "counter", "Nonzeros processed across all step-1 stripes.")
	p.metric("mwmerge_step1_stripe_nnz_total", "", float64(t.StripeNNZ))
	p.header("mwmerge_step1_stripe_nnz_max_total", "counter", "Per-run heaviest-stripe nonzeros, summed over runs (skew signal).")
	p.metric("mwmerge_step1_stripe_nnz_max_total", "", float64(t.StripeNNZMax))
	p.header("mwmerge_iterations_total", "counter", "Recorded iteration boundaries.")
	p.metric("mwmerge_iterations_total", "", float64(len(rep.Iterations)))
	p.header("mwmerge_wall_seconds", "gauge", "Wall-clock duration covered by the report.")
	p.metric("mwmerge_wall_seconds", "", float64(rep.WallNS)/1e9)

	p.header("mwmerge_lane_utilization", "gauge", "Busy fraction of each span lane over the makespan (Fig. 11/15).")
	for _, l := range rep.Lanes {
		p.metric("mwmerge_lane_utilization", fmt.Sprintf("lane=%q", l.Lane), l.Utilization)
	}
	p.header("mwmerge_lane_busy_seconds_total", "counter", "Busy wall-clock time per span lane.")
	for _, l := range rep.Lanes {
		p.metric("mwmerge_lane_busy_seconds_total", fmt.Sprintf("lane=%q", l.Lane), float64(l.BusyNS)/1e9)
	}
	return p.err
}
