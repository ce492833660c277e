// Package report is the engine's observability layer: a concurrency-safe
// run recorder that collects wall-clock phase spans (step-1 stripe
// workers, step-2 block workers, ITS overlap windows) into a trace.Timeline
// and ledger-derived counter snapshots per iteration, then renders the
// whole run as a structured report — JSON, Prometheus text-exposition
// format, or the text Gantt chart. A nil *Recorder disables every hook:
// all methods are nil-safe no-ops, so the instrumented engine pays
// nothing (and stays bit-identical) when observability is off.
package report

import (
	"io"
	"sync"
	"time"

	"mwmerge/internal/mem"
	"mwmerge/internal/trace"
)

// Counters is the engine's one account: the off-chip traffic ledger and
// every statistic the paper's evaluation is built on, each a monotone
// sum. Engines book into a Ledger, record per-iteration deltas, and
// publish cumulative snapshots; the sum over a report's iterations
// equals the engine's cumulative account exactly. The json tags are the
// report's stable keys (DESIGN.md §8).
type Counters struct {
	// Traffic is the off-chip byte ledger (Fig. 4 categories).
	Traffic mem.Traffic `json:"traffic"`
	// TransitionBytesSaved is the inter-iteration y round-trip traffic
	// ITS overlap kept on chip (Fig. 15 / Table 2).
	TransitionBytesSaved uint64 `json:"transition_bytes_saved"`
	// Products counts step-1 multiply-accumulates.
	Products uint64 `json:"products"`
	// IntermediateRecords counts step-1 output records.
	IntermediateRecords uint64 `json:"intermediate_records"`
	// HDNRecords / HDNFalseRouted count the Bloom-filter High-Degree-Node
	// pipeline's routed and false-positive-routed products (§5.3).
	HDNRecords     uint64 `json:"hdn_records"`
	HDNFalseRouted uint64 `json:"hdn_false_routed"`
	// VLDI compression footprints: intermediate-vector and matrix
	// meta-data bytes after and before compression (Fig. 13/14).
	VecCompressedBytes   uint64 `json:"vldi_vector_compressed_bytes"`
	VecUncompressedBytes uint64 `json:"vldi_vector_uncompressed_bytes"`
	MatCompressedBytes   uint64 `json:"vldi_matrix_compressed_bytes"`
	MatUncompressedBytes uint64 `json:"vldi_matrix_uncompressed_bytes"`
	// MergeInjected / MergeEmitted count missing-key injections and dense
	// elements streamed by the PRaP store queue (Fig. 11). Their ratio is
	// the drain-boundedness signal the sparse drain exploits (DESIGN.md
	// §13).
	MergeInjected uint64 `json:"merge_injected"`
	MergeEmitted  uint64 `json:"merge_emitted"`
	// Step-1 load-skew counters (DESIGN.md §13): runs, total stripe
	// nonzeros, and the per-run sum of heaviest-stripe nonzeros.
	Step1Runs    uint64 `json:"step1_runs"`
	StripeNNZ    uint64 `json:"stripe_nnz"`
	StripeNNZMax uint64 `json:"stripe_nnz_max"`
	// HDNGeneralRecords counts the products the detector left on the
	// general pipeline, and HDNFilterBytes the footprint of every filter
	// construction (one per step-1 batch).
	HDNGeneralRecords uint64 `json:"hdn_general_records"`
	HDNFilterBytes    uint64 `json:"hdn_filter_bytes"`
	// MergePresortBatches counts the p-record batches the hardware
	// pre-sorter would take: Σ ⌈len/p⌉ over step 2's lists.
	MergePresortBatches uint64 `json:"merge_presort_batches"`
	// Stripes counts the stripes of every step-1 run, summed over runs.
	Stripes uint64 `json:"stripes"`
}

// Counters holds no slice, map or pointer — this line does not compile
// otherwise — so a copy of it never shares memory with its source: a
// snapshot cannot alias the account it was taken from.
var _ = Counters{} == Counters{}

// Sub returns the component-wise difference c - o, the delta between
// two cumulative snapshots of the same monotone counters.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Traffic:              c.Traffic.Sub(o.Traffic),
		TransitionBytesSaved: c.TransitionBytesSaved - o.TransitionBytesSaved,
		Products:             c.Products - o.Products,
		IntermediateRecords:  c.IntermediateRecords - o.IntermediateRecords,
		HDNRecords:           c.HDNRecords - o.HDNRecords,
		HDNFalseRouted:       c.HDNFalseRouted - o.HDNFalseRouted,
		VecCompressedBytes:   c.VecCompressedBytes - o.VecCompressedBytes,
		VecUncompressedBytes: c.VecUncompressedBytes - o.VecUncompressedBytes,
		MatCompressedBytes:   c.MatCompressedBytes - o.MatCompressedBytes,
		MatUncompressedBytes: c.MatUncompressedBytes - o.MatUncompressedBytes,
		MergeInjected:        c.MergeInjected - o.MergeInjected,
		MergeEmitted:         c.MergeEmitted - o.MergeEmitted,
		Step1Runs:            c.Step1Runs - o.Step1Runs,
		StripeNNZ:            c.StripeNNZ - o.StripeNNZ,
		StripeNNZMax:         c.StripeNNZMax - o.StripeNNZMax,
		HDNGeneralRecords:    c.HDNGeneralRecords - o.HDNGeneralRecords,
		HDNFilterBytes:       c.HDNFilterBytes - o.HDNFilterBytes,
		MergePresortBatches:  c.MergePresortBatches - o.MergePresortBatches,
		Stripes:              c.Stripes - o.Stripes,
	}
}

// Add returns the component-wise sum c + o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Traffic:              c.Traffic.Add(o.Traffic),
		TransitionBytesSaved: c.TransitionBytesSaved + o.TransitionBytesSaved,
		Products:             c.Products + o.Products,
		IntermediateRecords:  c.IntermediateRecords + o.IntermediateRecords,
		HDNRecords:           c.HDNRecords + o.HDNRecords,
		HDNFalseRouted:       c.HDNFalseRouted + o.HDNFalseRouted,
		VecCompressedBytes:   c.VecCompressedBytes + o.VecCompressedBytes,
		VecUncompressedBytes: c.VecUncompressedBytes + o.VecUncompressedBytes,
		MatCompressedBytes:   c.MatCompressedBytes + o.MatCompressedBytes,
		MatUncompressedBytes: c.MatUncompressedBytes + o.MatUncompressedBytes,
		MergeInjected:        c.MergeInjected + o.MergeInjected,
		MergeEmitted:         c.MergeEmitted + o.MergeEmitted,
		Step1Runs:            c.Step1Runs + o.Step1Runs,
		StripeNNZ:            c.StripeNNZ + o.StripeNNZ,
		StripeNNZMax:         c.StripeNNZMax + o.StripeNNZMax,
		HDNGeneralRecords:    c.HDNGeneralRecords + o.HDNGeneralRecords,
		HDNFilterBytes:       c.HDNFilterBytes + o.HDNFilterBytes,
		MergePresortBatches:  c.MergePresortBatches + o.MergePresortBatches,
		Stripes:              c.Stripes + o.Stripes,
	}
}

// StripeImbalance returns the average ratio between a step-1 run's
// heaviest stripe and the mean stripe weight (max/mean, ≥ 1 when any
// nonzeros were processed) — the straggler exposure the LPT dispatch
// mitigates. Zero when no stripes have been processed.
func (c Counters) StripeImbalance() float64 {
	if c.Step1Runs == 0 || c.Stripes == 0 || c.StripeNNZ == 0 {
		return 0
	}
	meanMax := float64(c.StripeNNZMax) / float64(c.Step1Runs)
	meanStripe := float64(c.StripeNNZ) / float64(c.Stripes)
	return meanMax / meanStripe
}

// InjectedRatio returns the fraction of store-queue output elements that
// were injected missing keys rather than merged records — the measure
// of how drain-bound (output-sparse) the resident workload is. Zero
// when nothing has been emitted.
func (c Counters) InjectedRatio() float64 {
	if c.MergeEmitted == 0 {
		return 0
	}
	return float64(c.MergeInjected) / float64(c.MergeEmitted)
}

// Ledger is a persistent, add-only Counters account. Its total is
// unexported, so code outside this package can only add to it through
// Charge; the zero value is an empty ledger, and assigning Ledger{}
// resets one.
type Ledger struct{ total Counters }

// Charge books delta into the ledger.
func (l *Ledger) Charge(delta Counters) { l.total = l.total.Add(delta) }

// Counters returns the accumulated total.
func (l *Ledger) Counters() Counters { return l.total }

// Recorder collects spans and counter snapshots for one run. Create it
// with NewRecorder and attach it via core.Config.Recorder. All methods
// are safe for concurrent use and are no-ops on a nil receiver, so
// instrumentation sites need no guards beyond the pointer itself.
type Recorder struct {
	start time.Time
	tl    trace.Timeline

	mu    sync.Mutex
	iters []Iteration
}

// NewRecorder returns a recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{start: time.Now()} }

// Now returns nanoseconds since the recorder's clock started (0 when
// disabled). Instrumentation uses it to mark window boundaries that
// span multiple engine calls, such as the ITS overlap windows.
func (r *Recorder) Now() uint64 {
	if r == nil {
		return 0
	}
	return uint64(time.Since(r.start))
}

// Span is an open span returned by StartSpan; End closes and records
// it. The zero Span (from a disabled recorder) is a no-op.
type Span struct {
	r     *Recorder
	lane  string
	name  string
	start uint64
}

// StartSpan opens a wall-clock span on the given timeline lane.
func (r *Recorder) StartSpan(lane, name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, lane: lane, name: name, start: r.Now()}
}

// End closes the span and records it on the timeline.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.r.AddSpan(s.lane, s.name, s.start, s.r.Now())
}

// AddSpan records an explicit span. Spans shorter than the clock
// resolution are clamped to 1 ns so fast phases stay visible on the
// Gantt instead of being dropped as zero-length.
func (r *Recorder) AddSpan(lane, name string, start, end uint64) {
	if r == nil {
		return
	}
	if end <= start {
		end = start + 1
	}
	// end > start always holds here, so Add cannot fail.
	_ = r.tl.Add(lane, name, start, end)
}

// RecordIteration books one iteration boundary: the counter delta this
// iteration contributed. Engines compute the delta against their own
// previous snapshot, so several engines may share one recorder and the
// report's totals still sum exactly to the union of their ledgers.
func (r *Recorder) RecordIteration(label string, delta Counters) {
	if r == nil {
		return
	}
	at := r.Now()
	r.mu.Lock()
	r.iters = append(r.iters, Iteration{Index: len(r.iters), Label: label, AtNS: at, Counters: delta})
	r.mu.Unlock()
}

// Timeline exposes the recorded spans for rendering and tests.
func (r *Recorder) Timeline() *trace.Timeline {
	if r == nil {
		return &trace.Timeline{}
	}
	return &r.tl
}

// Gantt renders the recorded spans as a text Gantt chart (cycle axis =
// nanoseconds since recorder start).
func (r *Recorder) Gantt(w io.Writer, width int) error {
	return r.Timeline().Gantt(w, width)
}
