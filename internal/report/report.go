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

// Counters is one snapshot of the ledger-derived statistics the paper's
// evaluation is built on. Engines record per-iteration deltas, so the
// sum over a report's iterations equals the engine's cumulative ledger
// exactly.
type Counters struct {
	// Traffic is the off-chip byte ledger delta (Fig. 4 categories).
	Traffic mem.Traffic
	// TransitionBytesSaved is the inter-iteration y round-trip traffic
	// ITS overlap kept on chip (Fig. 15 / Table 2).
	TransitionBytesSaved uint64
	// Products counts step-1 multiply-accumulates.
	Products uint64
	// IntermediateRecords counts step-1 output records.
	IntermediateRecords uint64
	// HDNRecords / HDNFalseRouted count the Bloom-filter High-Degree-Node
	// pipeline's routed and false-positive-routed records (§5.3).
	HDNRecords     uint64
	HDNFalseRouted uint64
	// VLDI compression footprints: intermediate-vector and matrix
	// meta-data bytes after and before compression (Fig. 13/14).
	VecCompressedBytes   uint64
	VecUncompressedBytes uint64
	MatCompressedBytes   uint64
	MatUncompressedBytes uint64
	// MergeInjected / MergeEmitted count missing-key injections and dense
	// elements streamed by the PRaP store queue (Fig. 11). Their ratio is
	// the drain-boundedness signal the sparse drain exploits (DESIGN.md
	// §13).
	MergeInjected uint64
	MergeEmitted  uint64
	// Step-1 load-skew counters (DESIGN.md §13): runs, total stripe
	// nonzeros, and the per-run sum of heaviest-stripe nonzeros.
	Step1Runs    uint64
	StripeNNZ    uint64
	StripeNNZMax uint64
}

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
	}
}

// iteration is one recorded iteration boundary.
type iteration struct {
	label string
	at    uint64 // ns since recorder start
	delta Counters
}

// Recorder collects spans and counter snapshots for one run. Create it
// with NewRecorder and attach it via core.Config.Recorder. All methods
// are safe for concurrent use and are no-ops on a nil receiver, so
// instrumentation sites need no guards beyond the pointer itself.
type Recorder struct {
	start time.Time
	tl    trace.Timeline

	mu    sync.Mutex
	iters []iteration
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
	r.iters = append(r.iters, iteration{label: label, at: at, delta: delta})
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
