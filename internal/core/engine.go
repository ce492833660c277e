package core

import (
	"fmt"
	"strconv"
	"sync"

	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// Engine executes Two-Step SpMV while keeping the off-chip traffic ledger.
// Every byte the evaluation reports enters the ledger through
// mem.Ledger.Charge; its counters are unexported, so no other write
// compiles.
type Engine struct {
	cfg     Config
	network *prap.Network
	ledger  mem.Ledger
	stats   RunStats

	// Observability state, live only when rec is non-nil. lastSnap is
	// the cumulative counter state at the previous iteration boundary
	// (snapshots record deltas).
	rec      *report.Recorder
	lastSnap report.Counters

	// Steady-state memory reuse (scratch.go): the cached matrix plan,
	// the two rotating step-1 banks, the dense free list, and the
	// recycled pipeline handoff primitives. All are confined to the
	// goroutine driving the engine's public methods. denseFreeCap widens
	// the free-list bound once a block entry point has run, so k-wide
	// ping-pong buffers keep recycling (see denseFreeBound).
	plan         *enginePlan
	banks        [2]stripeBank
	bankIdx      int
	denseFree    []vector.Dense
	denseFreeCap int
	gate         *segmentGate
	nextCh       chan step1Result
	frontier     frontierScratch
	lpt          lptScratch

	// one backs the one-element xs/yIns/ys column sets the scalar entry
	// points hand to the k-wide driver (see col), so being its k=1 case
	// costs them no slice-header allocation per call or per iteration.
	one oneCols
}

// oneCols holds the k=1 column-set headers, one slot per driver operand.
type oneCols struct{ x, yIn, y [1]vector.Dense }

// RunStats aggregates execution statistics across calls: every field
// accumulates monotonically from engine construction (or the last
// ResetCounters) over all SpMV/Iterate/PageRank/SpMSpV invocations.
type RunStats struct {
	Stripes              int
	Products             uint64
	IntermediateRecords  uint64
	MergeStats           prap.Stats
	HDN                  hdn.RouteStats
	HDNFilterBytes       uint64
	CompressedVecBytes   uint64 // intermediate meta+val bytes after VLDI
	UncompressedVecBytes uint64
	CompressedMatBytes   uint64 // matrix meta bytes after VLDI (values excluded)
	UncompressedMatBytes uint64
	// TransitionBytesSaved is the inter-iteration y round-trip traffic
	// that ITS overlap eliminated (Iterate and PageRank).
	TransitionBytesSaved uint64
	// Step-1 load-skew counters (DESIGN.md §13): one step-1 run charges
	// its stripe count into Stripes, its total nonzeros into StripeNNZ,
	// and its heaviest stripe's nonzeros into StripeNNZMax, with
	// Step1Runs counting the runs. All three are monotone sums, so they
	// aggregate across engines (Add) and difference per iteration like
	// every other counter; StripeImbalance derives the max/mean ratio.
	Step1Runs    uint64
	StripeNNZ    uint64
	StripeNNZMax uint64
}

// StripeImbalance returns the average ratio between a step-1 run's
// heaviest stripe and the mean stripe weight (max/mean, ≥ 1 when any
// nonzeros were processed) — the straggler exposure the LPT dispatch
// mitigates. Zero when no stripes have been processed.
func (s RunStats) StripeImbalance() float64 {
	if s.Step1Runs == 0 || s.Stripes == 0 || s.StripeNNZ == 0 {
		return 0
	}
	meanMax := float64(s.StripeNNZMax) / float64(s.Step1Runs)
	meanStripe := float64(s.StripeNNZ) / float64(s.Stripes)
	return meanMax / meanStripe
}

// InjectedRatio returns the fraction of store-queue output elements that
// were injected missing keys rather than merged records — the measure
// of how drain-bound (output-sparse) the resident workload is. Zero
// when nothing has been emitted.
func (s RunStats) InjectedRatio() float64 {
	if s.MergeStats.Emitted == 0 {
		return 0
	}
	return float64(s.MergeStats.Injected) / float64(s.MergeStats.Emitted)
}

// New builds an engine from cfg.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, err := prap.New(cfg.Merge)
	if err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		n.SetObserver(cfg.Recorder)
	}
	return &Engine{cfg: cfg, network: n, rec: cfg.Recorder}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Traffic returns the accumulated off-chip traffic ledger.
func (e *Engine) Traffic() mem.Traffic { return e.ledger.Traffic() }

// Stats returns a snapshot of the accumulated execution statistics; the
// per-core merge slices are copied so later calls cannot mutate it.
func (e *Engine) Stats() RunStats {
	st := e.stats
	st.MergeStats = e.stats.MergeStats.Clone()
	return st
}

// ResetCounters clears the traffic ledger and statistics.
func (e *Engine) ResetCounters() {
	e.ledger = mem.Ledger{}
	e.stats = RunStats{}
	e.lastSnap = report.Counters{}
}

// Counters assembles the observability counter snapshot for a ledger and
// statistics pair — the mapping between the engine's accounting state and
// the report/Prometheus metrics surface (DESIGN.md §8). The serving
// layer uses it to render aggregated pool ledgers through the same
// exposition the per-run reports use.
func (s RunStats) Counters(tr mem.Traffic) report.Counters {
	return report.Counters{
		Traffic:              tr,
		TransitionBytesSaved: s.TransitionBytesSaved,
		Products:             s.Products,
		IntermediateRecords:  s.IntermediateRecords,
		HDNRecords:           s.HDN.HDNRecords,
		HDNFalseRouted:       s.HDN.FalseRouted,
		VecCompressedBytes:   s.CompressedVecBytes,
		VecUncompressedBytes: s.UncompressedVecBytes,
		MatCompressedBytes:   s.CompressedMatBytes,
		MatUncompressedBytes: s.UncompressedMatBytes,
		MergeInjected:        s.MergeStats.Injected,
		MergeEmitted:         s.MergeStats.Emitted,
		Step1Runs:            s.Step1Runs,
		StripeNNZ:            s.StripeNNZ,
		StripeNNZMax:         s.StripeNNZMax,
	}
}

// Add returns the component-wise sum of two statistics snapshots without
// aliasing either operand's per-core merge slices. It is the documented
// way to aggregate RunStats across engines — the serving layer's pool
// ledger sums each member's Stats() through it.
func (s RunStats) Add(o RunStats) RunStats {
	sum := s
	sum.MergeStats = s.MergeStats.Clone()
	sum.MergeStats.Accumulate(o.MergeStats)
	sum.Stripes += o.Stripes
	sum.Products += o.Products
	sum.IntermediateRecords += o.IntermediateRecords
	sum.HDN.HDNRecords += o.HDN.HDNRecords
	sum.HDN.GeneralRecords += o.HDN.GeneralRecords
	sum.HDN.FalseRouted += o.HDN.FalseRouted
	sum.HDNFilterBytes += o.HDNFilterBytes
	sum.CompressedVecBytes += o.CompressedVecBytes
	sum.UncompressedVecBytes += o.UncompressedVecBytes
	sum.CompressedMatBytes += o.CompressedMatBytes
	sum.UncompressedMatBytes += o.UncompressedMatBytes
	sum.TransitionBytesSaved += o.TransitionBytesSaved
	sum.Step1Runs += o.Step1Runs
	sum.StripeNNZ += o.StripeNNZ
	sum.StripeNNZMax += o.StripeNNZMax
	return sum
}

// Counters assembles the engine's cumulative observability counter state
// from the ledger and statistics. Read-only on both; like every engine
// method it must be called from the goroutine driving the engine.
func (e *Engine) Counters() report.Counters { return e.stats.Counters(e.ledger.Traffic()) }

// snapshot books the counter delta since the previous snapshot into the
// recorder as one iteration boundary. Because every entry point
// snapshots when it finishes, the sum of a report's per-iteration
// deltas equals the engine's cumulative ledger exactly.
func (e *Engine) snapshot(label string) {
	if e.rec == nil {
		return
	}
	cum := e.Counters()
	e.rec.RecordIteration(label, cum.Sub(e.lastSnap))
	e.lastSnap = cum
}

// SpMV computes y = A·x + yIn with the Two-Step algorithm. yIn may be nil
// for y = A·x. The matrix dimension must not exceed cfg.MaxDimension().
// It is the k=1 case of the k-wide driver (spmvCompute).
func (e *Engine) SpMV(a *matrix.COO, x, yIn vector.Dense) (vector.Dense, error) {
	if err := e.cfg.CheckOperands(a, uint64(len(x)), yIn); err != nil {
		return nil, err
	}
	y := vector.NewDense(int(a.Rows))
	defer e.dropCols()
	if err := e.spmvCompute(a, col(&e.one.x, x), col(&e.one.yIn, yIn), col(&e.one.y, y), nil); err != nil {
		return nil, err
	}
	e.snapshot("spmv")
	return y, nil
}

// col wraps v as a one-column operand set in the given slot of the
// engine-resident k=1 headers (e.one).
func col(slot *[1]vector.Dense, v vector.Dense) []vector.Dense {
	slot[0] = v
	return slot[:]
}

// dropCols clears the k=1 headers once a call is done with them, so an
// idle engine never keeps a caller's vectors reachable.
func (e *Engine) dropCols() { e.one = oneCols{} }

// CheckOperands is the operand-dimension check every SpMV entry point
// applies, exposed on Config (like CheckIterativeCapacity) so the
// serving layer's batcher can pre-validate a request before it joins a
// coalesced batch: a bad-dimension request is rejected alone, with
// exactly the engine's error, instead of poisoning the shared SpMVBlock
// call. SpMSpV passes its sparse x's logical dimension, so the dense and
// frontier paths reject bad inputs with identical errors.
func (c Config) CheckOperands(a *matrix.COO, xDim uint64, yIn vector.Dense) error {
	if err := checkVectors(a.Rows, a.Cols, xDim, yIn); err != nil {
		return err
	}
	return c.checkCapacity(a.Rows)
}

// checkVectors is the vector half of CheckOperands. SpMVSliced applies it
// alone: slicing exists precisely to exceed the capacity bound.
func checkVectors(rows, cols, xDim uint64, yIn vector.Dense) error {
	if xDim != cols {
		return fmt.Errorf("core: x dimension %d != %d columns", xDim, cols)
	}
	if yIn != nil && uint64(len(yIn)) != rows {
		return fmt.Errorf("core: y dimension %d != %d rows", len(yIn), rows)
	}
	return nil
}

// checkCapacity is the capacity half of CheckOperands.
func (c Config) checkCapacity(rows uint64) error {
	if rows > c.MaxDimension() {
		return fmt.Errorf("core: dimension %d exceeds engine capacity %d (ways %d x segment %d)",
			rows, c.MaxDimension(), c.Merge.Ways, c.SegmentWidth())
	}
	return nil
}

// spmvCompute is the k-wide Two-Step driver: ys[c] = A·xs[c] + yIns[c]
// for every column c with one matrix pass, each ys[c] (length a.Rows)
// fully overwritten. yIns may be nil or per-entry nil. Every dense entry
// point funnels through it — SpMV and the non-overlap Iterate/PageRank as
// its k=1 case — reusing the plan cache and a step-1 bank. It
// re-validates the inputs so iterative callers surface exactly the
// errors a standalone call would.
func (e *Engine) spmvCompute(a *matrix.COO, xs, yIns, ys []vector.Dense, deltas []report.Counters) error {
	for c := range xs {
		if err := e.cfg.CheckOperands(a, uint64(len(xs[c])), blockYIn(yIns, c)); err != nil {
			return err
		}
	}
	plan, err := e.planFor(a)
	if err != nil {
		return err
	}
	return e.runStripes(plan.stripes, plan.det, a.Rows, xs, yIns, ys, deltas)
}

// runStripes is spmvCompute past the plan: one step-1 run fans every
// resident stripe across the k source vectors, then each column commits
// its outcomes and merges them into its own output. Matrix-side traffic
// (stripe values and meta-data, the HDN filter build) is charged once per
// batch and vector-side traffic once per column, so a k-wide run books
// exactly k sequential runs minus (k−1)× the matrix share (DESIGN.md
// §9). With non-nil deltas it splits the batch's counter movement per
// column: deltas[c] is the cumulative-counter delta across column c's
// commit + merge, with the once-per-batch charges folded into deltas[0].
func (e *Engine) runStripes(stripes []*matrix.Stripe, det *hdn.Detector, rows uint64, xs, yIns, ys []vector.Dense, deltas []report.Counters) error {
	var prev report.Counters
	if deltas != nil {
		prev = e.Counters()
	}
	e.chargeDetector(stripes, det)
	bank := e.nextBank()
	e.step1Compute(stripes, xs, det, nil, bank)
	for c := range xs {
		lists, err := e.commitOutcomes(stripes, bank, c)
		if err != nil {
			return err
		}
		if err := e.runStep2Into(lists, rows, blockYIn(yIns, c), ys[c], 0, nil); err != nil {
			return err
		}
		if deltas != nil {
			cur := e.Counters()
			deltas[c] = cur.Sub(prev)
			prev = cur
		}
	}
	return nil
}

// blockYIn indexes an optional y-in set: nil when absent.
func blockYIn(yIns []vector.Dense, c int) vector.Dense {
	if yIns == nil {
		return nil
	}
	return yIns[c]
}

// stripeOutcome carries one stripe's records plus its accounting deltas,
// so parallel workers stay side-effect free and the ledger merge is
// deterministic in stripe order.
type stripeOutcome struct {
	recs               []types.Record
	st                 Step1Stats
	traffic            mem.Traffic
	compVec, uncompVec uint64
	compMat, uncompMat uint64
	err                error
}

// chargeDetector books one filter construction: the filter footprint
// statistic plus the one-pass meta-data stream over every nonzero that
// populates it (§5.3). Iterative runs call it once per iteration so the
// ledger matches an equivalent sequence of standalone SpMV calls exactly.
func (e *Engine) chargeDetector(stripes []*matrix.Stripe, det *hdn.Detector) {
	if det == nil {
		return
	}
	var nnz uint64
	for _, s := range stripes {
		nnz += uint64(s.NNZ())
	}
	e.stats.HDNFilterBytes += det.SizeBytes()
	e.ledger.Charge(mem.Traffic{MatrixBytes: nnz * uint64(e.cfg.MetaBytes)})
}

// step1Compute executes the per-stripe partial SpMV across Workers
// goroutines without touching persistent engine state (recorder spans
// aside), which is what lets the ITS pipeline run it concurrently with
// the previous iteration's step 2. A worker holding stripe s runs it
// against all k source vectors before moving on — the stripe stays
// resident while every column consumes it, which is exactly why only
// column 0 charges the matrix stream (chargeMatrix). Outcomes land in
// the bank, whose scratch slots the workers recycle; slots are laid out
// column-major, c·n + s, so stripe s of column c touches only its own
// slot and parallel runs stay race-free and deterministic. With a
// non-nil gate, stripe s first waits until segment s of x has been
// published and releases its handoff slot when done — successful or
// not, so a failed stripe can never starve the producer.
func (e *Engine) step1Compute(stripes []*matrix.Stripe, xs []vector.Dense, det *hdn.Detector, gate *segmentGate, bank *stripeBank) {
	n := len(stripes)
	bank.sized(n * len(xs))
	outcomes := bank.outcomes
	run := func(w, s int) {
		if gate != nil {
			err := gate.wait(s)
			defer gate.consume()
			if err != nil {
				for c := range xs {
					outcomes[c*n+s] = stripeOutcome{err: err}
				}
				return
			}
		}
		for c, x := range xs {
			outcomes[c*n+s] = e.stripeTask(w, s, stripes[s], x, det, &bank.stripes[c*n+s], c == 0)
		}
	}

	workers := e.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var s1 report.Span
	if e.rec != nil {
		s1 = e.rec.StartSpan("phase", "s1")
	}
	if workers <= 1 {
		for s := range stripes {
			run(0, s)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for s := range work {
					run(w, s)
				}
			}(w)
		}
		// Ascending dispatch order is load-bearing under a gate: it
		// guarantees that whenever the producer is blocked on the
		// handoff bound, the lowest published-but-unconsumed stripe is
		// already held by some worker, so the pipeline always advances.
		// Without a gate every stripe is ready immediately, so the
		// ungated path is free to dispatch heaviest-first (LPT) and cut
		// the straggler tail on skewed partitions; e.lpt is safe here
		// because the ungated run always executes on the goroutine
		// driving the engine, with at most one in flight.
		if gate != nil {
			for s := range stripes {
				work <- s
			}
		} else {
			for _, s := range e.lpt.plan(stripes) {
				work <- s
			}
		}
		close(work)
		wg.Wait()
	}
	if e.rec != nil {
		s1.End()
	}
}

// commitOutcomes folds column c's side-effect-free stripe outcomes into
// the persistent ledger and statistics, in stripe order, and returns the
// column's sorted intermediate record lists (headers owned by the bank,
// records by its per-stripe slots — both live until the consuming step 2
// finishes, which the two-bank rotation guarantees). It is the only
// place a stripeOutcome reaches the books, whichever entry point
// produced it.
func (e *Engine) commitOutcomes(stripes []*matrix.Stripe, bank *stripeBank, c int) ([][]types.Record, error) {
	e.noteStripeSkew(stripes)
	n := len(stripes)
	lists := bank.lists[c*n : (c+1)*n]
	for s, out := range bank.outcomes[c*n : (c+1)*n] {
		if out.err != nil {
			return nil, out.err
		}
		lists[s] = out.recs
		e.ledger.Charge(out.traffic)
		e.stats.Products += out.st.Products
		e.stats.HDN.HDNRecords += out.st.HDN.HDNRecords
		e.stats.HDN.GeneralRecords += out.st.HDN.GeneralRecords
		e.stats.HDN.FalseRouted += out.st.HDN.FalseRouted
		e.stats.IntermediateRecords += uint64(len(out.recs))
		e.stats.CompressedVecBytes += out.compVec
		e.stats.UncompressedVecBytes += out.uncompVec
		e.stats.CompressedMatBytes += out.compMat
		e.stats.UncompressedMatBytes += out.uncompMat
	}
	return lists, nil
}

// noteStripeSkew books one step-1 run's load-skew counters alongside
// its stripe count: the total and per-run-maximum stripe nonzeros
// behind RunStats.StripeImbalance. Only commitOutcomes calls it, so the
// skew surface covers every entry point alike, once per column. The
// charge depends only on the stripe partition, never on dispatch order,
// so LPT scheduling and the gated ascending schedule book identical
// statistics.
func (e *Engine) noteStripeSkew(stripes []*matrix.Stripe) {
	e.stats.Stripes += len(stripes)
	e.stats.Step1Runs++
	var max uint64
	for _, s := range stripes {
		nnz := uint64(s.NNZ())
		e.stats.StripeNNZ += nnz
		if nnz > max {
			max = nnz
		}
	}
	e.stats.StripeNNZMax += max
}

// stripeTask runs one stripe's step 1, wrapped in a span on the
// executing worker's lane when a recorder is attached — the per-lane
// utilization behind the report's step-1 load-balance view.
func (e *Engine) stripeTask(worker, k int, s *matrix.Stripe, x vector.Dense, det *hdn.Detector, scr *stripeScratch, chargeMatrix bool) stripeOutcome {
	if e.rec == nil {
		return e.processStripe(s, x, det, scr, chargeMatrix)
	}
	sp := e.rec.StartSpan("step1/w"+strconv.Itoa(worker), "s"+strconv.Itoa(k))
	defer sp.End()
	return e.processStripe(s, x, det, scr, chargeMatrix)
}

// processStripe runs step 1 for one stripe of a dense source vector and
// computes its full accounting without touching engine state beyond scr,
// the stripe's recycled scratch slot. Requiring the slot keeps the
// steady state clear of allocating constructors: a per-record or
// per-stripe allocation here fails TestIterateSteadyStateAllocs.
func (e *Engine) processStripe(s *matrix.Stripe, x vector.Dense, det *hdn.Detector, scr *stripeScratch, chargeMatrix bool) stripeOutcome {
	scr.v = vector.Sparse{Dim: int(s.Rows), Recs: scr.recsFor(s.NNZ())}
	st, err := step1Into(&scr.v, s, x[s.ColStart:s.ColStart+s.Width], det)
	if err != nil {
		return stripeOutcome{err: err}
	}
	// The whole x segment streams into the scratchpad once per stripe.
	return e.accountStripe(s, scr, st, s.Width*uint64(e.cfg.ValueBytes), chargeMatrix)
}

// accountStripe builds the outcome of a stripe whose products are in
// scr.v, given the multiply's statistics and the source-vector bytes it
// streamed — the accounting shared by the dense multiply (processStripe)
// and SpMSpV's zero-skipping one. chargeMatrix books the stripe's matrix
// stream (values + meta-data); a k-wide run passes false for every
// column after the first — the once-per-batch accounting rule.
func (e *Engine) accountStripe(s *matrix.Stripe, scr *stripeScratch, st Step1Stats, sourceBytes uint64, chargeMatrix bool) stripeOutcome {
	out := stripeOutcome{st: st}
	out.traffic.SourceVectorBytes = sourceBytes

	// Matrix stripe stream: values plus (possibly VLDI-compressed)
	// meta-data, with CSR vs RM-COO chosen by the §3.1 hypersparsity
	// rule.
	if chargeMatrix {
		nnz := uint64(s.NNZ())
		_, metaBytes := matrix.BestStripeFormat(s.Rows, nnz, e.cfg.MetaBytes)
		out.uncompMat = metaBytes
		if e.cfg.MatrixCodec != nil {
			metaBytes = e.compressedStripeMeta(s)
		}
		out.compMat = metaBytes
		out.traffic.MatrixBytes += nnz*uint64(e.cfg.ValueBytes) + metaBytes
	}

	// Intermediate vector write (the DRAM half of the round trip).
	wBytes, comp, uncomp := e.vecBytes(scr.v.Recs)
	out.traffic.IntermediateWrite += wBytes
	out.compVec += comp
	out.uncompVec += uncomp

	if e.cfg.VectorCodec != nil {
		// Functional round trip through the codec proves the compressed
		// stream reconstructs exactly. The codec is lossless, so the
		// verification runs in place (zero allocations) instead of
		// materializing the decompressed copy; values are stored
		// uncompressed, so key-exact reconstruction is bit-identical to
		// the CompressSparse/DecompressSparse materializing round trip.
		if err := e.cfg.VectorCodec.RoundTripRecords(scr.v.Recs, &scr.bw); err != nil {
			return stripeOutcome{err: fmt.Errorf("core: VLDI round trip failed: %w", err)}
		}
	}
	out.recs = scr.v.Recs
	return out
}

// runStep2Into merges the intermediate lists through the PRaP network
// into the caller-provided y and accounts the intermediate-read and
// result traffic. A positive segWidth plus a non-nil publish forwards
// the PRaP store queue's segment-completion stream (ascending, exactly
// once per segment) to the caller — the producer side of the ITS
// pipeline's bounded segment handoff.
func (e *Engine) runStep2Into(lists [][]types.Record, dim uint64, yIn, y vector.Dense, segWidth uint64, publish func(seg int)) error {
	if e.rec != nil {
		defer e.rec.StartSpan("phase", "s2").End()
	}
	for _, l := range lists {
		e.chargeIntermediateRead(l)
	}
	st, err := e.network.MergeInto(lists, dim, yIn, y, segWidth, publish)
	if err != nil {
		return err
	}
	e.stats.MergeStats.Accumulate(st)
	yBytes := dim * uint64(e.cfg.ValueBytes)
	e.ledger.Charge(mem.Traffic{ResultBytes: yBytes}) // y streamed out
	if yIn != nil {
		e.ledger.Charge(mem.Traffic{ResultBytes: yBytes}) // y-in streamed in
	}
	return nil
}

// chargeIntermediateRead books one intermediate list streaming back in
// from DRAM, ahead of a merge.
func (e *Engine) chargeIntermediateRead(l []types.Record) {
	b, comp, uncomp := e.vecBytes(l)
	e.ledger.Charge(mem.Traffic{IntermediateRead: b})
	e.stats.CompressedVecBytes += comp
	e.stats.UncompressedVecBytes += uncomp
}

// compressedStripeMeta returns the byte footprint of the stripe's
// VLDI-encoded meta-data, memoized in the plan cache when the stripe
// belongs to the cached plan: the matrix is immutable within a run, so
// the bits are computed once and reused every iteration.
func (e *Engine) compressedStripeMeta(s *matrix.Stripe) uint64 {
	if p := e.plan; p != nil && s.Index < len(p.stripes) && p.stripes[s.Index] == s {
		if !p.metaDone[s.Index] {
			p.metaBits[s.Index] = e.stripeMetaBits(s)
			p.metaDone[s.Index] = true
		}
		return (p.metaBits[s.Index] + 7) / 8
	}
	return (e.stripeMetaBits(s) + 7) / 8
}

// stripeMetaBits sizes the stripe's VLDI meta-data stream — the
// column-index delta stream within each row (sequential, streaming-only
// reads — §5.1) plus one row-delta per row transition — without
// materializing deltas or the encoding: the streaming sizer is exact
// (Bytes == EncodeDeltas(...).Bytes()).
func (e *Engine) stripeMetaBits(s *matrix.Stripe) uint64 {
	sizer := e.cfg.MatrixCodec.NewSizer()
	var prevRow, prevCol uint64
	first := true
	for _, ent := range s.Entries {
		if first || ent.Row != prevRow {
			rowDelta := ent.Row
			if !first {
				rowDelta = ent.Row - prevRow
			}
			sizer.AddDelta(rowDelta)
			sizer.AddDelta(ent.Col)
			prevRow, prevCol = ent.Row, ent.Col
			first = false
			continue
		}
		sizer.AddDelta(ent.Col - prevCol)
		prevCol = ent.Col
	}
	return sizer.Bits()
}

// vecBytes returns the DRAM footprint of an intermediate record stream at
// the engine's precision (VLDI-compressed when configured) together with
// the compressed/uncompressed byte deltas for the statistics. The
// compressed size comes from the streaming sizer — exactly
// EncodeDeltas(DeltasFromKeys(keys)).Bytes(), with zero intermediate
// slices.
func (e *Engine) vecBytes(recs []types.Record) (footprint, compressed, uncompressed uint64) {
	nnz := uint64(len(recs))
	raw := nnz * uint64(e.cfg.MetaBytes+e.cfg.ValueBytes)
	if e.cfg.VectorCodec == nil || nnz == 0 {
		return raw, raw, raw
	}
	sizer := e.cfg.VectorCodec.NewSizer()
	for _, r := range recs {
		if err := sizer.AddKey(r.Key); err != nil {
			// Sorted invariant violated upstream; charge uncompressed.
			return raw, raw, raw
		}
	}
	b := sizer.Bytes() + nnz*uint64(e.cfg.ValueBytes)
	return b, b, raw
}
