package core

import (
	"fmt"
	"strconv"

	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// Engine executes Two-Step SpMV while keeping the off-chip traffic ledger
// and the execution statistics in one account, acct. Every counter the
// evaluation reports enters it through report.Ledger.Charge; its total
// is unexported, so no other write compiles.
type Engine struct {
	cfg  Config
	acct report.Ledger

	// Observability state, live only when rec is non-nil. lastSnap is
	// the cumulative counter state at the previous iteration boundary
	// (snapshots record deltas).
	rec      *report.Recorder
	lastSnap report.Counters

	// Steady-state memory reuse (scratch.go): the cached matrix plan
	// (plan.go), the two rotating step-1 banks, the dense free list, and
	// the recycled pipeline handoff primitives. All are confined to the
	// goroutine driving the engine's public methods.
	plan      *enginePlan
	banks     [2]stripeBank
	bankIdx   int
	denseFree []vector.Dense
	gate      *segmentGate
	nextCh    chan step1Result
	frontier  frontierScratch
	step2     step2Scratch

	// one backs the one-element xs/yIns/ys column sets the scalar entry
	// points hand to the k-wide step 1 and driver (see col), so being
	// their k=1 case costs them no slice-header allocation per call or
	// per iteration.
	one oneCols
}

// oneCols holds the k=1 column-set headers, one slot per driver operand.
type oneCols struct{ x, yIn, y [1]vector.Dense }

// RunStats is the engine's account as Stats returns it: every counter
// accumulates monotonically from engine construction (or the last
// ResetCounters) over all SpMV/Iterate/PageRank/SpMSpV invocations.
type RunStats = report.Counters

// New builds an engine from cfg.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, rec: cfg.Recorder}, nil
}

// Traffic returns the accumulated off-chip traffic ledger.
func (e *Engine) Traffic() mem.Traffic { return e.acct.Counters().Traffic }

// Stats returns the accumulated execution statistics: the whole account,
// as Counters does.
func (e *Engine) Stats() RunStats { return e.acct.Counters() }

// Counters returns the engine's cumulative account, the state the
// report and Prometheus surfaces render (DESIGN.md §8). Like every
// engine method it must be called from the goroutine driving the engine.
func (e *Engine) Counters() report.Counters { return e.acct.Counters() }

// ResetCounters clears the account.
func (e *Engine) ResetCounters() {
	e.acct = report.Ledger{}
	e.lastSnap = report.Counters{}
}

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
	return c.checkOperands(a.Rows, a.Cols, xDim, yIn)
}

// checkOperands is CheckOperands for a rows×cols matrix given by its
// dimensions alone, as SpMVStripes has it.
func (c Config) checkOperands(rows, cols, xDim uint64, yIn vector.Dense) error {
	if xDim != cols {
		return fmt.Errorf("core: x dimension %d != %d columns", xDim, cols)
	}
	if yIn != nil && uint64(len(yIn)) != rows {
		return fmt.Errorf("core: y dimension %d != %d rows", len(yIn), rows)
	}
	if rows > c.MaxDimension() {
		return fmt.Errorf("core: dimension %d exceeds engine capacity %d (ways %d x segment %d)",
			rows, c.MaxDimension(), c.Merge.Ways, c.SegmentWidth())
	}
	return nil
}

// spmvCompute is the k-wide Two-Step driver: ys[c] = A·xs[c] + yIns[c]
// for every column c with one matrix pass, each ys[c] (length a.Rows)
// fully overwritten. yIns may be nil or per-entry nil. SpMV (its k=1
// case) and SpMVBlock, which have checked the operands, call it on the
// cached plan; the iterative entry points plan once and run loop.
func (e *Engine) spmvCompute(a *matrix.COO, xs, yIns, ys []vector.Dense, deltas []report.Counters) error {
	p, err := e.planFor(a)
	if err != nil {
		return err
	}
	e.runPlan(p, a.Rows, xs, yIns, ys, deltas)
	return nil
}

// runPlan is spmvCompute past the plan: one step-1 run fans every
// stripe across the k source vectors, then each column commits the
// plan's books and accumulates its lists into its own output. Matrix-side
// traffic (stripe values and meta-data, the HDN filter build) is charged
// once per batch and vector-side traffic once per column, so a k-wide
// run books exactly k sequential runs minus (k−1)× the matrix share
// (DESIGN.md §9). With non-nil deltas it splits the batch's counter
// movement per column: deltas[c] is the cumulative-counter delta across
// column c's commit + merge, with the once-per-batch charges folded into
// deltas[0].
func (e *Engine) runPlan(p *enginePlan, rows uint64, xs, yIns, ys []vector.Dense, deltas []report.Counters) {
	var prev report.Counters
	if deltas != nil {
		prev = e.Counters()
	}
	e.chargeDetector(p)
	bank := e.nextBank()
	e.step1Compute(p, xs, nil, bank)
	for c := range xs {
		e.runStep2Into(e.commit(p, bank, c), &p.cover, rows, blockYIn(yIns, c), ys[c], blockFinish{})
		if deltas != nil {
			cur := e.Counters()
			deltas[c] = cur.Sub(prev)
			prev = cur
		}
	}
}

// blockYIn indexes an optional y-in set: nil when absent.
func blockYIn(yIns []vector.Dense, c int) vector.Dense {
	if yIns == nil {
		return nil
	}
	return yIns[c]
}

// chargeDetector books one filter construction: the filter footprint
// statistic plus the one-pass meta-data stream over every nonzero that
// populates it (§5.3). Iterative runs call it once per iteration so the
// ledger matches an equivalent sequence of standalone SpMV calls exactly.
func (e *Engine) chargeDetector(p *enginePlan) {
	if p.det == nil {
		return
	}
	e.acct.Charge(report.Counters{
		Traffic:        mem.Traffic{MatrixBytes: p.nnz * uint64(e.cfg.MetaBytes)},
		HDNFilterBytes: p.det.SizeBytes(),
	})
}

// step1Compute executes the per-stripe partial SpMV across Workers
// goroutines (workerCount) without touching persistent engine state
// (recorder spans aside), which is what lets the ITS pipeline run it
// concurrently with the previous iteration's step 2. A worker holding
// stripe s runs it against all k source vectors before moving on — the
// stripe stays resident while every column consumes it, which is exactly
// why only column 0 books the matrix stream (commit). Column c's records
// for stripe s land in their own span of the bank's arena and its list
// header in slot c·n + s, so parallel runs stay race-free and
// deterministic. With a non-nil gate, stripe s first waits until
// segment s of x has been published and releases its handoff slot when
// done.
//
// The workers are one fork-join (fanOut) over an atomic claim counter:
// worker w takes claim w first, so every worker runs at least one
// stripe, then claims the next unclaimed index until none is left.
// Without a gate every stripe is ready at once and claim i is the plan's
// i-th heaviest stripe (LPT order), which cuts the straggler tail on
// skewed partitions. Under a gate claim i is stripe i: claims ascend,
// and that is load-bearing. Every stripe below the next claim is held or
// done, so whenever the producer is blocked on the handoff bound, the
// lowest published-but-unconsumed stripe is already held by some worker
// (or is the next claim of a worker between stripes), and the pipeline
// always advances.
func (e *Engine) step1Compute(p *enginePlan, xs []vector.Dense, gate *segmentGate, bank *stripeBank) {
	n := len(p.stripes)
	bank.sized(n*len(xs), p.runs*len(xs))
	var s1 report.Span
	if e.rec != nil {
		s1 = e.rec.StartSpan("phase", "s1")
	}
	workers := workerCount(e.cfg.Workers, n)
	bank.claims.Store(int64(workers))
	fanOut(workers, func(w int) {
		for i := w; i < n; i = int(bank.claims.Add(1) - 1) {
			s := i
			if gate == nil {
				s = p.lpt[i]
			} else {
				gate.wait(s)
			}
			e.step1Stripe(p, xs, bank, w, s)
			if gate != nil {
				gate.consume()
			}
		}
	})
	if e.rec != nil {
		s1.End()
	}
}

// step1Stripe runs stripe s of p against every column of xs, worker w's
// claim.
func (e *Engine) step1Stripe(p *enginePlan, xs []vector.Dense, bank *stripeBank, w, s int) {
	if e.rec != nil {
		defer e.rec.StartSpan("step1/w"+strconv.Itoa(w), "s"+strconv.Itoa(s)).End()
	}
	n := len(p.stripes)
	st := &p.stripes[s]
	for c, x := range xs {
		off := c*p.runs + st.recOff
		recs := bank.recs[off : off+len(st.rows) : off+len(st.rows)]
		st.multiply(x[st.colStart:st.colStart+st.width], recs)
		bank.lists[c*n+s] = recs
	}
}

// commit books column c's step 1 — the plan's precomputed books, with
// the matrix share on column 0 only — and returns the column's sorted
// intermediate lists (headers and records owned by the bank, live until
// the consuming step 2 finishes, which the two-bank rotation
// guarantees).
func (e *Engine) commit(p *enginePlan, bank *stripeBank, c int) [][]types.Record {
	e.noteStripeSkew(p)
	e.book(&p.books, c == 0)
	n := len(p.stripes)
	return bank.lists[c*n : (c+1)*n]
}

// noteStripeSkew books one step-1 run's load-skew counters alongside
// its stripe count: the total and per-run-maximum stripe nonzeros
// behind Counters.StripeImbalance. Every entry point books them, once
// per column. The charge depends only on the stripe partition, never on
// dispatch order, so LPT scheduling and the gated ascending schedule
// book identical statistics.
func (e *Engine) noteStripeSkew(p *enginePlan) {
	e.acct.Charge(report.Counters{
		Stripes:      uint64(len(p.stripes)),
		Step1Runs:    1,
		StripeNNZ:    p.nnz,
		StripeNNZMax: p.maxNNZ,
	})
}
