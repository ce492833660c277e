package core

import (
	"fmt"
	"strconv"

	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/vector"
)

// IterateOptions controls iterative SpMV execution (x_{i+1} = A·x_i ...),
// the pattern of PageRank-style workloads (§5.2).
type IterateOptions struct {
	// Iterations is the number of SpMV applications.
	Iterations int
	// Overlap enables Iteration-overlapped Two-Step (ITS): step 2 of
	// iteration i runs concurrently with step 1 of iteration i+1
	// through a bounded segment handoff (see pipeline.go), the
	// y_i = x_{i+1} DRAM round trip between iterations disappears, and
	// the engine needs two source-vector segment buffers, halving the
	// maximum dimension. The result is bit-identical to the sequential
	// schedule.
	Overlap bool
	// Damping, when non-zero, applies the PageRank update
	// x' = Damping·A·x + (1-Damping)/N after each multiplication.
	Damping float64
}

// IterateResult reports an iterative run.
type IterateResult struct {
	X          vector.Dense
	Iterations int
	// TransitionBytesSaved is the y round-trip traffic ITS eliminated.
	TransitionBytesSaved uint64
}

// accountTransition books the traffic of one inter-iteration transition:
// the freshly produced y must be streamed back in as the next source
// vector. runStep2Into already charged the y stream-out of every SpMV call,
// so only the x re-read is charged here — charging both would count the
// y-out bytes twice per transition. With ITS overlap the segment stays
// on chip in the second buffer and the bytes are recorded as saved
// instead. Returns the transition byte count either way.
func (e *Engine) accountTransition(rows uint64, overlap bool) uint64 {
	transition := rows * uint64(e.cfg.ValueBytes) // y re-read as the next x
	if overlap {
		e.stats.TransitionBytesSaved += transition
	} else {
		e.ledger.Charge(mem.Traffic{ResultBytes: transition})
	}
	return transition
}

// recordIteration closes the observability record of one loop iteration:
// an "iter" lane span covering it and a counter-delta snapshot. Under
// the ITS pipeline an iteration's span starts when its step 1 starts —
// inside the previous iteration's span — so consecutive spans on the
// lane genuinely overlap. No-op without a recorder.
func (e *Engine) recordIteration(it int, start uint64) {
	if e.rec == nil {
		return
	}
	e.rec.AddSpan("iter", "i"+strconv.Itoa(it), start, e.rec.Now())
	e.snapshot("iter")
}

// Iterate runs iterative SpMV. With Overlap set, the engine verifies the
// halved-capacity constraint (two segments must fit in the scratchpad)
// and then executes the software ITS pipeline: step 2 of each iteration
// streams its result segments to step 1 of the next, which runs
// concurrently. Overlap and non-overlap produce bit-identical vectors —
// the differences are wall-clock, the traffic ledger and the capacity
// bound, exactly as in the paper's Table 2.
func (e *Engine) Iterate(a *matrix.COO, x0 vector.Dense, opt IterateOptions) (IterateResult, error) {
	xs, saved, err := e.iterate(a, []vector.Dense{x0}, opt)
	if err != nil {
		return IterateResult{}, err
	}
	return IterateResult{X: xs[0], Iterations: opt.Iterations, TransitionBytesSaved: saved}, nil
}

// iterate is the iterative-SpMV driver behind Iterate (its k=1 case) and
// IterateBlock: k damped chains advanced in lock step, one k-wide
// spmvCompute per iteration. It returns the final vectors and the
// transition bytes ITS kept on chip. Overlap selects the ITS pipeline
// instead, whose bounded segment handoff joins exactly one producer and
// one consumer vector — only Iterate passes it, with its single column.
func (e *Engine) iterate(a *matrix.COO, x0s []vector.Dense, opt IterateOptions) ([]vector.Dense, uint64, error) {
	if opt.Iterations < 1 {
		return nil, 0, fmt.Errorf("core: iteration count must be positive")
	}
	if a.Rows != a.Cols {
		return nil, 0, fmt.Errorf("core: iterative SpMV needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if err := e.cfg.CheckIterativeCapacity(a.Rows, opt.Overlap); err != nil {
		return nil, 0, err
	}
	for _, x0 := range x0s {
		if err := e.cfg.CheckOperands(a, uint64(len(x0)), nil); err != nil {
			return nil, 0, err
		}
	}
	k := len(x0s)
	damping := opt.Damping
	base := (1 - damping) / float64(a.Rows)
	xs := make([]vector.Dense, k)
	if opt.Overlap {
		p, err := e.planFor(a)
		if err != nil {
			return nil, 0, err
		}
		var hooks pipelineHooks
		if damping != 0 {
			hooks.update = func(int, vector.Dense) func(vector.Dense) {
				return func(seg vector.Dense) { dampSegment(seg, damping, base) }
			}
		}
		x, _, saved := e.iteratePipelined(p, a.Rows, x0s[0], opt.Iterations, hooks)
		xs[0] = x
		return xs, saved, nil
	}

	e.reserveDense(k)
	ys := make([]vector.Dense, k)
	for c := range x0s {
		xs[c] = x0s[c].Clone()
	}
	for it := 0; it < opt.Iterations; it++ {
		var iterStart uint64
		if e.rec != nil {
			iterStart = e.rec.Now()
		}
		// k-wide ping-pong through the engine's dense free list: every
		// source buffer becomes a future result buffer. The final xs are
		// returned and therefore never recycled.
		for c := range ys {
			ys[c] = e.getDense(int(a.Rows))
		}
		if err := e.spmvCompute(a, xs, nil, ys, nil); err != nil {
			for c := range ys {
				e.putDense(ys[c])
			}
			return nil, 0, fmt.Errorf("core: iteration %d: %w", it, err)
		}
		for c := range ys {
			if damping != 0 {
				dampSegment(ys[c], damping, base)
			}
			e.putDense(xs[c])
			xs[c] = ys[c]
		}
		if it < opt.Iterations-1 {
			// One y-as-next-x round trip per column.
			for range xs {
				e.accountTransition(a.Rows, false)
			}
		}
		e.recordIteration(it, iterStart)
	}
	return xs, 0, nil
}

// PageRank runs damped power iteration until the L1 delta drops below tol
// or maxIters is reached, returning the rank vector and iterations used.
// It is the workload of the paper's iterative-SpMV optimization study.
// damping must lie in [0, 1] and tol be a non-negative number.
// Dangling (all-zero) columns get the standard damped-PageRank
// correction: their rank mass is redistributed uniformly each iteration,
// so the returned vector always sums to 1. Inter-iteration transitions
// are accounted exactly as in Iterate, and overlap runs the ITS pipeline
// with the teleport update applied streaming per published segment —
// bit-identical to the sequential schedule. The column-normalized
// operand is derived once from the matrix's cached plan and kept with
// it, so repeated calls, and SpMV calls in between, never plan again.
func (e *Engine) PageRank(a *matrix.COO, damping, tol float64, maxIters int, overlap bool) (vector.Dense, int, error) {
	ranks, iters, err := e.pageRank(a, []vector.Dense{nil}, damping, tol, maxIters, overlap)
	if err != nil {
		return nil, iters[0], err
	}
	return ranks[0], iters[0], nil
}

// pageRank is the power-iteration driver behind PageRank (its k=1 case,
// one uniform start) and PageRankBlock: one rank vector per column of
// x0s, nil meaning the uniform start, plus per-column iteration counts —
// on error, how far each live column got. Like iterate, overlap is the
// single-column ITS schedule that only PageRank passes.
func (e *Engine) pageRank(a *matrix.COO, x0s []vector.Dense, damping, tol float64, maxIters int, overlap bool) ([]vector.Dense, []int, error) {
	k := len(x0s)
	iters := make([]int, k)
	// The negated comparisons reject NaN too: a NaN tol never converges
	// and a damping outside [0, 1] diverges until the ranks overflow.
	if !(damping >= 0 && damping <= 1) {
		return nil, iters, fmt.Errorf("core: PageRank damping %g outside [0, 1]", damping)
	}
	if !(tol >= 0) {
		return nil, iters, fmt.Errorf("core: PageRank tolerance %g is not a non-negative number", tol)
	}
	if a.Rows != a.Cols {
		return nil, iters, fmt.Errorf("core: PageRank needs a square matrix")
	}
	// Capacity is checked before planning: an over-capacity matrix must
	// fail fast, not after an O(nnz) partition.
	if err := e.cfg.CheckIterativeCapacity(a.Rows, overlap); err != nil {
		return nil, iters, err
	}
	n := a.Rows
	for c := range x0s {
		if x0s[c] != nil && uint64(len(x0s[c])) != n {
			return nil, iters, fmt.Errorf("core: column %d start vector has dimension %d, want %d", c, len(x0s[c]), n)
		}
	}

	ranks := make([]vector.Dense, k)
	// The live set: sources and original column indices of the columns
	// still iterating, compacted in place as columns retire.
	xs := make([]vector.Dense, k)
	cols := make([]int, k)
	for c := range x0s {
		x := vector.NewDense(int(n))
		if x0s[c] == nil {
			x.Fill(1 / float64(n))
		} else {
			copy(x, x0s[c])
		}
		xs[c] = x
		cols[c] = c
	}
	if maxIters < 1 {
		return xs, iters, nil
	}
	p, err := e.planFor(a)
	if err != nil {
		return nil, iters, err
	}
	norm := p.pageRankPlan(n)
	dangling := norm.dangling
	if overlap {
		hooks := pipelineHooks{
			update: func(_ int, src vector.Dense) func(vector.Dense) {
				base := teleportBase(src, dangling, damping, n)
				return func(seg vector.Dense) { dampSegment(seg, damping, base) }
			},
			converged: func(_ int, y, src vector.Dense) bool {
				return l1Delta(y, src) < tol
			},
		}
		ranks[0], iters[0], _ = e.iteratePipelined(norm, n, xs[0], maxIters, hooks)
		return ranks, iters, nil
	}

	e.reserveDense(k)
	ys := make([]vector.Dense, k)
	for it := 1; len(xs) > 0; it++ {
		var iterStart uint64
		if e.rec != nil {
			iterStart = e.rec.Now()
		}
		live := len(xs)
		ys = ys[:live]
		for i := range ys {
			ys[i] = e.getDense(int(n))
		}
		e.runPlan(norm, n, xs, nil, ys, nil)
		// Damp, test convergence, and retire or advance each live column.
		w := 0
		for i := 0; i < live; i++ {
			dampSegment(ys[i], damping, teleportBase(xs[i], dangling, damping, n))
			delta := l1Delta(ys[i], xs[i])
			e.putDense(xs[i])
			if delta < tol || it == maxIters {
				ranks[cols[i]] = ys[i]
				iters[cols[i]] = it
				continue
			}
			xs[w] = ys[i]
			cols[w] = cols[i]
			w++
		}
		xs = xs[:w]
		cols = cols[:w]
		// Columns that continue book their y-as-next-x round trip.
		for range xs {
			e.accountTransition(n, false)
		}
		e.recordIteration(it-1, iterStart)
	}
	return ranks, iters, nil
}

// teleportBase evaluates the iteration-dependent part of the update
// y = damping·A·x + base: teleport plus the dangling mass of the
// iteration's source vector, summed in index order on every schedule —
// the summation-order anchor of the scalar/block bit-identity contract.
// Dangling columns (sinks) push no mass through A, so ‖A·x‖₁ < 1 and
// rank mass would leak every iteration; redistributing their mass
// uniformly here keeps ‖x‖₁ = 1 exactly (up to rounding).
func teleportBase(x vector.Dense, dangling []uint64, damping float64, n uint64) float64 {
	mass := 0.0
	for _, j := range dangling {
		mass += x[j]
	}
	return (1-damping)/float64(n) + damping*mass/float64(n)
}
