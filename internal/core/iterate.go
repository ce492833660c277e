package core

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/report"
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
	// x' = Damping·A·x + (1-Damping)/N after each multiplication. A NaN
	// or infinite Damping is rejected.
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
// instead. Returns the bytes saved: the transition under overlap, 0
// when it is charged.
func (e *Engine) accountTransition(rows uint64, overlap bool) uint64 {
	transition := rows * uint64(e.cfg.ValueBytes) // y re-read as the next x
	if !overlap {
		e.acct.Charge(report.Counters{Traffic: mem.Traffic{ResultBytes: transition}})
		return 0
	}
	e.acct.Charge(report.Counters{TransitionBytesSaved: transition})
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
	if opt.Iterations < 1 {
		return IterateResult{}, fmt.Errorf("core: iteration count must be positive")
	}
	damping := opt.Damping
	if math.IsNaN(damping) || math.IsInf(damping, 0) {
		return IterateResult{}, fmt.Errorf("core: damping %g is not a finite number", damping)
	}
	if a.Rows != a.Cols {
		return IterateResult{}, fmt.Errorf("core: iterative SpMV needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if err := e.cfg.CheckIterativeCapacity(a.Rows, opt.Overlap); err != nil {
		return IterateResult{}, err
	}
	if err := e.cfg.CheckOperands(a, uint64(len(x0)), nil); err != nil {
		return IterateResult{}, err
	}
	p, err := e.planFor(a)
	if err != nil {
		return IterateResult{}, err
	}
	var h loopHooks
	if damping != 0 {
		base := (1 - damping) / float64(a.Rows)
		h.update = func(blk vector.Dense) { dampSegment(blk, damping, base) }
	}
	x, _, saved := e.loop(p, a.Rows, x0.Clone(), opt.Iterations, opt.Overlap, h)
	return IterateResult{X: x, Iterations: opt.Iterations, TransitionBytesSaved: saved}, nil
}

// PageRank runs damped power iteration from the uniform start until the
// L1 delta drops below tol or maxIters is reached, returning the rank
// vector and iterations used. It is the workload of the paper's
// iterative-SpMV optimization study. damping must lie in [0, 1], tol be
// a non-negative number and maxIters be positive.
// Dangling (all-zero) columns get the standard damped-PageRank
// correction: their rank mass is redistributed uniformly each iteration,
// so the returned vector always sums to 1. Inter-iteration transitions
// are accounted exactly as in Iterate, and overlap runs the ITS pipeline
// — bit-identical to the sequential schedule. The column-normalized
// operand is derived once from the matrix's cached plan and kept with
// it, so repeated calls, and SpMV calls in between, never plan again.
func (e *Engine) PageRank(a *matrix.COO, damping, tol float64, maxIters int, overlap bool) (vector.Dense, int, error) {
	// The negated comparisons reject NaN too: a NaN tol never converges
	// and a damping outside [0, 1] diverges until the ranks overflow.
	if !(damping >= 0 && damping <= 1) {
		return nil, 0, fmt.Errorf("core: PageRank damping %g outside [0, 1]", damping)
	}
	if !(tol >= 0) {
		return nil, 0, fmt.Errorf("core: PageRank tolerance %g is not a non-negative number", tol)
	}
	if maxIters < 1 {
		return nil, 0, fmt.Errorf("core: PageRank iteration cap %d must be positive", maxIters)
	}
	if a.Rows != a.Cols {
		return nil, 0, fmt.Errorf("core: PageRank needs a square matrix")
	}
	// Capacity is checked before planning: an over-capacity matrix must
	// fail fast, not after an O(nnz) partition.
	if err := e.cfg.CheckIterativeCapacity(a.Rows, overlap); err != nil {
		return nil, 0, err
	}
	n := a.Rows
	p, err := e.planFor(a)
	if err != nil {
		return nil, 0, err
	}
	x := e.getDense(int(n))
	x.Fill(1 / float64(n))
	norm := p.pageRankPlan(n)
	// mass is the dangling mass of the loop's current x: x0's here, then
	// each y's, summed beside the convergence check once step 2 ends, for
	// the iteration that reads y as its x. The loop asks converged only
	// between two step 2s, so mass is fixed while any block reads it.
	mass := danglingMass(x, norm.dangling)
	sums := workerCount(e.cfg.Merge.MergeWorkers, 2)
	h := loopHooks{
		update: func(blk vector.Dense) { dampSegment(blk, damping, teleportBase(mass, damping, n)) },
		converged: func(y, x vector.Dense) bool {
			var delta float64
			delta, mass = convergenceSums(sums, y, x, norm.dangling)
			return delta < tol
		},
	}
	ranks, iters, _ := e.loop(norm, n, x, maxIters, overlap, h)
	return ranks, iters, nil
}

// teleportBase evaluates the iteration-dependent part of the update
// y = damping·A·x + base: teleport plus the dangling mass of the
// iteration's source vector. Dangling columns (sinks) push no mass
// through A, so ‖A·x‖₁ < 1 and rank mass would leak every iteration;
// redistributing their mass uniformly here keeps ‖x‖₁ = 1 exactly (up
// to rounding).
func teleportBase(mass, damping float64, n uint64) float64 {
	return (1-damping)/float64(n) + damping*mass/float64(n)
}

// danglingMass sums x over the set bits of the dangling bitmap in
// ascending index order on every schedule — the summation-order anchor
// of the schedules' bit-identity contract, since the mass reaches y
// through teleportBase.
func danglingMass(x vector.Dense, dangling []uint64) float64 {
	mass := 0.0
	for w, word := range dangling {
		for ; word != 0; word &= word - 1 {
			mass += x[w<<6|bits.TrailingZeros64(word)]
		}
	}
	return mass
}

// convergenceSums returns PageRank's two ordered sums over an
// iteration's output y and source x: l1Delta(y, x), and y's dangling
// mass, which the next iteration's base needs. With w > 1 they run on
// two goroutines; neither is re-associated, so the bits do not depend
// on w.
func convergenceSums(w int, y, x vector.Dense, dangling []uint64) (delta, mass float64) {
	if w < 2 {
		return l1Delta(y, x), danglingMass(y, dangling)
	}
	return parallelConvergenceSums(y, x, dangling)
}

// parallelConvergenceSums is convergenceSums on two goroutines, kept
// apart so that the one-goroutine path allocates nothing.
func parallelConvergenceSums(y, x vector.Dense, dangling []uint64) (delta, mass float64) {
	fanOut(2, func(g int) {
		if g == 0 {
			delta = l1Delta(y, x)
		} else {
			mass = danglingMass(y, dangling)
		}
	})
	return delta, mass
}
