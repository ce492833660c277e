package core

// The iteration loop behind Iterate and PageRank. The loop is one column
// wide and runs one schedule: step 1 of iteration i+1 reads the y that
// step 2 of iteration i finished. ITS (paper Fig. 15) is booked, not
// staged: with overlap the engine checks the halved capacity
// (CheckIterativeCapacity) and books each transition as kept on chip
// instead of as a y round trip (accountTransition), while the cycle-level
// overlap of step 2 with the next step 1 is internal/sim's (ablation-its).
// Step 2 applies the element-wise update to each block right after
// accumulating it, and every iteration shares its commit, convergence
// check and snapshot, so the overlap flag moves the books alone: every
// element receives the same float64 operations in the same order at any
// Workers/MergeWorkers setting.

import (
	"math"

	"mwmerge/internal/vector"
)

// dampSegment applies the damped update y := damping·y + base to one
// segment: the same two per-element statements wherever the segment is
// cut, so applying it per step-2 block is bit-identical to applying it
// to the whole vector after step 2.
func dampSegment(seg vector.Dense, damping, base float64) {
	for i := range seg {
		seg[i] *= damping
		seg[i] += base
	}
}

// l1Delta returns ‖y − x‖₁, accumulated in index order, so its bits do
// not depend on the worker counts. A NaN difference makes the sum NaN,
// which compares false against any tolerance.
func l1Delta(y, x vector.Dense) float64 {
	delta := 0.0
	for i := range y {
		delta += math.Abs(y[i] - x[i])
	}
	return delta
}

// loopHooks parameterizes loop for its two workloads (damped iteration;
// PageRank with convergence).
type loopHooks struct {
	// update, when non-nil, is the element-wise post-step-2 update of
	// every iteration. Step 2 applies it to each block of y as it
	// finishes the block (runStep2Into).
	update func(blk vector.Dense)
	// converged, when non-nil, reports whether the iteration stops before
	// maxIters given its output y and its source x.
	converged func(y, x vector.Dense) bool
}

// loop runs up to maxIters SpMV applications of the matrix planned in p
// (rows rows) starting from x, which it owns and recycles, and returns
// the final vector, the iterations run and the transition bytes kept on
// chip. It stops when h.converged says so or at maxIters. overlap only
// selects how each transition is booked (accountTransition).
func (e *Engine) loop(p *enginePlan, rows uint64, x vector.Dense, maxIters int, overlap bool, h loopHooks) (vector.Dense, int, uint64) {
	defer e.dropCols()
	var saved, iterStart uint64
	if e.rec != nil {
		iterStart = e.rec.Now()
	}
	for it := 0; ; it++ {
		e.step1Compute(p, col(&e.one.x, x))
		e.chargeDetector(p)
		y := e.getDense(int(rows))
		e.runStep2Into(e.commit(p, 0), &p.cover, rows, nil, y, h.update)
		stop := it == maxIters-1 || h.converged != nil && h.converged(y, x)
		e.putDense(x)
		if stop {
			e.recordIteration(it, iterStart)
			return y, it + 1, saved
		}
		x = y
		// The next iteration reads y as its x: book that transition.
		saved += e.accountTransition(rows, overlap)
		e.recordIteration(it, iterStart)
		if e.rec != nil {
			iterStart = e.rec.Now()
		}
	}
}
