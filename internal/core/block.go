package core

// Block (multi-vector) entry points: k right-hand sides per matrix pass
// (DESIGN.md §9, §11). They are the k-wide driver and loops called with
// k columns — the scalar entry points are the same code at k=1 — so a
// block run books exactly k sequential runs minus (k−1)× the matrix
// share, and because every column receives the identical per-column
// float operations in the identical order, the outputs are bit-identical
// to k sequential calls at any Workers/MergeWorkers setting.

import (
	"fmt"

	"mwmerge/internal/matrix"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
)

// BlockResult reports one block SpMV: the k dense outputs, and the
// per-column counter deltas the batch splits into. Deltas[c] is the
// ledger/statistics movement attributable to column c; the once-per-batch
// matrix + VLDI + HDN-filter charges land entirely in Deltas[0] (the
// column that streamed the matrix), so the deltas always sum to the
// batch's total counter movement.
type BlockResult struct {
	Ys     []vector.Dense
	Deltas []report.Counters
}

// SpMVBlock computes ys[c] = A·xs[c] + yIns[c] for every column c with
// one matrix pass. yIns may be nil (no additive inputs) or per-entry nil.
// With k=1 the result — output bits, ledger, statistics — is identical
// to SpMV. The returned vectors are freshly allocated and detached from
// the engine's arenas.
func (e *Engine) SpMVBlock(a *matrix.COO, xs, yIns []vector.Dense) (BlockResult, error) {
	var res BlockResult
	if len(xs) == 0 {
		return res, fmt.Errorf("core: block SpMV needs at least one right-hand side")
	}
	if yIns != nil && len(yIns) != len(xs) {
		return res, fmt.Errorf("core: %d y_in vectors for %d right-hand sides", len(yIns), len(xs))
	}
	for c := range xs {
		if err := e.cfg.CheckOperands(a, uint64(len(xs[c])), blockYIn(yIns, c)); err != nil {
			return res, err
		}
	}
	ys := make([]vector.Dense, len(xs))
	for c := range ys {
		ys[c] = vector.NewDense(int(a.Rows))
	}
	deltas := make([]report.Counters, len(xs))
	if err := e.spmvCompute(a, xs, yIns, ys, deltas); err != nil {
		return res, err
	}
	e.snapshot("spmv-block")
	res.Ys = ys
	res.Deltas = deltas
	return res, nil
}

// IterateBlockResult reports a block iterative run: the k final vectors
// and the iterations executed.
type IterateBlockResult struct {
	Xs         []vector.Dense
	Iterations int
}

// IterateBlock runs iterative SpMV over k columns at once, streaming the
// matrix once per iteration instead of once per column per iteration.
// Each column's result is bit-identical to a sequential Iterate of its
// start vector with the same options. Overlap is rejected: the ITS
// pipeline's bounded segment handoff is a two-buffer protocol between
// exactly one producer and one consumer vector, which a k-wide batch
// does not have — run columns separately when overlap matters more than
// matrix amortization.
func (e *Engine) IterateBlock(a *matrix.COO, x0s []vector.Dense, opt IterateOptions) (IterateBlockResult, error) {
	if len(x0s) == 0 {
		return IterateBlockResult{}, fmt.Errorf("core: block iteration needs at least one start vector")
	}
	if opt.Overlap {
		return IterateBlockResult{}, fmt.Errorf("core: block iteration does not support ITS overlap")
	}
	xs, _, err := e.iterate(a, x0s, opt)
	if err != nil {
		return IterateBlockResult{}, err
	}
	return IterateBlockResult{Xs: xs, Iterations: opt.Iterations}, nil
}

// PageRankBlockResult reports a multi-source block PageRank run: one
// rank vector and iteration count per requested column.
type PageRankBlockResult struct {
	Ranks      []vector.Dense
	Iterations []int
}

// PageRankBlock runs damped power iteration for k start vectors against
// one resident matrix — the multi-source variant of PageRank. x0s[c] is
// column c's start vector; a nil entry means the uniform start, making a
// k×nil run bit-identical per column to k sequential PageRank calls.
// Columns converge independently: a column whose L1 delta drops below
// tol retires from the batch with its iteration count while the rest
// continue, and shrinking the batch never perturbs the survivors — each
// column's numerics depend only on its own lane. The teleport model is
// the scalar one (uniform teleport plus dangling-mass redistribution),
// not personalized teleport, which is what keeps the per-segment update
// identical to PageRank's.
func (e *Engine) PageRankBlock(a *matrix.COO, x0s []vector.Dense, damping, tol float64, maxIters int) (PageRankBlockResult, error) {
	if len(x0s) == 0 {
		return PageRankBlockResult{}, fmt.Errorf("core: block PageRank needs at least one column")
	}
	ranks, iters, err := e.pageRank(a, x0s, damping, tol, maxIters, false)
	if err != nil {
		return PageRankBlockResult{}, err
	}
	return PageRankBlockResult{Ranks: ranks, Iterations: iters}, nil
}
