package core

// Block (multi-vector) SpMV: k right-hand sides per matrix pass
// (DESIGN.md §9, §11). SpMVBlock is the k-wide driver called with k
// columns — SpMV is the same code at k=1 — so a block run books exactly
// k sequential runs minus (k−1)× the matrix share, and because every
// column receives the identical per-column float operations in the
// identical order, the outputs are bit-identical to k sequential calls
// at any Workers/MergeWorkers setting.

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
