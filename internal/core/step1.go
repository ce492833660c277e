package core

import (
	"fmt"
	"math"

	"mwmerge/internal/matrix"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// multiply computes the partial SpMV v_k = A_k · x_k for one stripe into
// out, one record per row run: the run's dot product with the x segment.
// Runs ascend by row, so v_k is emitted already sorted by row index —
// the invariant step 2 depends on. The sum starts from the run's first
// product and adds the rest in entry order, exactly the adder chain's
// order (a zero start would turn a lone -0.0 product into +0.0), and
// each product is rounded before it is added, so no fused multiply-add
// can change a bit. The plan guarantees every column index is inside
// the segment and len(out) is the run count.
//
// It first streams xSeg: the paper's segment load into the scratchpad
// (Fig. 4), after which the products' random reads hit cache instead of
// DRAM. The load only reads, so the products, and the ledger, which
// books it as the source-vector stream, do not change.
func (s *runStripe) multiply(xSeg []float64, out []types.Record) {
	streamSegment(xSeg)
	start := uint32(0)
	for r, end := range s.ends {
		cols, vals := s.cols[start:end], s.vals[start:end]
		sum := float64(vals[0] * xSeg[cols[0]])
		for i := 1; i < len(cols); i++ {
			sum += float64(vals[i] * xSeg[cols[i]])
		}
		out[r] = types.Record{Key: s.rows[r], Val: sum}
		start = end
	}
}

// lineElems is the float64 elements of one 64-byte cache line.
const lineElems = 64 / 8

// streamSegment reads xSeg once, in ascending order, one load per cache
// line, and returns the loaded words folded together. It is not inlined,
// so its result is live and the compiler cannot drop the loads, though
// every caller discards it.
//
//go:noinline
func streamSegment(xSeg []float64) uint64 {
	var fold uint64
	for i := 0; i < len(xSeg); i += lineElems {
		fold |= math.Float64bits(xSeg[i])
	}
	return fold
}

// referenceSpMV computes y = A·x + y densely, the oracle every pipeline
// variant is validated against.
func referenceSpMV(a *matrix.COO, x, y vector.Dense) (vector.Dense, error) {
	if uint64(len(x)) != a.Cols {
		return nil, fmt.Errorf("core: x dimension %d != %d columns", len(x), a.Cols)
	}
	out := vector.NewDense(int(a.Rows))
	if y != nil {
		if uint64(len(y)) != a.Rows {
			return nil, fmt.Errorf("core: y dimension %d != %d rows", len(y), a.Rows)
		}
		copy(out, y)
	}
	for _, e := range a.Entries {
		out[e.Row] += e.Val * x[e.Col]
	}
	return out, nil
}

// ReferenceSpMV exposes the dense oracle for examples and baselines.
func ReferenceSpMV(a *matrix.COO, x, y vector.Dense) (vector.Dense, error) {
	return referenceSpMV(a, x, y)
}
