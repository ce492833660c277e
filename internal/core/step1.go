package core

import (
	"fmt"

	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/vector"
)

// Step1Stats describes one partial-SpMV pass over a stripe.
type Step1Stats struct {
	Products        uint64 // multiplier outputs
	Records         uint64 // records emitted to the intermediate vector
	HDN             hdn.RouteStats
	ScratchpadReads uint64
}

// step1 computes the partial SpMV v_k = A_k · x_k for one stripe. The
// stripe's row-major order makes same-row products consecutive, so the
// adder chain reduces them on the fly and v_k is emitted already sorted by
// row index — the invariant step 2 depends on.
//
// When an HDN detector is present, each row's reduction is attributed to
// either the HDN or the general pipeline (functionally identical; the
// split feeds the §5.3 ablation).
func step1(stripe *matrix.Stripe, xSeg []float64, det *hdn.Detector) (*vector.Sparse, Step1Stats, error) {
	v := vector.NewSparse(int(stripe.Rows), stripe.NNZ())
	st, err := step1Into(v, stripe, xSeg, det)
	if err != nil {
		return nil, st, err
	}
	return v, st, nil
}

// step1Into is step1 emitting into the caller-provided sparse vector
// (records appended after its current tail, normally empty) — the
// arena-backed form the engine's recycled stripe slots use.
func step1Into(v *vector.Sparse, stripe *matrix.Stripe, xSeg []float64, det *hdn.Detector) (Step1Stats, error) {
	var st Step1Stats
	if uint64(len(xSeg)) < stripe.Width {
		return st, fmt.Errorf("core: segment of %d elements narrower than stripe width %d", len(xSeg), stripe.Width)
	}
	for _, e := range stripe.Entries {
		x := xSeg[e.Col]
		st.ScratchpadReads++
		prod := e.Val * x
		st.Products++
		if det != nil {
			if det.IsHDN(e.Row) {
				st.HDN.HDNRecords++
				if !det.IsHDNExact(e.Row) {
					st.HDN.FalseRouted++
				}
			} else {
				st.HDN.GeneralRecords++
			}
		}
		if err := v.Accumulate(e.Row, prod); err != nil {
			return st, fmt.Errorf("core: stripe %d: %w", stripe.Index, err)
		}
	}
	st.Records = uint64(v.NNZ())
	return st, nil
}

// step1Lanes is the P-lane variant: entries are processed in batches of P
// (one per multiplier lane), preserving row-major order at the adder
// chains. It returns the same vector as step1 plus the number of batch
// cycles, so tests can confirm lane parallelization does not perturb
// results.
func step1Lanes(stripe *matrix.Stripe, xSeg []float64, lanes int) (*vector.Sparse, uint64, error) {
	if lanes < 1 {
		return nil, 0, fmt.Errorf("core: lane count must be positive")
	}
	if uint64(len(xSeg)) < stripe.Width {
		return nil, 0, fmt.Errorf("core: segment narrower than stripe width")
	}
	v := vector.NewSparse(int(stripe.Rows), stripe.NNZ())
	var cycles uint64
	ents := stripe.Entries
	for off := 0; off < len(ents); off += lanes {
		end := off + lanes
		if end > len(ents) {
			end = len(ents)
		}
		cycles++
		// Lanes write back in entry order; the adder chain merges
		// same-row runs exactly as the sequential path does.
		for _, e := range ents[off:end] {
			if err := v.Accumulate(e.Row, e.Val*xSeg[e.Col]); err != nil {
				return nil, cycles, err
			}
		}
	}
	return v, cycles, nil
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
