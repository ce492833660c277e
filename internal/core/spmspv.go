package core

import (
	"fmt"

	"mwmerge/internal/matrix"
	"mwmerge/internal/vector"
)

// SpMSpVStats reports the work-skipping effect of a sparse source vector.
type SpMSpVStats struct {
	// SegmentsTotal and SegmentsActive count stripes overall and
	// stripes whose x segment holds at least one nonzero; inactive
	// stripes are skipped entirely — no matrix stream, no x stream.
	SegmentsTotal, SegmentsActive int
	// EntriesVisited counts matrix nonzeros actually multiplied.
	EntriesVisited uint64
	// EntriesSkipped counts matrix nonzeros whose x operand was zero
	// inside an active segment (the multiplier emits nothing).
	EntriesSkipped uint64
}

// SpMSpV computes y = A·x for a sparse x (frontier-style workloads such
// as BFS, where x holds few nonzeros). Column stripes whose x segment is
// entirely zero are skipped before their matrix data is ever streamed —
// the sparse-input analogue of Two-Step's streaming discipline — and
// within active stripes only nonzero-operand products enter the
// intermediate vectors. Results match SpMV with the densified x exactly.
//
// Like the dense entry points, SpMSpV runs through the engine's plan
// cache and scratch arenas (DESIGN.md §9): the stripe partition is
// reused across calls against the same matrix, scatter segments come
// from the dense free list, and the intermediate record buffers live in
// the rotating step-1 banks. The returned y stays detached from every
// arena.
func (e *Engine) SpMSpV(a *matrix.COO, x *vector.Sparse) (vector.Dense, SpMSpVStats, error) {
	var st SpMSpVStats
	if x == nil {
		return nil, st, fmt.Errorf("core: nil sparse vector")
	}
	if err := e.cfg.CheckOperands(a, uint64(x.Dim), nil); err != nil {
		return nil, st, err
	}
	if err := x.Validate(); err != nil {
		return nil, st, err
	}

	plan, err := e.planFor(a)
	if err != nil {
		return nil, st, err
	}
	stripes := plan.stripes
	width := e.cfg.SegmentWidth()
	st.SegmentsTotal = len(stripes)

	// Scatter x nonzeros into per-segment dense buffers drawn from the
	// engine's free list (zeroed — free-list contents are unspecified);
	// segments with none stay nil.
	fr := e.frontier.sized(len(stripes))
	for _, r := range x.Recs {
		k := int(r.Key / width)
		if fr.segs[k] == nil {
			seg := e.getDense(int(stripes[k].Width))
			seg.Zero()
			fr.segs[k] = seg
		}
		fr.segs[k][r.Key-stripes[k].ColStart] = r.Val
		fr.nnz[k]++
	}

	// The frontier's step 1: a zero-skipping multiply in place of
	// step1Into (sharing it would put a caller-specific branch in the
	// dense hot loop), filling the same bank outcomes the shared
	// accounting, commit and step 2 take over from.
	bank := e.nextBank()
	bank.sized(len(stripes))
	for k, s := range stripes {
		bank.outcomes[k] = stripeOutcome{}
		if fr.segs[k] == nil {
			continue // inactive: zero traffic, zero work
		}
		st.SegmentsActive++
		scr := &bank.stripes[k]
		scr.v = vector.Sparse{Dim: int(s.Rows), Recs: scr.recsFor(s.NNZ())}
		var visited uint64
		for _, ent := range s.Entries {
			xv := fr.segs[k][ent.Col]
			if xv == 0 {
				st.EntriesSkipped++
				continue
			}
			visited++
			if err := scr.v.Accumulate(ent.Row, ent.Val*xv); err != nil {
				fr.release(e)
				return nil, st, err
			}
		}
		st.EntriesVisited += visited
		// Only the x nonzeros stream on chip for a sparse vector.
		sourceBytes := fr.nnz[k] * uint64(e.cfg.MetaBytes+e.cfg.ValueBytes)
		bank.outcomes[k] = e.accountStripe(s, scr, Step1Stats{Products: visited}, sourceBytes, true)
	}
	// The scatter segments are dead once the stripe loop finishes.
	fr.release(e)

	lists, err := e.commitOutcomes(stripes, bank, 0)
	if err != nil {
		return nil, st, err
	}
	y := vector.NewDense(int(a.Rows))
	if err := e.runStep2Into(lists, a.Rows, nil, y, 0, nil); err != nil {
		return nil, st, err
	}
	e.snapshot("spmspv")
	return y, st, nil
}
