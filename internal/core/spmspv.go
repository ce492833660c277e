package core

import (
	"fmt"

	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
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
// the engine's step-1 bank. The returned y stays detached from every
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

	p, err := e.planFor(a)
	if err != nil {
		return nil, st, err
	}
	width := e.cfg.SegmentWidth()
	st.SegmentsTotal = len(p.stripes)

	// Scatter x nonzeros into per-segment dense buffers drawn from the
	// engine's free list (zeroed — free-list contents are unspecified);
	// segments with none stay nil.
	fr := e.frontier.sized(len(p.stripes))
	for _, r := range x.Recs {
		k := int(r.Key / width)
		s := &p.stripes[k]
		if fr.segs[k] == nil {
			seg := e.getDense(int(s.width))
			seg.Zero()
			fr.segs[k] = seg
		}
		fr.segs[k][r.Key-s.colStart] = r.Val
		fr.nnz[k]++
	}

	// The frontier's step 1: a zero-skipping multiply in place of the
	// dense one (sharing it would put a caller-specific branch in the
	// dense hot loop), into the same bank. Its records depend on the
	// frontier, so its books are summed per call; the matrix share is the
	// plan's, booked for every stripe that streamed.
	bank := &e.bank
	bank.sized(len(p.stripes), p.runs)
	var books stripeBooks
	for k := range p.stripes {
		s := &p.stripes[k]
		bank.lists[k] = nil
		if fr.segs[k] == nil {
			continue // inactive: zero traffic, zero work
		}
		st.SegmentsActive++
		recs, skipped := s.multiplyFrontier(fr.segs[k], bank.recs[s.recOff:s.recOff:s.recOff+len(s.rows)])
		bank.lists[k] = recs
		visited := s.nnz() - skipped
		st.EntriesVisited += visited
		st.EntriesSkipped += skipped
		books.add(&stripeBooks{
			column: e.vecBytes(recs).Add(report.Counters{
				// Only the x nonzeros stream on chip for a sparse vector.
				Traffic:             mem.Traffic{SourceVectorBytes: fr.nnz[k] * uint64(e.cfg.MetaBytes+e.cfg.ValueBytes)},
				Products:            visited,
				IntermediateRecords: uint64(len(recs)),
			}),
			matrix: s.books.matrix,
		})
	}
	// The scatter segments are dead once the stripe loop finishes.
	fr.release(e)

	e.noteStripeSkew(p)
	e.book(&books, true)
	y := vector.NewDense(int(a.Rows))
	e.runStep2Into(bank.lists, e.listCover(bank.lists, a.Rows), a.Rows, nil, y, nil)
	e.snapshot("spmspv")
	return y, st, nil
}

// multiplyFrontier is multiply for a frontier segment: products whose x
// operand is zero are skipped, and a run with none left emits no record.
// It appends to out (capacity for the run count) and returns the records
// and the skipped count.
func (s *runStripe) multiplyFrontier(xSeg []float64, out []types.Record) ([]types.Record, uint64) {
	var skipped uint64
	start := uint32(0)
	for r, end := range s.ends {
		var sum float64
		hit := false
		for i := start; i < end; i++ {
			xv := xSeg[s.cols[i]]
			if xv == 0 {
				skipped++
				continue
			}
			if prod := float64(s.vals[i] * xv); hit {
				sum += prod
			} else {
				sum, hit = prod, true
			}
		}
		if hit {
			out = append(out, types.Record{Key: s.rows[r], Val: sum})
		}
		start = end
	}
	return out, skipped
}
