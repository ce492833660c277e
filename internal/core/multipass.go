package core

import (
	"mwmerge/internal/matrix"
	"mwmerge/internal/merge"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// SpMVSliced computes y = A·x + yIn for problems whose stripe count
// exceeds the merge network's K ways — the "slicing and partitioning
// larger graphs" regime the paper notes prior accelerators fall into
// (§1). Intermediate vectors are merged in batches of K: each batch
// collapses to one combined sorted vector that makes an extra DRAM round
// trip, and passes repeat until at most K lists remain for the final
// step 2. Functionally identical to SpMV; the price is the extra
// round-trip traffic, which the ledger records.
func (e *Engine) SpMVSliced(a *matrix.COO, x, yIn vector.Dense) (vector.Dense, int, error) {
	// No capacity bound here: slicing exists precisely to exceed it.
	if err := checkVectors(a.Rows, a.Cols, uint64(len(x)), yIn); err != nil {
		return nil, 0, err
	}
	// Step 1 is the shared one (k=1) on a plan built past the cache: the
	// cache's merge-way bound is what this entry point lifts.
	p, err := e.planCOO(a, nil)
	if err != nil {
		return nil, 0, err
	}
	bank := e.nextBank()
	defer e.dropCols()
	e.step1Compute(p, col(&e.one.x, x), nil, bank)
	lists := e.commit(p, bank, 0)

	passes := 0
	ways := e.cfg.Merge.Ways
	for len(lists) > ways {
		passes++
		var next [][]types.Record
		for off := 0; off < len(lists); off += ways {
			end := off + ways
			if end > len(lists) {
				end = len(lists)
			}
			// The combined list is an extra DRAM round trip beyond the
			// baseline two-step flow; the batch lists' reads were booked
			// with their writes.
			combined := merge.MergeAccumulate(lists[off:end])
			e.chargeRoundTrip(e.vecBytes(combined))
			next = append(next, combined)
		}
		lists = next
	}
	y := vector.NewDense(int(a.Rows))
	e.runStep2Into(lists, e.listCover(lists, a.Rows), a.Rows, yIn, y, nil)
	e.snapshot("sliced")
	return y, passes, nil
}
