package core

import (
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
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
// PRaP merge. Functionally identical to SpMV; the price is the extra
// round-trip traffic, which the ledger records.
func (e *Engine) SpMVSliced(a *matrix.COO, x, yIn vector.Dense) (vector.Dense, int, error) {
	// No capacity bound here: slicing exists precisely to exceed it.
	if err := checkVectors(a.Rows, a.Cols, uint64(len(x)), yIn); err != nil {
		return nil, 0, err
	}
	stripes, err := matrix.Partition1D(a, e.cfg.SegmentWidth())
	if err != nil {
		return nil, 0, err
	}
	// Step 1 is the shared one (k=1), past the plan cache: its merge-way
	// bound is what this entry point lifts.
	bank := e.nextBank()
	defer e.dropCols()
	e.step1Compute(stripes, col(&e.one.x, x), nil, nil, bank)
	lists, err := e.commitOutcomes(stripes, bank, 0)
	if err != nil {
		return nil, 0, err
	}

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
			batch := lists[off:end]
			// Reading each batch list and writing the combined list are
			// extra DRAM round trips beyond the baseline two-step flow.
			for _, l := range batch {
				e.chargeIntermediateRead(l)
			}
			combined := merge.MergeAccumulate(batch)
			b, comp, uncomp := e.vecBytes(combined)
			e.ledger.Charge(mem.Traffic{IntermediateWrite: b})
			e.stats.CompressedVecBytes += comp
			e.stats.UncompressedVecBytes += uncomp
			next = append(next, combined)
		}
		lists = next
	}
	y := vector.NewDense(int(a.Rows))
	if err := e.runStep2Into(lists, a.Rows, yIn, y, 0, nil); err != nil {
		return nil, passes, err
	}
	e.snapshot("sliced")
	return y, passes, nil
}
