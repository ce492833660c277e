package bench

import (
	"math/rand"

	"mwmerge/internal/matrix"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
	"mwmerge/internal/vldi"
)

// collectStripeDeltas partitions m into stripes of the given width and
// returns the concatenated delta-index streams of the resulting
// intermediate-vector row patterns (the quantity VLDI compresses).
func collectStripeDeltas(m *matrix.COO, segWidth uint64) ([]uint64, error) {
	stripes, err := matrix.Partition1D(m, segWidth)
	if err != nil {
		return nil, err
	}
	var all []uint64
	for _, s := range stripes {
		var keys []uint64
		var prev uint64
		have := false
		for _, e := range s.Entries {
			if !have || e.Row != prev {
				keys = append(keys, e.Row)
				prev = e.Row
				have = true
			}
		}
		deltas, err := vldi.DeltasFromKeys(keys)
		if err != nil {
			return nil, err
		}
		all = append(all, deltas...)
	}
	return all, nil
}

// stripeLists converts a matrix into per-stripe sorted record lists, the
// intermediate-vector shape step 2 consumes (values are the raw entry
// values; good enough for merge-datapath ablations).
func stripeLists(m *matrix.COO, segWidth uint64) ([][]types.Record, error) {
	stripes, err := matrix.Partition1D(m, segWidth)
	if err != nil {
		return nil, err
	}
	lists := make([][]types.Record, len(stripes))
	for k, s := range stripes {
		var recs []types.Record
		for _, e := range s.Entries {
			if n := len(recs); n > 0 && recs[n-1].Key == e.Row {
				recs[n-1].Val += e.Val
				continue
			}
			recs = append(recs, types.Record{Key: e.Row, Val: e.Val})
		}
		lists[k] = recs
	}
	return lists, nil
}

// randomDense returns a reproducible random dense vector.
func randomDense(n uint64, seed int64) vector.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := vector.NewDense(int(n))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}
