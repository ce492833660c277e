// Package vector provides the dense and sorted-sparse vector types used by
// the Two-Step SpMV algorithm. Intermediate vectors (the v_k of the paper's
// Fig. 3) are sorted-sparse; source and result vectors are dense.
package vector

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mwmerge/internal/types"
)

// Dense is a dense vector of float64 values.
type Dense []float64

// NewDense returns a zeroed dense vector of dimension n.
func NewDense(n int) Dense { return make(Dense, n) }

// Clone returns a copy of d.
func (d Dense) Clone() Dense {
	c := make(Dense, len(d))
	copy(c, d)
	return c
}

// Fill sets every element to v.
func (d Dense) Fill(v float64) {
	for i := range d {
		d[i] = v
	}
}

// Zero clears the vector.
func (d Dense) Zero() { d.Fill(0) }

// Scale multiplies every element by s.
func (d Dense) Scale(s float64) {
	for i := range d {
		d[i] *= s
	}
}

// Norm1 returns the L1 norm.
func (d Dense) Norm1() float64 {
	var s float64
	for _, v := range d {
		s += math.Abs(v)
	}
	return s
}

// NNZ counts nonzero elements.
func (d Dense) NNZ() int {
	n := 0
	for _, v := range d {
		if v != 0 {
			n++
		}
	}
	return n
}

// MaxAbsDiff returns the largest absolute element-wise difference between d
// and o, for test comparisons of competing SpMV implementations. Equal
// elements, equal infinities and a NaN in both differ by 0; a NaN in one
// only differs by +Inf, so a NaN result never passes for a match.
func (d Dense) MaxAbsDiff(o Dense) float64 {
	n := len(d)
	if len(o) > n {
		n = len(o)
	}
	var m float64
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(d) {
			a = d[i]
		}
		if i < len(o) {
			b = o[i]
		}
		diff := math.Abs(a - b)
		switch {
		case a == b || math.IsNaN(a) && math.IsNaN(b):
			diff = 0
		case math.IsNaN(diff):
			diff = math.Inf(1)
		}
		if diff > m {
			m = diff
		}
	}
	return m
}

// Sparse is a sparse vector sorted by ascending index. It is the on-DRAM
// representation of the intermediate vectors produced by step 1: the merge
// network depends on this ordering.
type Sparse struct {
	// Dim is the logical dimension of the vector.
	Dim int
	// Recs holds the nonzero elements in strictly ascending key order.
	Recs []types.Record
}

// ErrUnsorted reports a sparse vector whose records are not strictly
// ascending by key.
var ErrUnsorted = errors.New("vector: sparse records not strictly ascending")

// NewSparse returns an empty sparse vector of dimension dim with capacity
// for hint records.
func NewSparse(dim, hint int) *Sparse {
	return &Sparse{Dim: dim, Recs: make([]types.Record, 0, hint)}
}

// NNZ returns the number of stored records.
func (s *Sparse) NNZ() int { return len(s.Recs) }

// Append adds a record, which must have a key strictly greater than the
// current last key (sequential generation, as guaranteed by step 1).
func (s *Sparse) Append(r types.Record) error {
	if n := len(s.Recs); n > 0 && s.Recs[n-1].Key >= r.Key {
		return fmt.Errorf("%w: key %d after %d", ErrUnsorted, r.Key, s.Recs[n-1].Key)
	}
	if r.Key >= uint64(s.Dim) {
		return fmt.Errorf("vector: key %d out of dimension %d", r.Key, s.Dim)
	}
	// Arena-backed record store; the engine's stripe scratch presizes capacity to NNZ.
	s.Recs = append(s.Recs, r)
	return nil
}

// Accumulate adds val at index key, combining with an existing trailing
// record when the key matches the last one (adder-chain semantics: step 1
// emits products for one row consecutively).
func (s *Sparse) Accumulate(key uint64, val float64) error {
	if n := len(s.Recs); n > 0 && s.Recs[n-1].Key == key {
		s.Recs[n-1].Val += val
		return nil
	}
	return s.Append(types.Record{Key: key, Val: val})
}

// Validate checks the strict ordering invariant.
func (s *Sparse) Validate() error {
	for i := 1; i < len(s.Recs); i++ {
		if s.Recs[i-1].Key >= s.Recs[i].Key {
			return fmt.Errorf("%w: position %d", ErrUnsorted, i)
		}
	}
	if n := len(s.Recs); n > 0 && s.Recs[n-1].Key >= uint64(s.Dim) {
		return fmt.Errorf("vector: key %d out of dimension %d", s.Recs[n-1].Key, s.Dim)
	}
	return nil
}

// ToDense scatters the sparse vector into a new dense vector.
func (s *Sparse) ToDense() Dense {
	d := NewDense(s.Dim)
	for _, r := range s.Recs {
		d[r.Key] += r.Val
	}
	return d
}

// FromDense gathers the nonzeros of d into a sorted sparse vector.
func FromDense(d Dense) *Sparse {
	s := NewSparse(len(d), d.NNZ())
	for i, v := range d {
		if v != 0 {
			s.Recs = append(s.Recs, types.Record{Key: uint64(i), Val: v})
		}
	}
	return s
}

// SortRecords sorts a record slice by key, preserving the relative order of
// equal keys (stable), matching the pre-sorter's stability requirement.
func SortRecords(recs []types.Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
}
