// Package matrix implements the sparse matrix formats and partitioners the
// Two-Step SpMV accelerator operates on: row-major coordinate (RM-COO),
// compressed sparse row (CSR), and 1D column-blocking into stripes (the
// A_k of the paper's Fig. 3). RM-COO is used for hypersparse stripes
// (nnz < N), where CSR's O(N) row-pointer array is wasteful (paper §3.1).
package matrix

import (
	"errors"
	"fmt"
	"sort"
)

// Entry is one nonzero in coordinate form.
type Entry struct {
	Row, Col uint64
	Val      float64
}

// COO is a row-major coordinate-format sparse matrix: entries sorted by
// (row, col). This is the paper's RM-COO with O(nnz) space.
type COO struct {
	Rows, Cols uint64
	Entries    []Entry
}

// ErrShape reports invalid matrix dimensions or out-of-range entries.
var ErrShape = errors.New("matrix: invalid shape")

// NewCOO constructs a COO matrix from entries, sorting them into row-major
// order and coalescing duplicates (summing their values).
func NewCOO(rows, cols uint64, entries []Entry) (*COO, error) {
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, rows, cols)
	}
	for _, e := range entries {
		if e.Row >= rows || e.Col >= cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrShape, e.Row, e.Col, rows, cols)
		}
	}
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Row != es[j].Row {
			return es[i].Row < es[j].Row
		}
		return es[i].Col < es[j].Col
	})
	// Coalesce duplicates.
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].Row == e.Row && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	return &COO{Rows: rows, Cols: cols, Entries: out}, nil
}

// NNZ returns the number of stored nonzeros.
func (m *COO) NNZ() int { return len(m.Entries) }

// Dims returns (rows, cols).
func (m *COO) Dims() (uint64, uint64) { return m.Rows, m.Cols }

// Hypersparse reports whether nnz < max(rows, cols), the regime where
// RM-COO beats CSR (paper §3.1, citing Buluc & Gilbert).
func (m *COO) Hypersparse() bool {
	n := m.Rows
	if m.Cols > n {
		n = m.Cols
	}
	return uint64(len(m.Entries)) < n
}

// AvgDegree returns nnz/rows, the average out-degree when the matrix is a
// graph adjacency matrix.
func (m *COO) AvgDegree() float64 {
	if m.Rows == 0 {
		return 0
	}
	return float64(len(m.Entries)) / float64(m.Rows)
}

// Validate checks the row-major ordering and bounds invariants.
func (m *COO) Validate() error {
	for i, e := range m.Entries {
		if e.Row >= m.Rows || e.Col >= m.Cols {
			return fmt.Errorf("%w: entry %d at (%d,%d) outside %dx%d", ErrShape, i, e.Row, e.Col, m.Rows, m.Cols)
		}
		if i > 0 {
			p := m.Entries[i-1]
			if p.Row > e.Row || (p.Row == e.Row && p.Col >= e.Col) {
				return fmt.Errorf("matrix: entries not in strict row-major order at %d", i)
			}
		}
	}
	return nil
}

// RowDegrees returns the number of nonzeros in each row.
func (m *COO) RowDegrees() []uint64 {
	deg := make([]uint64, m.Rows)
	for _, e := range m.Entries {
		deg[e.Row]++
	}
	return deg
}

// MaxDegree returns the largest row degree.
func (m *COO) MaxDegree() uint64 {
	var best uint64
	for _, d := range m.RowDegrees() {
		if d > best {
			best = d
		}
	}
	return best
}

// Transpose returns the transpose in row-major COO form.
func (m *COO) Transpose() *COO {
	es := make([]Entry, len(m.Entries))
	for i, e := range m.Entries {
		es[i] = Entry{Row: e.Col, Col: e.Row, Val: e.Val}
	}
	t, err := NewCOO(m.Cols, m.Rows, es)
	if err != nil {
		panic("matrix: transpose of valid matrix failed: " + err.Error())
	}
	return t
}

// Clone returns a deep copy.
func (m *COO) Clone() *COO {
	return &COO{Rows: m.Rows, Cols: m.Cols, Entries: append([]Entry(nil), m.Entries...)}
}
