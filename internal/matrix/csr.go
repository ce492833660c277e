package matrix

import "fmt"

// CSR is a compressed-sparse-row matrix: RowPtr has Rows+1 entries and row
// r's nonzeros live in ColIdx/Vals[RowPtr[r]:RowPtr[r+1]], sorted by column.
// Space is O(N + nnz); for hypersparse stripes the O(N) row-pointer array
// dominates, which is why the accelerator switches to RM-COO there.
type CSR struct {
	Rows, Cols uint64
	RowPtr     []uint64
	ColIdx     []uint64
	Vals       []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Row returns the column indices and values of row r.
func (m *CSR) Row(r uint64) ([]uint64, []float64) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// ToCSR converts a row-major COO matrix to CSR.
func ToCSR(c *COO) *CSR {
	m := &CSR{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: make([]uint64, c.Rows+1),
		ColIdx: make([]uint64, len(c.Entries)),
		Vals:   make([]float64, len(c.Entries)),
	}
	for _, e := range c.Entries {
		m.RowPtr[e.Row+1]++
	}
	for r := uint64(0); r < c.Rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	for i, e := range c.Entries {
		m.ColIdx[i] = e.Col
		m.Vals[i] = e.Val
	}
	return m
}

// ToCOO converts back to row-major COO form.
func (m *CSR) ToCOO() *COO {
	es := make([]Entry, 0, len(m.ColIdx))
	for r := uint64(0); r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			es = append(es, Entry{Row: r, Col: c, Val: vals[i]})
		}
	}
	out, err := NewCOO(m.Rows, m.Cols, es)
	if err != nil {
		panic("matrix: CSR->COO of valid matrix failed: " + err.Error())
	}
	return out
}

// Validate checks the CSR invariants.
func (m *CSR) Validate() error {
	if uint64(len(m.RowPtr)) != m.Rows+1 {
		return fmt.Errorf("matrix: CSR rowptr length %d != rows+1 %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != uint64(len(m.ColIdx)) {
		return fmt.Errorf("matrix: CSR rowptr endpoints invalid")
	}
	if len(m.ColIdx) != len(m.Vals) {
		return fmt.Errorf("matrix: CSR colidx/vals length mismatch")
	}
	for r := uint64(0); r < m.Rows; r++ {
		if m.RowPtr[r] > m.RowPtr[r+1] {
			return fmt.Errorf("matrix: CSR rowptr decreasing at row %d", r)
		}
		cols, _ := m.Row(r)
		for i, c := range cols {
			if c >= m.Cols {
				return fmt.Errorf("matrix: CSR column %d out of range in row %d", c, r)
			}
			if i > 0 && cols[i-1] >= c {
				return fmt.Errorf("matrix: CSR columns not ascending in row %d", r)
			}
		}
	}
	return nil
}

// MetaBytesCSR returns the meta-data footprint in bytes of a CSR stripe
// with the given shape, using idxBytes-wide indices: rowptr (rows+1) plus
// one column index per nonzero.
func MetaBytesCSR(rows, nnz uint64, idxBytes int) uint64 {
	return (rows+1)*uint64(idxBytes) + nnz*uint64(idxBytes)
}

// MetaBytesCOO returns the meta-data footprint in bytes of an RM-COO
// stripe: row and column index per nonzero.
func MetaBytesCOO(nnz uint64, idxBytes int) uint64 {
	return 2 * nnz * uint64(idxBytes)
}

// BestStripeFormat picks the cheaper of CSR and RM-COO for a stripe with
// the given shape, returning the format name and its meta-data bytes.
// Hypersparse stripes favor RM-COO (paper §3.1).
func BestStripeFormat(rows, nnz uint64, idxBytes int) (string, uint64) {
	csr := MetaBytesCSR(rows, nnz, idxBytes)
	coo := MetaBytesCOO(nnz, idxBytes)
	if coo < csr {
		return "rm-coo", coo
	}
	return "csr", csr
}
