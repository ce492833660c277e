package matrix

import (
	"fmt"
)

// Stripe is one vertical column block A_k of the 1D partitioning in the
// paper's Fig. 3. Entries keep their global row indices but hold
// stripe-local column indices in [0, Width); the stripe pairs with the
// source-vector segment x_k of the same width. Entries are in row-major
// order, so step 1 emits products with monotonically non-decreasing row
// indices — the property the intermediate vectors' sortedness rests on.
type Stripe struct {
	Index    int    // stripe number k
	ColStart uint64 // first global column covered
	Width    uint64 // number of columns covered
	Rows     uint64 // global row dimension
	Entries  []Entry
}

// NNZ returns the stripe's nonzero count.
func (s *Stripe) NNZ() int { return len(s.Entries) }

// Hypersparse reports whether the stripe has fewer nonzeros than rows.
func (s *Stripe) Hypersparse() bool { return uint64(len(s.Entries)) < s.Rows }

// Partition1D cuts m into vertical stripes of the given column width
// (the last stripe may be narrower). Width is dictated by the on-chip
// scratchpad: one source-vector segment of Width elements must fit.
func Partition1D(m *COO, width uint64) ([]*Stripe, error) {
	if width == 0 {
		return nil, fmt.Errorf("matrix: stripe width must be positive")
	}
	n := int((m.Cols + width - 1) / width)
	stripes := make([]*Stripe, n)
	for k := range stripes {
		start := uint64(k) * width
		w := width
		if start+w > m.Cols {
			w = m.Cols - start
		}
		stripes[k] = &Stripe{Index: k, ColStart: start, Width: w, Rows: m.Rows}
	}
	// Size every stripe exactly: growing by append would copy each one
	// ~log(nnz) times and leave up to 2× its payload in slack capacity.
	for k, nnz := range StripeNNZHistogram(m, width) {
		if nnz > 0 {
			stripes[k].Entries = make([]Entry, 0, nnz)
		}
	}
	// m is row-major; distributing in order preserves row-major order
	// within each stripe.
	for _, e := range m.Entries {
		k := int(e.Col / width)
		s := stripes[k]
		s.Entries = append(s.Entries, Entry{Row: e.Row, Col: e.Col - s.ColStart, Val: e.Val})
	}
	return stripes, nil
}

// Validate checks stripe-local bounds and row-major ordering.
func (s *Stripe) Validate() error {
	for i, e := range s.Entries {
		if e.Row >= s.Rows || e.Col >= s.Width {
			return fmt.Errorf("matrix: stripe %d entry %d out of bounds", s.Index, i)
		}
		if i > 0 {
			p := s.Entries[i-1]
			if p.Row > e.Row || (p.Row == e.Row && p.Col >= e.Col) {
				return fmt.Errorf("matrix: stripe %d not row-major at %d", s.Index, i)
			}
		}
	}
	return nil
}

// Block is one tile of a 2D partitioning, used by the partition-based
// parallelization of paper §4.1 (the unscalable alternative to PRaP).
type Block struct {
	RowBlock, ColBlock int
	RowStart, ColStart uint64
	RowWidth, ColWidth uint64
	Entries            []Entry // global indices shifted to block-local
}

// Partition2D tiles m into blocks of rowWidth x colWidth.
func Partition2D(m *COO, rowWidth, colWidth uint64) ([][]*Block, error) {
	if rowWidth == 0 || colWidth == 0 {
		return nil, fmt.Errorf("matrix: block widths must be positive")
	}
	nr := int((m.Rows + rowWidth - 1) / rowWidth)
	nc := int((m.Cols + colWidth - 1) / colWidth)
	blocks := make([][]*Block, nr)
	for i := range blocks {
		blocks[i] = make([]*Block, nc)
		for j := range blocks[i] {
			rs, cs := uint64(i)*rowWidth, uint64(j)*colWidth
			rw, cw := rowWidth, colWidth
			if rs+rw > m.Rows {
				rw = m.Rows - rs
			}
			if cs+cw > m.Cols {
				cw = m.Cols - cs
			}
			blocks[i][j] = &Block{
				RowBlock: i, ColBlock: j,
				RowStart: rs, ColStart: cs,
				RowWidth: rw, ColWidth: cw,
			}
		}
	}
	for _, e := range m.Entries {
		i, j := int(e.Row/rowWidth), int(e.Col/colWidth)
		b := blocks[i][j]
		b.Entries = append(b.Entries, Entry{Row: e.Row - b.RowStart, Col: e.Col - b.ColStart, Val: e.Val})
	}
	return blocks, nil
}

// StripeNNZHistogram returns per-stripe nonzero counts for a given width,
// without materializing the stripes — used by the VLDI width optimizer.
func StripeNNZHistogram(m *COO, width uint64) []uint64 {
	n := int((m.Cols + width - 1) / width)
	counts := make([]uint64, n)
	for _, e := range m.Entries {
		counts[e.Col/width]++
	}
	return counts
}
