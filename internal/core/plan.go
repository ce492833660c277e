package core

// The run plan (DESIGN.md §9): everything step 1 needs that depends only
// on the matrix and the engine configuration, built once and reused by
// every call against the same matrix. It holds the stripes in the form
// step 1 reads them — row runs — and, because for a dense x each
// stripe's records, keys and byte counts are fixed by its key pattern,
// the stripe's complete books. Step 1 then only multiplies; the books
// are added, not recomputed, per call. PageRank's column-normalized
// operand is a values-only sibling of the plan (pageRankPlan).

import (
	"fmt"
	"math"
	"sort"

	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/types"
	"mwmerge/internal/vldi"
)

// enginePlan is one matrix prepared for step 1. It is immutable once
// built, so concurrent step-1 runs of the ITS pipeline share it freely.
type enginePlan struct {
	matrix  *matrix.COO // the cache key; nil for a plan built per call
	stripes []runStripe
	det     *hdn.Detector
	// runs is one column's record count: the stripes' run counts summed,
	// which sizes a bank's record arena exactly.
	runs int
	// nnz and maxNNZ are the stripes' nonzeros summed and the heaviest
	// stripe's: the detector pass and the skew statistics.
	nnz, maxNNZ uint64
	// books is the stripes' books summed: what one dense step 1 of one
	// column adds to the ledger and the statistics.
	books stripeBooks
	// cover is step 2's view of the stripes' lists (step2.go): for a
	// dense x their keys are the run rows, so the merge statistics and
	// the keys some list holds are plan constants.
	cover keyCover
	// lpt is the ungated dispatch order: stripe indices heaviest first
	// (longest processing time), ties toward the lower index, so a skewed
	// stripe starts first instead of landing on a busy worker at the tail.
	lpt []int
	// pr is the PageRank sibling (pageRankPlan), built on the first
	// PageRank call against the matrix and nil until then. dangling is
	// set in a sibling only: the columns whose values sum to exactly 0.
	pr       *enginePlan
	dangling []uint64
}

// runStripe is one stripe A_k in the form step 1 reads: its nonzeros
// grouped into row runs, one per distinct row in ascending order, each a
// contiguous slice of stripe-local column indices and values. The row id
// is stored once per run rather than once per nonzero — the CSR/RM-COO
// hybrid the ledger charges for (§3.1) — and columns fit 32 bits, so a
// stripe costs 12 bytes per run plus 12 per nonzero where matrix.Entry
// costs 24 per nonzero. Step 1 emits exactly one record per run.
type runStripe struct {
	colStart, width uint64
	rows            []uint64 // rows[r] is run r's row, strictly ascending
	ends            []uint32 // run r holds entries [ends[r-1], ends[r]), ends[-1] = 0
	cols            []uint32 // stripe-local column of each entry
	vals            []float64
	// recOff is the offset of the stripe's records in one column's arena.
	recOff int
	// books is what one step 1 of the stripe against a dense x adds to
	// the ledger and the statistics.
	books stripeBooks
}

func (s *runStripe) nnz() uint64 { return uint64(len(s.vals)) }

// stripeBooks is one stripe's step-1 accounting. For a dense x it is a
// function of the stripe's key pattern alone — step 1 emits one record
// per run whatever the products' values — so the plan computes it once
// (bookStripe). SpMSpV, whose records depend on the frontier, fills one
// per call.
type stripeBooks struct {
	products, records uint64
	hdn               hdn.RouteStats
	source            uint64   // x bytes streamed on chip
	vec               vecBooks // the intermediate list
	// The matrix share: the stripe stream's bytes (values plus
	// meta-data) and its meta-data bytes after and before VLDI. A k-wide
	// run books it for column 0 only.
	matrix             uint64
	compMat, uncompMat uint64
}

// add sums o into b.
func (b *stripeBooks) add(o *stripeBooks) {
	b.products += o.products
	b.records += o.records
	b.hdn.HDNRecords += o.hdn.HDNRecords
	b.hdn.GeneralRecords += o.hdn.GeneralRecords
	b.hdn.FalseRouted += o.hdn.FalseRouted
	b.source += o.source
	b.vec.add(o.vec)
	b.matrix += o.matrix
	b.compMat += o.compMat
	b.uncompMat += o.uncompMat
}

// vecBooks is one intermediate list's DRAM footprint, with the
// compressed and uncompressed byte counts behind the statistics.
type vecBooks struct{ footprint, compressed, uncompressed uint64 }

func (v *vecBooks) add(o vecBooks) {
	v.footprint += o.footprint
	v.compressed += o.compressed
	v.uncompressed += o.uncompressed
}

// book adds books — one stripe's, or a plan's summed — to the ledger and
// the statistics, with the matrix share when this column streamed the
// stripes (column 0 of a k-wide run; DESIGN.md §9).
func (e *Engine) book(b *stripeBooks, matrixShare bool) {
	t := mem.Traffic{SourceVectorBytes: b.source}
	if matrixShare {
		t.MatrixBytes = b.matrix
		e.stats.CompressedMatBytes += b.compMat
		e.stats.UncompressedMatBytes += b.uncompMat
	}
	e.ledger.Charge(t)
	e.chargeRoundTrip(b.vec)
	e.stats.Products += b.products
	e.stats.IntermediateRecords += b.records
	e.stats.HDN.HDNRecords += b.hdn.HDNRecords
	e.stats.HDN.GeneralRecords += b.hdn.GeneralRecords
	e.stats.HDN.FalseRouted += b.hdn.FalseRouted
}

// chargeRoundTrip books one intermediate list's DRAM round trip. Every
// list — a stripe's step-1 output or a slicing pass's combined list — is
// read back exactly once, by the merge that consumes it, so its read is
// booked together with its write.
func (e *Engine) chargeRoundTrip(v vecBooks) {
	e.ledger.Charge(mem.Traffic{IntermediateWrite: v.footprint, IntermediateRead: v.footprint})
	e.stats.CompressedVecBytes += 2 * v.compressed
	e.stats.UncompressedVecBytes += 2 * v.uncompressed
}

// planFor returns the cached plan for a, rebuilding it when the matrix
// pointer changed. A *matrix.COO handed to the engine is treated as
// immutable for as long as it is reused. The detector build and the
// partition are deterministic in (a, cfg), so a cached plan is
// indistinguishable from a rebuilt one; the per-run detector charge
// (chargeDetector) stays with the callers.
func (e *Engine) planFor(a *matrix.COO) (*enginePlan, error) {
	if e.plan != nil && e.plan.matrix == a {
		return e.plan, nil
	}
	if w := e.cfg.SegmentWidth(); w > 0 {
		if n := (a.Cols + w - 1) / w; n > uint64(e.cfg.Merge.Ways) {
			return nil, fmt.Errorf("core: %d stripes exceed %d merge ways", n, e.cfg.Merge.Ways)
		}
	}
	var det *hdn.Detector
	if e.cfg.HDN != nil {
		var err error
		if det, err = hdn.Build(a, *e.cfg.HDN); err != nil {
			return nil, err
		}
	}
	p, err := e.planCOO(a, det)
	if err != nil {
		return nil, err
	}
	p.matrix = a
	e.plan = p
	return p, nil
}

// pageRankPlan returns the PageRank operand of the n×n matrix p plans: a
// sibling plan whose values are column-normalized (every column whose
// values do not sum to exactly 0 sums to 1; one that does keeps its
// values), with those zero-sum columns — the dangling ones, which push
// no rank mass through A — listed ascending. Normalizing changes only
// values, so the sibling shares p's row runs, columns, books, step-2
// cover, detector and LPT order and owns one new value slab. It is built on first use
// and kept in p, so it lives exactly as long as the plain plan; the
// engine's single-caller contract means no step-1 run reads p while it
// is attached.
func (p *enginePlan) pageRankPlan(n uint64) *enginePlan {
	if p.pr != nil {
		return p.pr
	}
	// A column lies in one stripe, whose entries keep the matrix's entry
	// order, so walking the stripes in run order adds each column's values
	// in entry order: the sums, and the quotients below, are those of a
	// pass over the matrix's entries.
	colSum := make([]float64, n)
	for k := range p.stripes {
		s := &p.stripes[k]
		sums := colSum[s.colStart : s.colStart+s.width]
		for i, c := range s.cols {
			sums[c] += s.vals[i]
		}
	}
	pr := *p
	pr.matrix, pr.pr = nil, nil
	pr.stripes = make([]runStripe, len(p.stripes))
	vals := make([]float64, p.nnz)
	for k, s := range p.stripes {
		sums := colSum[s.colStart : s.colStart+s.width]
		norm := vals[:len(s.vals):len(s.vals)]
		vals = vals[len(s.vals):]
		for i, c := range s.cols {
			if sum := sums[c]; sum != 0 {
				norm[i] = s.vals[i] / sum
			} else {
				norm[i] = s.vals[i]
			}
		}
		s.vals = norm
		pr.stripes[k] = s
	}
	for j, sum := range colSum {
		if sum == 0 {
			pr.dangling = append(pr.dangling, uint64(j))
		}
	}
	p.pr = &pr
	return p.pr
}

// planCOO partitions a into stripes of the engine's segment width
// (paper Fig. 3) and books them.
func (e *Engine) planCOO(a *matrix.COO, det *hdn.Detector) (*enginePlan, error) {
	width := e.cfg.SegmentWidth()
	b, err := newRunAssembler(a.Rows, a.Cols, width)
	if err != nil {
		return nil, err
	}
	for _, ent := range a.Entries {
		if ent.Col >= a.Cols {
			return nil, fmt.Errorf("core: entry (%d, %d) outside %d columns", ent.Row, ent.Col, a.Cols)
		}
		k := ent.Col / width
		if !b.count(int(k), ent.Row, ent.Col-k*width) {
			return nil, b.countErr(int(k), ent.Row, ent.Col-k*width)
		}
	}
	if err := b.alloc(); err != nil {
		return nil, err
	}
	for _, ent := range a.Entries {
		k := ent.Col / width
		b.add(int(k), ent.Row, ent.Col-k*width, ent.Val)
	}
	return e.finishPlan(b, det)
}

// planStripes converts prebuilt stripes, already checked against the
// engine's segment layout, and books them.
func (e *Engine) planStripes(stripes []*matrix.Stripe, rows, cols uint64) (*enginePlan, error) {
	b, err := newRunAssembler(rows, cols, e.cfg.SegmentWidth())
	if err != nil {
		return nil, err
	}
	for k, s := range stripes {
		for _, ent := range s.Entries {
			if !b.count(k, ent.Row, ent.Col) {
				return nil, b.countErr(k, ent.Row, ent.Col)
			}
		}
	}
	if err := b.alloc(); err != nil {
		return nil, err
	}
	for k, s := range stripes {
		for _, ent := range s.Entries {
			b.add(k, ent.Row, ent.Col, ent.Val)
		}
	}
	return e.finishPlan(b, nil)
}

// runAssembler assembles a plan's stripes from a row-major entry stream in
// two passes: count sizes every stripe's arrays exactly, add fills them
// into one slab per array, each stripe's arrays a contiguous part.
//
// add stages entries per stripe and writes them to the slabs a batch at
// a time (software write-combining, as in radix partitioning): scattering
// each entry straight into its stripe's four arrays keeps four write
// streams per stripe open, which on a 2-core Xeon filled a 1M-row,
// 3M-nonzero Erdős–Rényi matrix's 31 stripes about 2× slower.
type runAssembler struct {
	rows    uint64
	stripes []runStripe
	cur     []runCursor
	// The slabs add fills: per run its row and end, per entry its
	// stripe-local column and value.
	runRows []uint64
	runEnds []uint32
	cols    []uint32
	vals    []float64
	// stage holds stripe k's pending entries at [k*stageLen, (k+1)*stageLen).
	stage []stagedEntry
}

// stageLen is the entries a stripe stages between flushes (6 KB): on the
// Xeon above, 256 filled 31 and 245 stripes fastest of 16 to 1024.
const stageLen = 256

type stagedEntry struct {
	row, col uint64
	val      float64
}

// runCursor is one stripe's assembler state. While counting, nnz and runs
// are the entries and runs seen; while filling, the next free entry and
// run slot in the slabs, first the stripe's first entry slot and staged
// its pending entries. last is the row of the stripe's latest entry,
// width the stripe's.
type runCursor struct {
	nnz, runs, first, staged int
	last, width              uint64
}

func newRunAssembler(rows, cols, width uint64) (*runAssembler, error) {
	if width == 0 {
		return nil, fmt.Errorf("core: stripe width must be positive")
	}
	n := int((cols + width - 1) / width)
	b := &runAssembler{rows: rows, stripes: make([]runStripe, n), cur: make([]runCursor, n)}
	for k := range b.stripes {
		s := &b.stripes[k]
		s.colStart = uint64(k) * width
		s.width = min(width, cols-s.colStart)
		if s.width > 1<<32 {
			return nil, fmt.Errorf("core: stripe width %d exceeds the 2^32 columns a stripe index addresses", s.width)
		}
		b.cur[k].width = s.width
	}
	return b, nil
}

// count registers one entry of stripe k (col stripe-local). It reports
// false, counting nothing, for an entry out of bounds or a stream that
// is not row-major within the stripe — a run per distinct row needs each
// row's entries adjacent; countErr then says which.
func (b *runAssembler) count(k int, row, col uint64) bool {
	c := &b.cur[k]
	if row >= b.rows || col >= c.width || row < c.last {
		return false
	}
	if c.nnz == 0 || row != c.last {
		c.runs++
		c.last = row
	}
	c.nnz++
	return true
}

func (b *runAssembler) countErr(k int, row, col uint64) error {
	if row >= b.rows || col >= b.stripes[k].width {
		return fmt.Errorf("core: stripe %d: entry (%d, %d) outside %d rows x %d columns", k, row, col, b.rows, b.stripes[k].width)
	}
	return fmt.Errorf("core: stripe %d: row %d after row %d, entries not row-major", k, row, b.cur[k].last)
}

// alloc carves every stripe's arrays, exactly the counted size, out of
// the slabs, and points the cursors at each stripe's first slots.
func (b *runAssembler) alloc() error {
	var nnz, runs int
	for k, c := range b.cur {
		if c.nnz > math.MaxUint32 {
			return fmt.Errorf("core: stripe %d holds %d nonzeros, more than a uint32 run end addresses", k, c.nnz)
		}
		nnz += c.nnz
		runs += c.runs
	}
	b.runRows, b.runEnds = make([]uint64, runs), make([]uint32, runs)
	b.cols, b.vals = make([]uint32, nnz), make([]float64, nnz)
	b.stage = make([]stagedEntry, len(b.stripes)*stageLen)
	var r, i int
	for k := range b.stripes {
		s, c := &b.stripes[k], &b.cur[k]
		nr, ni := c.runs, c.nnz
		s.recOff = r
		s.rows, s.ends = b.runRows[r:r+nr:r+nr], b.runEnds[r:r+nr:r+nr]
		s.cols, s.vals = b.cols[i:i+ni:i+ni], b.vals[i:i+ni:i+ni]
		*c = runCursor{nnz: i, runs: r, first: i, width: s.width}
		r, i = r+nr, i+ni
	}
	return nil
}

// add stages the next counted entry of stripe k.
func (b *runAssembler) add(k int, row, col uint64, val float64) {
	c := &b.cur[k]
	b.stage[k*stageLen+c.staged] = stagedEntry{row, col, val}
	if c.staged++; c.staged == stageLen {
		b.flush(k)
	}
}

// flush writes stripe k's staged entries to the slabs. A run's end is
// written when the next run of its stripe opens; close writes the last
// ones.
func (b *runAssembler) flush(k int) {
	c := &b.cur[k]
	// Locals, not fields, in the loop: every slab store could alias b or
	// c, which would reload them per entry.
	runRows, runEnds, cols, vals := b.runRows, b.runEnds, b.cols, b.vals
	nnz, runs, first, last := c.nnz, c.runs, c.first, c.last
	for _, ent := range b.stage[k*stageLen : k*stageLen+c.staged] {
		if nnz == first || ent.row != last {
			if nnz != first {
				runEnds[runs-1] = uint32(nnz - first)
			}
			runRows[runs] = ent.row
			runs++
			last = ent.row
		}
		cols[nnz], vals[nnz] = uint32(ent.col), ent.val
		nnz++
	}
	c.nnz, c.runs, c.last, c.staged = nnz, runs, last, 0
}

// close flushes every stripe and ends its last run.
func (b *runAssembler) close() {
	for k := range b.stripes {
		b.flush(k)
		if s := &b.stripes[k]; len(s.ends) > 0 {
			s.ends[len(s.ends)-1] = uint32(len(s.vals))
		}
	}
}

// finishPlan books the built stripes and derives the plan's totals and
// dispatch order.
func (e *Engine) finishPlan(b *runAssembler, det *hdn.Detector) (*enginePlan, error) {
	b.close()
	p := &enginePlan{stripes: b.stripes, det: det}
	var keys []types.Record
	var bw vldi.BitWriter
	if e.cfg.VectorCodec != nil {
		most := 0
		for k := range p.stripes {
			most = max(most, len(p.stripes[k].rows))
		}
		keys = make([]types.Record, most)
	}
	for k := range p.stripes {
		s := &p.stripes[k]
		if err := e.bookStripe(s, b.rows, det, keys, &bw); err != nil {
			return nil, err
		}
		p.runs += len(s.rows)
		p.nnz += s.nnz()
		p.maxNNZ = max(p.maxNNZ, s.nnz())
		p.books.add(&s.books)
	}
	p.lpt = lptOrder(p.stripes)
	e.planCover(p, b.rows)
	return p, nil
}

// bookStripe computes the stripe's dense-x books. With a VectorCodec it
// also proves, once per plan rather than once per call, that the
// stripe's record keys survive the VLDI round trip; the codec's fuzz
// targets are the proof for every other key stream. keys is scratch of
// at least the stripe's run count when a VectorCodec is set.
func (e *Engine) bookStripe(s *runStripe, rows uint64, det *hdn.Detector, keys []types.Record, bw *vldi.BitWriter) error {
	nnz := s.nnz()
	b := stripeBooks{products: nnz, records: uint64(len(s.rows)), source: s.width * uint64(e.cfg.ValueBytes)}
	if det != nil {
		// Every product of a run goes down its row's pipeline.
		start := uint32(0)
		for r, row := range s.rows {
			n := uint64(s.ends[r] - start)
			start = s.ends[r]
			if !det.IsHDN(row) {
				b.hdn.GeneralRecords += n
				continue
			}
			b.hdn.HDNRecords += n
			if !det.IsHDNExact(row) {
				b.hdn.FalseRouted += n
			}
		}
	}

	// The matrix stream: values plus (possibly VLDI-compressed)
	// meta-data, with CSR vs RM-COO chosen by the §3.1 hypersparsity rule.
	_, meta := matrix.BestStripeFormat(rows, nnz, e.cfg.MetaBytes)
	b.uncompMat = meta
	if e.cfg.MatrixCodec != nil {
		meta = (e.stripeMetaBits(s) + 7) / 8
	}
	b.compMat = meta
	b.matrix = nnz*uint64(e.cfg.ValueBytes) + meta

	if e.cfg.VectorCodec == nil {
		raw := e.rawVecBytes(len(s.rows))
		b.vec = vecBooks{raw, raw, raw}
	} else {
		recs := keys[:len(s.rows)]
		for r, row := range s.rows {
			recs[r] = types.Record{Key: row}
		}
		if err := e.cfg.VectorCodec.RoundTripRecords(recs, bw); err != nil {
			return fmt.Errorf("core: VLDI round trip failed: %w", err)
		}
		b.vec = e.vecBytes(recs)
	}
	s.books = b
	return nil
}

// stripeMetaBits sizes the stripe's VLDI meta-data stream — the
// column-index delta stream within each row (sequential, streaming-only
// reads — §5.1) plus one row-delta per row transition — without
// materializing deltas or the encoding: the streaming sizer is exact
// (Bits == EncodeDeltas(...).Bits).
func (e *Engine) stripeMetaBits(s *runStripe) uint64 {
	sizer := e.cfg.MatrixCodec.NewSizer()
	var prevRow uint64
	start := uint32(0)
	for r, row := range s.rows {
		sizer.AddDelta(row - prevRow)
		prevRow = row
		cols := s.cols[start:s.ends[r]]
		sizer.AddDelta(uint64(cols[0]))
		for i := 1; i < len(cols); i++ {
			sizer.AddDelta(uint64(cols[i]) - uint64(cols[i-1]))
		}
		start = s.ends[r]
	}
	return sizer.Bits()
}

// vecBytes returns the DRAM footprint of an intermediate record stream at
// the engine's precision (VLDI-compressed when configured) together with
// the compressed/uncompressed byte counts for the statistics. The
// compressed size comes from the streaming sizer — exactly
// EncodeDeltas(DeltasFromKeys(keys)).Bytes(), with zero intermediate
// slices.
func (e *Engine) vecBytes(recs []types.Record) vecBooks {
	n := len(recs)
	raw := e.rawVecBytes(n)
	if e.cfg.VectorCodec == nil || n == 0 {
		return vecBooks{raw, raw, raw}
	}
	sizer := e.cfg.VectorCodec.NewSizer()
	for _, r := range recs {
		if err := sizer.AddKey(r.Key); err != nil {
			// Sorted invariant violated upstream; charge uncompressed.
			return vecBooks{raw, raw, raw}
		}
	}
	b := sizer.Bytes() + uint64(n)*uint64(e.cfg.ValueBytes)
	return vecBooks{b, b, raw}
}

// rawVecBytes is the uncompressed footprint of n intermediate records.
func (e *Engine) rawVecBytes(n int) uint64 {
	return uint64(n) * uint64(e.cfg.MetaBytes+e.cfg.ValueBytes)
}

// lptOrder returns the stripe indices heaviest-nonzeros first, ties
// toward the lower index, so the order is deterministic.
func lptOrder(stripes []runStripe) []int {
	order := make([]int, len(stripes))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return stripes[order[i]].nnz() > stripes[order[j]].nnz() })
	return order
}
