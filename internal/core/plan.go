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
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/report"
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
	// set in a sibling only: a bitmap with bit j set when column j's
	// values sum to exactly 0.
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
	// column is what every column books: products, records, HDN
	// routing, the x stream and the intermediate list's round trip.
	column report.Counters
	// matrix is the matrix share: the stripe stream's bytes (values
	// plus meta-data) and its meta-data bytes after and before VLDI. A
	// k-wide run books it for column 0 only.
	matrix report.Counters
}

// add sums o into b.
func (b *stripeBooks) add(o *stripeBooks) {
	b.column = b.column.Add(o.column)
	b.matrix = b.matrix.Add(o.matrix)
}

// book charges books — one stripe's, or a plan's summed — with the
// matrix share when this column streamed the stripes (column 0 of a
// k-wide run; DESIGN.md §9).
func (e *Engine) book(b *stripeBooks, matrixShare bool) {
	e.acct.Charge(b.column)
	if matrixShare {
		e.acct.Charge(b.matrix)
	}
}

// roundTrip is the books of one intermediate list's DRAM round trip:
// footprint bytes (VLDI-compressed when configured) written and read
// back, of raw bytes uncompressed. Every list is read back exactly
// once, by the step 2 that consumes it, so its read is booked together
// with its write.
func roundTrip(footprint, raw uint64) report.Counters {
	return report.Counters{
		Traffic:              mem.Traffic{IntermediateWrite: footprint, IntermediateRead: footprint},
		VecCompressedBytes:   2 * footprint,
		VecUncompressedBytes: 2 * raw,
	}
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
	p, err := e.buildPlan(a, planWorkers(len(a.Entries)))
	if err != nil {
		return nil, err
	}
	p.matrix = a
	e.plan = p
	return p, nil
}

// minPlanShare is the fewest entries a plan-building goroutine is given:
// below it, starting the goroutine costs more than its share saves.
const minPlanShare = 4096

// planWorkers is the goroutine count a plan of n entries is built on:
// every core the runtime may use, at least minPlanShare entries each.
// It is not Config.Workers. spmvd sets Workers to split the cores among
// pool members that serve at the same time, but serve.NewPool builds
// the members' plans one after another, and a plan is built once per
// matrix, before the calls it serves.
func planWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minPlanShare))
}

// buildPlan plans a on w goroutines with the engine's HDN detector, when
// configured, counted from the plan's runs. The detector comes after
// the partition, so an entry outside the matrix is the partition's
// error, the same with or without HDN.
func (e *Engine) buildPlan(a *matrix.COO, w int) (*enginePlan, error) {
	if e.cfg.HDN != nil {
		if err := e.cfg.HDN.Validate(); err != nil {
			return nil, err
		}
	}
	b, err := e.assemble(a, w)
	if err != nil {
		return nil, err
	}
	var det *hdn.Detector
	if e.cfg.HDN != nil {
		if det, err = hdn.FromDegrees(b.rowDegrees(w), *e.cfg.HDN); err != nil {
			return nil, err
		}
	}
	return e.finishPlan(b, det, w)
}

// pageRankPlan returns the PageRank operand of the n×n matrix p plans: a
// sibling plan whose values are column-normalized (every column whose
// values do not sum to exactly 0 sums to 1; one that does keeps its
// values), with those zero-sum columns — the dangling ones, which push
// no rank mass through A — marked in a bitmap. Normalizing changes only
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
	pr.dangling = make([]uint64, (n+63)/64)
	for j, sum := range colSum {
		if sum == 0 {
			pr.dangling[j>>6] |= 1 << (j & 63)
		}
	}
	p.pr = &pr
	return p.pr
}

// assemble partitions a into stripes of the engine's segment width
// (paper Fig. 3) on w goroutines, each counting and then filling one
// contiguous range of the entries (DESIGN.md §9).
func (e *Engine) assemble(a *matrix.COO, w int) (*runAssembler, error) {
	b, err := newRunAssembler(a.Rows, a.Cols, e.cfg.SegmentWidth(), w)
	if err != nil {
		return nil, err
	}
	var bad atomic.Bool
	fanOut(w, func(g int) {
		if ents := b.part(a.Entries, g); b.countRange(g, ents) < len(ents) {
			bad.Store(true)
		}
	})
	if bad.Load() || !b.stitch() {
		// A check failed. Counted again as one range, the stream stops
		// at its first bad entry, which the error names.
		b.split(1)
		if i := b.countRange(0, a.Entries); i < len(a.Entries) {
			return nil, b.entryErr(a.Entries[i])
		}
	}
	if err := b.alloc(); err != nil {
		return nil, err
	}
	fanOut(b.ranges, func(g int) { b.fill(g, b.part(a.Entries, g)) })
	b.close()
	return b, nil
}

// planStripes converts prebuilt stripes, already checked against the
// engine's segment layout, and books them.
func (e *Engine) planStripes(stripes []*matrix.Stripe, rows, cols uint64) (*enginePlan, error) {
	b, err := newRunAssembler(rows, cols, e.cfg.SegmentWidth(), 1)
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
		b.flush(k)
	}
	b.close()
	return e.finishPlan(b, nil, 1)
}

// runAssembler assembles a plan's stripes from a row-major entry stream in
// two passes: count sizes every stripe's arrays exactly, add fills them
// into one slab per array, each stripe's arrays a contiguous part.
//
// The stream may be cut into ranges, counted and filled one goroutine
// each. A range's part of a stripe — its entries of the stripe — has a
// cursor of its own, and the parts of a stripe take its slots in stream
// order: stitch sums their counts, and alloc gives each part its first
// entry and run slot.
//
// add stages entries per part and writes them to the slabs a batch at
// a time (software write-combining, as in radix partitioning): scattering
// each entry straight into its stripe's four arrays keeps four write
// streams per stripe open, which on a 2-core Xeon filled a 1M-row,
// 3M-nonzero Erdős–Rényi matrix's 31 stripes about 2× slower.
type runAssembler struct {
	rows, cols, width uint64
	stripes           []runStripe
	// ranges is the number of ranges the stream is cut into; part
	// (g, k), range g's part of stripe k, has cursor cur[g·len(stripes)+k].
	ranges int
	cur    []runCursor
	// The slabs add fills: per run its row and end, per entry its
	// stripe-local column and value.
	runRows []uint64
	runEnds []uint32
	colIdx  []uint32
	vals    []float64
	// stage holds part i's pending entries at [i*partStage, (i+1)*partStage).
	stage     []stagedEntry
	partStage int
}

// stageLen is the entries a stripe stages between flushes (6 KB): on the
// Xeon above, 256 filled 31 and 245 stripes fastest of 16 to 1024. The
// ranges split it, down to minPartStage each, so up to eight ranges cost
// no more stage memory than one; on the same Xeon, two ranges of 128
// filled no slower, within the noise, than two of 256.
const (
	stageLen     = 256
	minPartStage = 32
)

type stagedEntry struct {
	row, col uint64
	val      float64
}

// runCursor is one part's assembler state. While counting, nnz and runs
// are the entries and runs seen, head the row of the first; while
// filling, the next free entry and run slot in the slabs, first the
// stripe's first entry slot and staged the part's pending entries. last
// is the row of the latest entry — while filling, the stripe's latest
// in stream order, which for a part's first entry is the previous
// part's last. width is the stripe's.
type runCursor struct {
	nnz, runs, first, staged int
	head, last, width        uint64
}

func newRunAssembler(rows, cols, width uint64, ranges int) (*runAssembler, error) {
	if width == 0 {
		return nil, fmt.Errorf("core: stripe width must be positive")
	}
	n := int((cols + width - 1) / width)
	b := &runAssembler{rows: rows, cols: cols, width: width, stripes: make([]runStripe, n)}
	for k := range b.stripes {
		s := &b.stripes[k]
		s.colStart = uint64(k) * width
		s.width = min(width, cols-s.colStart)
		if s.width > 1<<32 {
			return nil, fmt.Errorf("core: stripe width %d exceeds the 2^32 columns a stripe index addresses", s.width)
		}
	}
	b.split(ranges)
	return b, nil
}

// split cuts the stream into the given number of ranges, with every
// cursor reset.
func (b *runAssembler) split(ranges int) {
	n := len(b.stripes)
	b.ranges = ranges
	b.partStage = max(stageLen/ranges, minPartStage)
	b.cur = make([]runCursor, ranges*n)
	for i := range b.cur {
		b.cur[i].width = b.stripes[i%n].width
	}
}

// part returns range g of ents, one of b.ranges about equal ranges.
func (b *runAssembler) part(ents []matrix.Entry, g int) []matrix.Entry {
	lo, hi := share(uint64(len(ents)), g, b.ranges)
	return ents[lo:hi]
}

// share returns part g of [0, n) cut into w contiguous parts, the last
// taking the remainder.
func share(n uint64, g, w int) (lo, hi uint64) {
	q := n / uint64(w)
	lo, hi = q*uint64(g), q*uint64(g+1)
	if g == w-1 {
		hi = n
	}
	return lo, hi
}

// countRange counts ents, range g of the stream. It returns how many
// entries it counted: all, or those before the first that fails a
// check (entryErr says which).
func (b *runAssembler) countRange(g int, ents []matrix.Entry) int {
	base, cols, width := g*len(b.stripes), b.cols, b.width
	for i, ent := range ents {
		if ent.Col >= cols {
			return i
		}
		k := ent.Col / width
		if !b.count(base+int(k), ent.Row, ent.Col-k*width) {
			return i
		}
	}
	return len(ents)
}

// count registers one entry of part i (col stripe-local). It reports
// false, counting nothing, for an entry out of bounds or a stream that
// is not row-major within the stripe — a run per distinct row needs each
// row's entries adjacent; countErr then says which.
func (b *runAssembler) count(i int, row, col uint64) bool {
	c := &b.cur[i]
	if row >= b.rows || col >= c.width || row < c.last {
		return false
	}
	if c.nnz == 0 {
		c.head = row
	}
	if c.nnz == 0 || row != c.last {
		c.runs++
		c.last = row
	}
	c.nnz++
	return true
}

// entryErr is the error for ent, the entry a one-range count stopped at.
func (b *runAssembler) entryErr(ent matrix.Entry) error {
	if ent.Col >= b.cols {
		return fmt.Errorf("core: entry (%d, %d) outside %d columns", ent.Row, ent.Col, b.cols)
	}
	k := ent.Col / b.width
	return b.countErr(int(k), ent.Row, ent.Col-k*b.width)
}

func (b *runAssembler) countErr(k int, row, col uint64) error {
	if row >= b.rows || col >= b.stripes[k].width {
		return fmt.Errorf("core: stripe %d: entry (%d, %d) outside %d rows x %d columns", k, row, col, b.rows, b.stripes[k].width)
	}
	return fmt.Errorf("core: stripe %d: row %d after row %d, entries not row-major", k, row, b.cur[k].last)
}

// stitch joins the ranges' counts of each stripe in stream order. It
// reports false when a part's first row lies below the previous
// non-empty part's last — the stream is not row-major across the
// boundary. A part whose first row equals that last row continues the
// run the previous part opened, so the run is counted once, there.
func (b *runAssembler) stitch() bool {
	n := len(b.stripes)
	for k := range n {
		var prev *runCursor
		for g := range b.ranges {
			c := &b.cur[g*n+k]
			if c.nnz == 0 {
				continue
			}
			if prev != nil && c.head < prev.last {
				return false
			}
			if prev != nil && c.head == prev.last {
				c.runs--
			}
			prev = c
		}
	}
	return true
}

// alloc carves every stripe's arrays, exactly the counted size, out of
// the slabs, and points each part's cursor at its first slots: the
// stripe's parts take its slots in stream order.
func (b *runAssembler) alloc() error {
	n := len(b.stripes)
	var nnz, runs int
	for k := range n {
		var sk int
		for g := range b.ranges {
			c := &b.cur[g*n+k]
			sk += c.nnz
			runs += c.runs
		}
		if sk > math.MaxUint32 {
			return fmt.Errorf("core: stripe %d holds %d nonzeros, more than a uint32 run end addresses", k, sk)
		}
		nnz += sk
	}
	b.runRows, b.runEnds = make([]uint64, runs), make([]uint32, runs)
	b.colIdx, b.vals = make([]uint32, nnz), make([]float64, nnz)
	b.stage = make([]stagedEntry, len(b.cur)*b.partStage)
	var r, i int
	for k := range b.stripes {
		s := &b.stripes[k]
		first, r0 := i, r
		var last uint64
		for g := range b.ranges {
			c := &b.cur[g*n+k]
			nr, ni, end := c.runs, c.nnz, c.last
			*c = runCursor{nnz: i, runs: r, first: first, last: last, width: s.width}
			if ni > 0 {
				last = end
			}
			r, i = r+nr, i+ni
		}
		s.recOff = r0
		s.rows, s.ends = b.runRows[r0:r:r], b.runEnds[r0:r:r]
		s.cols, s.vals = b.colIdx[first:i:i], b.vals[first:i:i]
	}
	return nil
}

// fill adds ents, range g of the stream, and flushes the range's parts.
func (b *runAssembler) fill(g int, ents []matrix.Entry) {
	base, width := g*len(b.stripes), b.width
	for _, ent := range ents {
		k := ent.Col / width
		b.add(base+int(k), ent.Row, ent.Col-k*width, ent.Val)
	}
	for i := base; i < base+len(b.stripes); i++ {
		b.flush(i)
	}
}

// add stages the next counted entry of part i.
func (b *runAssembler) add(i int, row, col uint64, val float64) {
	c := &b.cur[i]
	b.stage[i*b.partStage+c.staged] = stagedEntry{row, col, val}
	if c.staged++; c.staged == b.partStage {
		b.flush(i)
	}
}

// flush writes part i's staged entries to the slabs. A run's end is
// written when the next run of its stripe opens — by whichever part
// opens it — and close writes each stripe's last, so every end has one
// writer.
func (b *runAssembler) flush(i int) {
	c := &b.cur[i]
	// Locals, not fields, in the loop: every slab store could alias b or
	// c, which would reload them per entry.
	runRows, runEnds, cols, vals := b.runRows, b.runEnds, b.colIdx, b.vals
	nnz, runs, first, last := c.nnz, c.runs, c.first, c.last
	for _, ent := range b.stage[i*b.partStage : i*b.partStage+c.staged] {
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

// close ends every stripe's last run, once all parts are flushed.
func (b *runAssembler) close() {
	for k := range b.stripes {
		if s := &b.stripes[k]; len(s.ends) > 0 {
			s.ends[len(s.ends)-1] = uint32(len(s.vals))
		}
	}
}

// rowDegrees counts each row's nonzeros from the runs: the HDN
// detector's input without another read of the entries. Goroutine g of
// w sums the g-th share of the rows, entering each stripe's runs with
// one binary search, so each writes only its own rows.
func (b *runAssembler) rowDegrees(w int) []uint64 {
	deg := make([]uint64, b.rows)
	fanOut(w, func(g int) {
		lo, hi := share(b.rows, g, w)
		for k := range b.stripes {
			s := &b.stripes[k]
			r, _ := slices.BinarySearch(s.rows, lo)
			start := uint32(0)
			if r > 0 {
				start = s.ends[r-1]
			}
			for ; r < len(s.rows) && s.rows[r] < hi; r++ {
				deg[s.rows[r]] += uint64(s.ends[r] - start)
				start = s.ends[r]
			}
		}
	})
	return deg
}

// fanOut runs fn(0), …, fn(w-1) and returns when all have: fn(0) on the
// calling goroutine, the rest on goroutines of their own.
func fanOut(w int, fn func(g int)) {
	if w <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func() {
			defer wg.Done()
			fn(g)
		}()
	}
	fn(0)
	wg.Wait()
}

// workerCount is the goroutine count a configured worker count asks for
// over n independent tasks: 0 means runtime.GOMAXPROCS, and there is at
// least one goroutine and at most one per task.
func workerCount(want, n int) int {
	if want == 0 {
		want = runtime.GOMAXPROCS(0)
	}
	return max(min(want, n), 1)
}

// finishPlan books the built stripes on w goroutines, each claiming the
// next unbooked stripe, and derives the plan's totals, in stripe order,
// and its dispatch order.
func (e *Engine) finishPlan(b *runAssembler, det *hdn.Detector, w int) (*enginePlan, error) {
	p := &enginePlan{stripes: b.stripes, det: det}
	n := len(p.stripes)
	most := 0
	if e.cfg.VectorCodec != nil {
		for k := range p.stripes {
			most = max(most, len(p.stripes[k].rows))
		}
	}
	errs := make([]error, n)
	var next atomic.Int64
	fanOut(min(w, n), func(int) {
		keys := make([]types.Record, most)
		var bw vldi.BitWriter
		for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
			errs[k] = e.bookStripe(&p.stripes[k], b.rows, det, keys, &bw)
		}
	})
	for k := range p.stripes {
		if errs[k] != nil {
			return nil, errs[k]
		}
		s := &p.stripes[k]
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
	var hdnRecs, general, falseRouted uint64
	if det != nil {
		// Every product of a run goes down its row's pipeline.
		start := uint32(0)
		for r, row := range s.rows {
			n := uint64(s.ends[r] - start)
			start = s.ends[r]
			if !det.IsHDN(row) {
				general += n
				continue
			}
			hdnRecs += n
			if !det.IsHDNExact(row) {
				falseRouted += n
			}
		}
	}
	col := report.Counters{
		Traffic:             mem.Traffic{SourceVectorBytes: s.width * uint64(e.cfg.ValueBytes)},
		Products:            nnz,
		IntermediateRecords: uint64(len(s.rows)),
		HDNRecords:          hdnRecs,
		HDNFalseRouted:      falseRouted,
		HDNGeneralRecords:   general,
	}

	// The matrix stream: values plus (possibly VLDI-compressed)
	// meta-data, with CSR vs RM-COO chosen by the §3.1 hypersparsity rule.
	_, rawMeta := matrix.BestStripeFormat(rows, nnz, e.cfg.MetaBytes)
	meta := rawMeta
	if e.cfg.MatrixCodec != nil {
		meta = (e.stripeMetaBits(s) + 7) / 8
	}
	mat := report.Counters{
		Traffic:              mem.Traffic{MatrixBytes: nnz*uint64(e.cfg.ValueBytes) + meta},
		MatCompressedBytes:   meta,
		MatUncompressedBytes: rawMeta,
	}

	if e.cfg.VectorCodec == nil {
		raw := e.rawVecBytes(len(s.rows))
		col = col.Add(roundTrip(raw, raw))
	} else {
		recs := keys[:len(s.rows)]
		for r, row := range s.rows {
			recs[r] = types.Record{Key: row}
		}
		if err := e.cfg.VectorCodec.RoundTripRecords(recs, bw); err != nil {
			return fmt.Errorf("core: VLDI round trip failed: %w", err)
		}
		col = col.Add(e.vecBytes(recs))
	}
	s.books = stripeBooks{column: col, matrix: mat}
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

// vecBytes returns the round-trip books of an intermediate record stream
// at the engine's precision (VLDI-compressed when configured). The
// compressed size comes from the streaming sizer — exactly
// EncodeDeltas(DeltasFromKeys(keys)).Bytes(), with zero intermediate
// slices.
func (e *Engine) vecBytes(recs []types.Record) report.Counters {
	n := len(recs)
	raw := e.rawVecBytes(n)
	if e.cfg.VectorCodec == nil || n == 0 {
		return roundTrip(raw, raw)
	}
	sizer := e.cfg.VectorCodec.NewSizer()
	for _, r := range recs {
		if err := sizer.AddKey(r.Key); err != nil {
			// Sorted invariant violated upstream; charge uncompressed.
			return roundTrip(raw, raw)
		}
	}
	return roundTrip(sizer.Bytes()+uint64(n)*uint64(e.cfg.ValueBytes), raw)
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
