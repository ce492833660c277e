package core

// The host's step 2 (DESIGN.md §12 "The host's step 2"). A stable K-way
// merge-accumulate followed by the store queue's drain has a closed
// form: y[k] = yIn[k] + ((s₀ + s₁) + …), the s being key k's records in
// stripe order, and y[k] = yIn[k] + (+0.0) for a key no list holds. The
// PRaP network (internal/prap) computes it the way a chip must, routing
// every record to a merge core; a host can hold one segment of the
// dense output in cache, so it computes the closed form directly: per
// key block, one forward sweep of each list in stripe order, adding
// into the block. No record is routed or merged, and no sum is
// re-associated, so the result and the statistics are those of
// prap.Network.MergeInto bit for bit (TestStep2MatchesMergeInto).

import (
	"math"
	"math/bits"
	"strconv"

	"mwmerge/internal/mem"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// keyCover is what one step 2 needs to know about its lists' keys
// besides the records themselves: which keys some list holds, and the
// three merge counters the network would book for them. For a dense x
// both are plan constants (the plan's cover); SpMSpV, whose lists are
// per call, fills the engine's scratch cover in one pass (listCover).
type keyCover struct {
	// touched has bit k set when some list holds key k.
	touched []uint64
	// injected, emitted and presortBatches are the network's Injected,
	// Emitted and PresortBatches: keys no list holds, keys drained, and
	// pre-sorter batches of cores records each.
	injected, emitted, presortBatches uint64
	cores                             uint64
}

// reset prepares c for lists over dim keys routed to p cores, reusing
// its bitmap.
func (c *keyCover) reset(dim uint64, p int) {
	*c = keyCover{touched: resizedZero(c.touched, int((dim+63)/64)), cores: uint64(p)}
}

// addRows books one list by its keys alone: its pre-sorter batches, and
// its keys in touched.
func (c *keyCover) addRows(keys []uint64) {
	touched := c.touched
	for _, k := range keys {
		touched[k>>6] |= 1 << (k & 63)
	}
	c.presortBatches += (uint64(len(keys)) + c.cores - 1) / c.cores
}

// addRecords is addRows for a list of records.
func (c *keyCover) addRecords(list []types.Record) {
	touched := c.touched
	for _, r := range list {
		touched[r.Key>>6] |= 1 << (r.Key & 63)
	}
	c.presortBatches += (uint64(len(list)) + c.cores - 1) / c.cores
}

// finish completes the counts once every list is added: every key below
// dim is drained, and every key no list holds is one injection.
func (c *keyCover) finish(dim uint64) {
	var held uint64
	for _, w := range c.touched {
		held += uint64(bits.OnesCount64(w))
	}
	c.injected = dim - held
	c.emitted = dim
}

// resizedZero returns s resized to n zeroed elements, reusing its
// backing array when large enough.
func resizedZero[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// planCover books the plan's stripes as step 2 will see them: for a
// dense x, stripe s's list holds exactly one record per run row.
func (e *Engine) planCover(p *enginePlan, dim uint64) {
	p.cover.reset(dim, e.cfg.Merge.Cores())
	for k := range p.stripes {
		p.cover.addRows(p.stripes[k].rows)
	}
	p.cover.finish(dim)
}

// listCover books per-call lists into the engine's scratch cover, which
// stays valid until the next listCover.
func (e *Engine) listCover(lists [][]types.Record, dim uint64) *keyCover {
	c := &e.step2.cover
	c.reset(dim, e.cfg.Merge.Cores())
	for _, l := range lists {
		c.addRecords(l)
	}
	c.finish(dim)
	return c
}

// step2Scratch is the accumulator's per-call state, recycled across
// calls: the per-call cover, the workers' block-range boundaries, and
// their list cursors (worker g's at [g·K, (g+1)·K)).
type step2Scratch struct {
	cover  keyCover
	bounds []int
	cursor []int
}

// runStep2Into is the host's step 2: it writes y = yIn + Σ lists into
// the caller-provided y (length dim, never aliasing yIn) and books
// cover's merge counters and the result traffic — the lists' DRAM round
// trips were booked with their writes (roundTrip). update, when non-nil,
// runs on each SegmentWidth-wide block of y once the block is
// accumulated, on the goroutine that built it, while the block is in
// cache; it is the iteration loop's element-wise update, so the
// goroutine it runs on cannot move its bits. Every key of every list
// must be below dim and each list sorted by key, which step 1
// guarantees.
func (e *Engine) runStep2Into(lists [][]types.Record, cover *keyCover, dim uint64, yIn, y vector.Dense, update func(blk vector.Dense)) {
	if e.rec != nil {
		defer e.rec.StartSpan("phase", "s2").End()
	}
	e.accumulate(lists, cover.touched, dim, yIn, y, update)
	yBytes := dim * uint64(e.cfg.ValueBytes) // y streamed out
	if yIn != nil {
		yBytes *= 2 // and y-in streamed in
	}
	e.acct.Charge(report.Counters{
		Traffic:             mem.Traffic{ResultBytes: yBytes},
		MergeInjected:       cover.injected,
		MergeEmitted:        cover.emitted,
		MergePresortBatches: cover.presortBatches,
	})
}

// accumulate computes y = yIn + Σ lists block by block, each block one
// SegmentWidth-wide key range of y, and runs update (when non-nil) on
// each finished block. MergeWorkers goroutines take contiguous block
// ranges of about equal work. Each goroutine writes only its own blocks
// of y, so every element keeps one summation order.
func (e *Engine) accumulate(lists [][]types.Record, touched []uint64, dim uint64, yIn, y vector.Dense, update func(blk vector.Dense)) {
	width := e.cfg.SegmentWidth()
	nb := int((dim + width - 1) / width)
	w := workerCount(e.cfg.Merge.MergeWorkers, nb)
	sc := &e.step2
	sc.bounds = resizedZero(sc.bounds, w+1)
	sc.cursor = resizedZero(sc.cursor, w*len(lists))
	splitBlocks(sc.bounds, lists, nb, width, dim)
	run := func(g int) {
		if e.rec != nil {
			defer e.rec.StartSpan("merge/g"+strconv.Itoa(g), "k"+strconv.Itoa(g)).End()
		}
		cur := sc.cursor[g*len(lists) : (g+1)*len(lists)]
		first := uint64(sc.bounds[g]) * width
		for j, l := range lists {
			cur[j] = searchKey(l, first)
		}
		for b := sc.bounds[g]; b < sc.bounds[g+1]; b++ {
			lo := uint64(b) * width
			hi := min(lo+width, dim)
			blk := y[lo:hi]
			accumulateBlock(lists, cur, touched, lo, yIn, blk)
			if update != nil {
				update(blk)
			}
		}
	}
	fanOut(w, run)
}

// accumulateBlock computes one block, keys [lo, lo+len(blk)), into blk.
// Each list's cursor enters at its first record of the block and leaves
// at its first record past it.
//
// With yIn nil the block starts at +0.0 and the sweeps finish it: the
// network's result there is +0.0 + (s₀ + s₁ + …), and a sum started at
// +0.0 differs from s₀ + s₁ + … only by holding +0.0 where that holds
// −0.0, which the network's final +0.0 maps to +0.0 as well (DESIGN.md
// §12). With a yIn the block starts at −0.0, the additive identity, for
// a key some list holds — the first add then yields s₀ — and at +0.0
// for one none holds, and the finish adds it to yIn, so an untouched
// −0.0 in yIn flips to +0.0 exactly as under the network's drain.
func accumulateBlock(lists [][]types.Record, cur []int, touched []uint64, lo uint64, yIn, blk vector.Dense) {
	if yIn == nil {
		clear(blk)
	} else {
		for i := range blk {
			k := lo + uint64(i)
			blk[i] = math.Float64frombits((touched[k>>6] >> (k & 63) & 1) << 63)
		}
	}
	hi := lo + uint64(len(blk))
	for j, l := range lists {
		i := cur[j]
		for ; i < len(l); i++ {
			r := &l[i]
			if r.Key >= hi {
				break
			}
			blk[r.Key-lo] += r.Val
		}
		cur[j] = i
	}
	if yIn != nil {
		in := yIn[lo:hi]
		for i := range blk {
			blk[i] = in[i] + blk[i]
		}
	}
}

// splitBlocks cuts blocks [0, nb) into len(bounds)−1 contiguous ranges
// of about equal work — the lists' records in the range plus its keys —
// writing the range boundaries into bounds. Each cut is the first block
// edge whose prefix work reaches its share of the total: Merge Path's
// diagonal search (Green et al.), taken on block edges.
func splitBlocks(bounds []int, lists [][]types.Record, nb int, width, dim uint64) {
	work := func(b int) uint64 {
		k := min(uint64(b)*width, dim)
		n := k
		for _, l := range lists {
			n += uint64(searchKey(l, k))
		}
		return n
	}
	w := len(bounds) - 1
	bounds[0], bounds[w] = 0, nb
	if w == 1 {
		return
	}
	total := work(nb)
	for g := 1; g < w; g++ {
		target := total * uint64(g) / uint64(w)
		lo, hi := bounds[g-1], nb
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if work(mid) < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bounds[g] = lo
	}
}

// searchKey returns the index of the first record of l with key >= k.
func searchKey(l []types.Record, k uint64) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
