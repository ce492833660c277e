package core

// Engine-owned memory reuse for the iterative steady state. Three arenas
// cooperate so repeated SpMV/Iterate/PageRank calls stop allocating after
// warmup (DESIGN.md §9):
//
//   - enginePlan caches everything derivable from an immutable matrix:
//     the 1D stripe partition, the HDN detector, and each stripe's
//     VLDI-compressed meta-data bit count. The cache is keyed by matrix
//     pointer identity — a *matrix.COO handed to the engine is treated
//     as immutable for as long as it is reused.
//   - two stripeBanks hold step-1 state (per-stripe record buffers,
//     outcomes, the committed list headers). Two banks, rotated per
//     step-1 run, are required and sufficient: the ITS pipeline keeps
//     iteration i's lists alive (draining through step 2) while
//     iteration i+1's step 1 fills the other bank.
//   - a small dense free list recycles iteration-transition vectors.
//     Buffers handed back to callers (SpMV results, IterateResult.X)
//     are detached: they never re-enter the free list, so a result the
//     user holds can never be overwritten by a later call.
//
// The engine is a single-caller object (one goroutine drives its public
// methods); the arenas inherit that contract and need no locking. The
// pipelined driver's second goroutine only ever touches the bank it was
// handed, and is joined before the bank rotates back.

import (
	"fmt"
	"sort"

	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
	"mwmerge/internal/vldi"
)

// enginePlan caches the matrix-derived run plan across iterations.
type enginePlan struct {
	matrix  *matrix.COO
	width   uint64
	stripes []*matrix.Stripe
	det     *hdn.Detector
	// metaBits[k] is stripe k's VLDI meta-data bit count, filled lazily
	// the first time stripe k is processed (valid iff metaDone[k]). Each
	// stripe index is written by exactly one step-1 worker per run and
	// the workers are joined before the next run starts, so the lazy
	// fill is race-free without atomics.
	metaBits []uint64
	metaDone []bool
}

// planFor returns the cached plan for a, rebuilding it when the matrix
// pointer or the segment width changed. The detector build and the
// partition are deterministic in (a, cfg), so a cached plan is
// indistinguishable from a rebuilt one; per-iteration ledger charges
// (chargeDetector) stay with the callers.
func (e *Engine) planFor(a *matrix.COO) (*enginePlan, error) {
	width := e.cfg.SegmentWidth()
	if e.plan != nil && e.plan.matrix == a && e.plan.width == width {
		return e.plan, nil
	}
	stripes, err := matrix.Partition1D(a, width)
	if err != nil {
		return nil, err
	}
	if len(stripes) > e.cfg.Merge.Ways {
		return nil, fmt.Errorf("core: %d stripes exceed %d merge ways", len(stripes), e.cfg.Merge.Ways)
	}
	var det *hdn.Detector
	if e.cfg.HDN != nil {
		if det, err = hdn.Build(a, *e.cfg.HDN); err != nil {
			return nil, err
		}
	}
	e.plan = &enginePlan{
		matrix:   a,
		width:    width,
		stripes:  stripes,
		det:      det,
		metaBits: make([]uint64, len(stripes)),
		metaDone: make([]bool, len(stripes)),
	}
	return e.plan, nil
}

// stripeScratch is one stripe slot of a bank: the sparse intermediate
// vector whose record buffer is recycled, and the bit writer backing the
// VLDI round-trip verification.
type stripeScratch struct {
	v  vector.Sparse
	bw vldi.BitWriter
}

// stripeBank holds one generation of step-1 state.
type stripeBank struct {
	outcomes []stripeOutcome
	lists    [][]types.Record
	stripes  []stripeScratch
}

// sized prepares the bank for n stripes, recycling every buffer.
func (b *stripeBank) sized(n int) {
	if cap(b.outcomes) < n {
		b.outcomes = make([]stripeOutcome, n)
		b.lists = make([][]types.Record, n)
		b.stripes = make([]stripeScratch, n)
	}
	b.outcomes = b.outcomes[:n]
	b.lists = b.lists[:n]
	b.stripes = b.stripes[:n]
}

// nextBank rotates to the other bank. At most one step-1 run is in
// flight at a time, and a bank's lists are dead once the step 2 that
// consumed them returns, so alternating two banks can never hand out
// live memory.
func (e *Engine) nextBank() *stripeBank {
	b := &e.banks[e.bankIdx]
	e.bankIdx ^= 1
	return b
}

// recsFor returns the slot's record buffer, emptied, with capacity for
// at least hint records.
func (s *stripeScratch) recsFor(hint int) []types.Record {
	if cap(s.v.Recs) < hint {
		return make([]types.Record, 0, hint)
	}
	return s.v.Recs[:0]
}

// getDense returns a dense vector of the given dimension from the free
// list (contents unspecified — every consumer fully initializes it) or
// a fresh allocation.
func (e *Engine) getDense(dim int) vector.Dense {
	for i := len(e.denseFree) - 1; i >= 0; i-- {
		d := e.denseFree[i]
		if cap(d) >= dim {
			e.denseFree[i] = e.denseFree[len(e.denseFree)-1]
			e.denseFree[len(e.denseFree)-1] = nil
			e.denseFree = e.denseFree[:len(e.denseFree)-1]
			return d[:dim]
		}
	}
	return vector.NewDense(dim)
}

// putDense returns a buffer the engine owns to the free list. Never call
// it with a vector that has been (or will be) handed to the caller:
// results stay detached, which is the no-aliasing guarantee the reuse
// hammer test pins down.
func (e *Engine) putDense(d vector.Dense) {
	if d == nil || len(e.denseFree) >= e.denseFreeBound() {
		return
	}
	e.denseFree = append(e.denseFree, d)
}

// denseFreeLimit bounds the free list; iterative ping-pong needs two
// buffers, the rest is slack for interleaved workloads.
const denseFreeLimit = 4

// denseFreeBound is the free list's effective bound: the scalar default,
// widened once a block entry point has reserved room for its k-wide
// ping-pong so steady-state block iteration recycles every buffer.
func (e *Engine) denseFreeBound() int {
	if e.denseFreeCap > denseFreeLimit {
		return e.denseFreeCap
	}
	return denseFreeLimit
}

// reserveDense widens the free-list bound for a k-column block run: two
// buffers per column for the x/y ping-pong, plus the scalar slack. The
// bound only grows — interleaved scalar and block workloads keep the
// widest reservation seen.
func (e *Engine) reserveDense(k int) {
	if n := 2*k + 2; n > e.denseFreeCap {
		e.denseFreeCap = n
	}
}

// frontierScratch recycles SpMSpV's scatter state: the per-segment dense
// buffer headers and nonzero counts. The buffers themselves come from
// (and return to) the engine's dense free list, so the frontier path
// follows the same allocation discipline as the dense entry points.
type frontierScratch struct {
	segs []vector.Dense
	nnz  []uint64
}

// sized prepares the scratch for n segments, clearing every slot.
func (f *frontierScratch) sized(n int) *frontierScratch {
	if cap(f.segs) < n {
		f.segs = make([]vector.Dense, n)
		f.nnz = make([]uint64, n)
	}
	f.segs = f.segs[:n]
	f.nnz = f.nnz[:n]
	for k := range f.segs {
		f.segs[k] = nil
		f.nnz[k] = 0
	}
	return f
}

// release hands the scattered segment buffers back to the dense free
// list and drops the headers, so no segment outlives its SpMSpV call.
func (f *frontierScratch) release(e *Engine) {
	for k, s := range f.segs {
		if s != nil {
			e.putDense(s)
			f.segs[k] = nil
		}
	}
}

// lptScratch recycles the ungated step-1 dispatch order: stripe indices
// sorted heaviest-nnz-first (longest-processing-time scheduling), so a
// skewed stripe starts first instead of landing on an already-busy
// worker at the tail. Ties break toward the lower index, keeping the
// order deterministic. Confined to the goroutine driving the engine:
// only the ungated step1Compute path consults it, and at most one
// ungated step-1 run is ever in flight (the ITS pipeline's concurrent
// step-1 runs are gated, and the gated path keeps ascending dispatch —
// see step1Compute).
type lptScratch struct {
	order  []int
	weight []uint64
}

func (l *lptScratch) Len() int { return len(l.order) }
func (l *lptScratch) Less(i, j int) bool {
	a, b := l.order[i], l.order[j]
	if l.weight[a] != l.weight[b] {
		return l.weight[a] > l.weight[b]
	}
	return a < b
}
func (l *lptScratch) Swap(i, j int) { l.order[i], l.order[j] = l.order[j], l.order[i] }

// sized prepares the scratch for n stripes, recycling both slices.
func (l *lptScratch) sized(n int) {
	if cap(l.order) < n {
		l.order = make([]int, n)
		l.weight = make([]uint64, n)
	}
	l.order = l.order[:n]
	l.weight = l.weight[:n]
}

// plan returns the stripe indices in LPT dispatch order. Sorting goes
// through the pointer receiver (no interface boxing), so the steady
// state stays allocation-free after warmup.
func (l *lptScratch) plan(stripes []*matrix.Stripe) []int {
	l.sized(len(stripes))
	for k, s := range stripes {
		l.order[k] = k
		l.weight[k] = uint64(s.NNZ())
	}
	sort.Sort(l)
	return l.order
}

// pipeGate returns the engine's reusable segment gate, reset to the
// given handoff bound. The previous pipelined run joined its consumer
// goroutine before returning, so the gate is quiescent here.
func (e *Engine) pipeGate(ahead int) *segmentGate {
	if e.gate == nil {
		e.gate = newSegmentGate(ahead)
		return e.gate
	}
	e.gate.reset(ahead)
	return e.gate
}

// pipeNext returns the engine's reusable step-1 handoff channel; every
// pipelined iteration drains it before the next send, so a one-slot
// buffer never carries stale results across iterations.
func (e *Engine) pipeNext() chan step1Result {
	if e.nextCh == nil {
		e.nextCh = make(chan step1Result, 1)
	}
	return e.nextCh
}
