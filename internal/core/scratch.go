package core

// Engine-owned memory reuse for the iterative steady state. Three arenas
// cooperate so repeated SpMV/Iterate/PageRank calls stop allocating after
// warmup (DESIGN.md §9):
//
//   - enginePlan (plan.go) caches everything derivable from an immutable
//     matrix: the stripes as row runs, the HDN detector, the LPT order,
//     the stripes' books and, once PageRank has run, the column-normalized
//     values sibling. The cache is keyed by matrix pointer
//     identity — a *matrix.COO handed to the engine is treated as
//     immutable for as long as it is reused.
//   - two stripeBanks hold step-1 state (the record arena and the list
//     headers). Two banks, rotated per step-1 run, are required and
//     sufficient: the ITS pipeline keeps iteration i's lists alive
//     (draining through step 2) while iteration i+1's step 1 fills the
//     other bank.
//   - a small dense free list recycles iteration-transition vectors.
//     Buffers handed back to callers (SpMV results, IterateResult.X)
//     are detached: they never re-enter the free list, so a result the
//     user holds can never be overwritten by a later call.
//
// The engine is a single-caller object (one goroutine drives its public
// methods); the arenas inherit that contract and need no locking. The
// ITS schedule's second goroutine (overlapStep2) only ever touches the
// bank it was handed, and is joined before the bank rotates back.

import (
	"sync/atomic"

	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// stripeBank holds one generation of step-1 state: the record arena
// every list of one step-1 run is carved from — a column holds exactly
// the plan's run count of records, column c's stripe s starting at
// c·runs + recOff — and the list headers, column c's stripe s in slot
// c·n + s. claims is the run's stripe claim counter (step1Compute), kept
// here so that claiming allocates nothing.
type stripeBank struct {
	recs   []types.Record
	lists  [][]types.Record
	claims atomic.Int64
}

// sized prepares the bank for n list slots over recs records, recycling
// both buffers.
func (b *stripeBank) sized(n, recs int) {
	if cap(b.lists) < n {
		b.lists = make([][]types.Record, n)
	}
	if cap(b.recs) < recs {
		b.recs = make([]types.Record, recs)
	}
	b.lists = b.lists[:n]
	b.recs = b.recs[:recs]
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
	if d == nil || len(e.denseFree) >= denseFreeLimit {
		return
	}
	e.denseFree = append(e.denseFree, d)
}

// denseFreeLimit bounds the free list; iterative ping-pong needs two
// buffers, the rest is slack for interleaved workloads.
const denseFreeLimit = 4

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

// pipeGate returns the engine's reusable segment gate, reset to the
// given handoff bound. The previous overlapped step 2 joined its consumer
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
// overlapped step 2 drains it before the next send, so a one-slot
// buffer never carries stale results across iterations.
func (e *Engine) pipeNext() chan step1Result {
	if e.nextCh == nil {
		e.nextCh = make(chan step1Result, 1)
	}
	return e.nextCh
}
