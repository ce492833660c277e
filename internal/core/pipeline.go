package core

// The iteration loop behind Iterate, IterateBlock, PageRank and
// PageRankBlock, and its ITS schedule (paper Fig. 15). Sequentially,
// step 1 of iteration i+1 runs after step 2 of iteration i. Under ITS
// it runs alongside it: step 2 publishes the dense result segment by
// segment in ascending key order (runStep2Into), the update is applied
// to each segment as it is published, and the next iteration's stripe
// workers block per stripe until the x-segment they read is final. The
// handoff is bounded at two segments — the software analogue of the
// paper's halved-capacity constraint, under which the transition vector
// never round-trips through DRAM. Both schedules share every commit,
// step 2, update, retirement, transition charge and snapshot, and every
// element receives the same float64 operations in the same order, so
// the two agree bit for bit and book for book at any Workers/MergeWorkers
// setting.

import (
	"strconv"
	"sync"

	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// segmentGate is the bounded handoff between step 2 of iteration i (the
// producer, publishing finished y-segments in ascending order) and
// step 1 of iteration i+1 (the consumer, whose stripe k waits for
// segment k of its source vector). The bound caps how many published
// segments may sit unconsumed — two, mirroring the double buffer that
// halves ITS capacity — so the producer stalls rather than spill.
type segmentGate struct {
	mu        sync.Mutex
	cond      sync.Cond
	ahead     int
	published int
	consumed  int
}

func newSegmentGate(ahead int) *segmentGate {
	g := &segmentGate{ahead: ahead}
	g.cond.L = &g.mu
	return g
}

// reset rewinds a quiescent gate for reuse by the next overlapped
// iteration. Callers must have joined both sides first (overlapStep2
// joins the consumer goroutine before returning).
func (g *segmentGate) reset(ahead int) {
	g.mu.Lock()
	g.ahead = ahead
	g.published = 0
	g.consumed = 0
	g.mu.Unlock()
}

// publish marks the next segment (ascending) complete, blocking while
// the consumer trails more than the handoff bound. The wait cannot
// deadlock: stripes are dispatched in ascending order and consumed
// unconditionally, so a blocked producer always has a published,
// unconsumed stripe in flight on the consumer side.
func (g *segmentGate) publish() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.published-g.consumed >= g.ahead {
		g.cond.Wait()
	}
	g.published++
	g.cond.Broadcast()
}

// wait blocks until segment seg has been published.
func (g *segmentGate) wait(seg int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.published <= seg {
		g.cond.Wait()
	}
}

// consume releases one handoff slot. Callers invoke it exactly once per
// stripe; skipping it would starve the producer.
func (g *segmentGate) consume() {
	g.mu.Lock()
	g.consumed++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// dampSegment applies the damped update y := damping·y + base to one
// segment. Both schedules funnel the update through this helper — the
// same two per-element statements, in element order — so applying it
// streaming per published segment is bit-identical to applying it to
// the whole vector after step 2.
func dampSegment(seg vector.Dense, damping, base float64) {
	for i := range seg {
		seg[i] *= damping
		seg[i] += base
	}
}

// l1Delta returns ‖y − x‖₁, accumulated in index order so every
// schedule computes the identical float sum.
func l1Delta(y, x vector.Dense) float64 {
	delta := 0.0
	for i := range y {
		d := y[i] - x[i]
		if d < 0 {
			d = -d
		}
		delta += d
	}
	return delta
}

// loopHooks parameterizes loop for its two workloads (damped iteration;
// PageRank with convergence).
type loopHooks struct {
	// update, when non-nil, returns the element-wise post-step-2 update
	// of a column given its source vector x: applied to the whole y
	// sequentially and to each published segment under ITS. loop is
	// done with the returned func before it calls update again, so the
	// func may be reused.
	update func(x vector.Dense) func(seg vector.Dense)
	// converged, when non-nil, reports whether a column retires before
	// maxIters given its output y and its source x. Under ITS the step 1
	// speculatively running against y is then discarded uncommitted.
	converged func(y, x vector.Dense) bool
}

// step1Result carries a speculative step-1 run's recorder timestamps
// back from its goroutine; the lists themselves live in the bank the
// run was handed.
type step1Result struct {
	start, end uint64
}

// loop runs up to maxIters SpMV applications of the matrix planned in p
// (rows rows) on every column of xs, which it owns and recycles, and
// returns each column's final vector and iteration count and the
// transition bytes kept on chip. A column retires when h.converged says
// so or at maxIters; the survivors keep iterating in lock step, one
// k-wide step 1 per iteration. With overlap and a single column, the
// ITS schedule runs step 1 of each next iteration alongside step 2
// (overlapStep2). When a column converges there, the speculative step 1
// is joined and discarded without committing — wasted wall-clock, as on
// the real machine, but no ledger pollution.
func (e *Engine) loop(p *enginePlan, rows uint64, xs []vector.Dense, maxIters int, overlap bool, h loopHooks) ([]vector.Dense, []int, uint64) {
	k := len(xs)
	outs := make([]vector.Dense, k)
	iters := make([]int, k)
	// The live set: xs and the original column index of each live slot,
	// compacted in place as columns retire.
	cols := make([]int, k)
	for c := range cols {
		cols[c] = c
	}
	ys := make([]vector.Dense, k)
	its := overlap && k == 1
	e.reserveDense(k)

	var saved, iterStart uint64
	if e.rec != nil {
		iterStart = e.rec.Now()
	}
	// overlapped is set when the iteration's step 2 runs the next
	// iteration's step 1 alongside it (ITS), into a fresh bank; otherwise
	// each iteration starts with its own step 1.
	var bank *stripeBank
	overlapped := false
	for it := 0; len(xs) > 0; it++ {
		if !overlapped {
			bank = e.nextBank()
			e.step1Compute(p, xs, nil, bank)
		}
		e.chargeDetector(p)
		overlapped = its && it < maxIters-1
		var nextStart, lo, hi uint64
		for i, x := range xs {
			lists := e.commit(p, bank, i)
			var update func(vector.Dense)
			if h.update != nil {
				update = h.update(x)
			}
			ys[i] = e.getDense(int(rows))
			if overlapped {
				bank = e.nextBank()
				nextStart, lo, hi = e.overlapStep2(p, lists, rows, ys, update, bank)
				continue
			}
			e.runStep2Into(lists, &p.cover, rows, nil, ys[i], nil)
			if update != nil {
				update(ys[i])
			}
		}

		// Retire or advance each live column. Every x is dead: its step 1
		// was committed above, and a speculative step 1 read y, not x.
		w := 0
		for i, x := range xs {
			y := ys[i]
			stop := it == maxIters-1 || h.converged != nil && h.converged(y, x)
			e.putDense(x)
			if stop {
				outs[cols[i]], iters[cols[i]] = y, it+1
				continue
			}
			xs[w], cols[w] = y, cols[i]
			w++
		}
		xs, cols = xs[:w], cols[:w]
		if overlapped && w > 0 && e.rec != nil {
			e.rec.AddSpan("its", "o"+strconv.Itoa(it+1), lo, hi)
		}
		// Columns that continue book their y-as-next-x transition.
		for range xs {
			saved += e.accountTransition(rows, its)
		}
		e.recordIteration(it, iterStart)
		if overlapped {
			iterStart = nextStart
		} else if e.rec != nil {
			iterStart = e.rec.Now()
		}
	}
	return outs, iters, saved
}

// overlapStep2 is step 2 of one ITS iteration: it launches step 1 of the
// next iteration against ys[0], the y under construction, into bank —
// its stripes gate on the segment publishes — and runs step 2 into
// ys[0], applying update (when non-nil) to each segment before
// publishing it. It returns once both have finished, with the time the
// next step 1 started and the measured overlap window [lo, hi): the
// intersection of this step 2 with that step 1. Exactly one step-1 run
// is ever in flight, so the recycled gate and handoff channel are
// quiescent on entry.
func (e *Engine) overlapStep2(p *enginePlan, lists [][]types.Record, rows uint64, ys []vector.Dense, update func(vector.Dense), bank *stripeBank) (nextStart, lo, hi uint64) {
	gate := e.pipeGate(2)
	ch := e.pipeNext()
	go func() {
		var r step1Result
		if e.rec != nil {
			r.start = e.rec.Now()
		}
		e.step1Compute(p, ys, gate, bank)
		if e.rec != nil {
			r.end = e.rec.Now()
		}
		ch <- r
	}()

	width := e.cfg.SegmentWidth()
	y := ys[0]
	if e.rec != nil {
		lo = e.rec.Now()
	}
	e.runStep2Into(lists, &p.cover, rows, nil, y, func(seg int) {
		if update != nil {
			off := uint64(seg) * width
			update(y[off:min(off+width, rows)])
		}
		gate.publish()
	})
	if e.rec != nil {
		hi = e.rec.Now()
	}
	next := <-ch
	return next.start, max(lo, next.start), min(hi, next.end)
}
