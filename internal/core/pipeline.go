package core

// The iteration loop behind Iterate and PageRank, and its ITS schedule
// (paper Fig. 15). The loop is one column wide: ITS joins exactly one
// producer vector to one consumer vector. Sequentially, step 1 of
// iteration i+1 runs after step 2 of iteration i. Under ITS it runs
// alongside it: step 2 publishes the dense result segment by segment in
// ascending key order (runStep2Into), the update is applied to each
// segment as it is published, and the next iteration's stripe workers
// block per stripe until the x-segment they read is final. The handoff
// is bounded at two segments — the software analogue of the paper's
// halved-capacity constraint, under which the transition vector never
// round-trips through DRAM. Both schedules share every commit, step 2,
// update, convergence check, transition charge and snapshot, and every
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
	// of an iteration given its source vector x: applied to the whole y
	// sequentially and to each published segment under ITS. loop is
	// done with the returned func before it calls update again, so the
	// func may be reused.
	update func(x vector.Dense) func(seg vector.Dense)
	// converged, when non-nil, reports whether the iteration stops before
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
// (rows rows) starting from x, which it owns and recycles, and returns
// the final vector, the iterations run and the transition bytes kept on
// chip. It stops when h.converged says so or at maxIters. With overlap,
// the ITS schedule runs step 1 of each next iteration alongside step 2
// (overlapStep2). When the run converges there, the speculative step 1
// is joined and discarded without committing — wasted wall-clock, as on
// the real machine, but no ledger pollution.
func (e *Engine) loop(p *enginePlan, rows uint64, x vector.Dense, maxIters int, overlap bool, h loopHooks) (vector.Dense, int, uint64) {
	defer e.dropCols()
	var saved, iterStart uint64
	if e.rec != nil {
		iterStart = e.rec.Now()
	}
	// overlapped is set when the iteration's step 2 runs the next
	// iteration's step 1 alongside it (ITS), into a fresh bank; otherwise
	// each iteration starts with its own step 1.
	var bank *stripeBank
	overlapped := false
	for it := 0; ; it++ {
		if !overlapped {
			bank = e.nextBank()
			e.step1Compute(p, col(&e.one.x, x), nil, bank)
		}
		e.chargeDetector(p)
		overlapped = overlap && it < maxIters-1
		lists := e.commit(p, bank, 0)
		var update func(vector.Dense)
		if h.update != nil {
			update = h.update(x)
		}
		y := e.getDense(int(rows))
		var nextStart, lo, hi uint64
		if overlapped {
			bank = e.nextBank()
			nextStart, lo, hi = e.overlapStep2(p, lists, rows, y, update, bank)
		} else {
			e.runStep2Into(lists, &p.cover, rows, nil, y, nil)
			if update != nil {
				update(y)
			}
		}

		// x is dead: its step 1 was committed above, and a speculative
		// step 1 read y, not x.
		stop := it == maxIters-1 || h.converged != nil && h.converged(y, x)
		e.putDense(x)
		if stop {
			e.recordIteration(it, iterStart)
			return y, it + 1, saved
		}
		x = y
		if overlapped && e.rec != nil {
			e.rec.AddSpan("its", "o"+strconv.Itoa(it+1), lo, hi)
		}
		// The next iteration reads y as its x: book that transition.
		saved += e.accountTransition(rows, overlap)
		e.recordIteration(it, iterStart)
		if overlapped {
			iterStart = nextStart
		} else if e.rec != nil {
			iterStart = e.rec.Now()
		}
	}
}

// overlapStep2 is step 2 of one ITS iteration: it launches step 1 of the
// next iteration against y, the vector under construction, into bank —
// its stripes gate on the segment publishes — and runs step 2 into y,
// applying update (when non-nil) to each segment before
// publishing it. It returns once both have finished, with the time the
// next step 1 started and the measured overlap window [lo, hi): the
// intersection of this step 2 with that step 1. Exactly one step-1 run
// is ever in flight, so the recycled gate and handoff channel are
// quiescent on entry.
func (e *Engine) overlapStep2(p *enginePlan, lists [][]types.Record, rows uint64, y vector.Dense, update func(vector.Dense), bank *stripeBank) (nextStart, lo, hi uint64) {
	gate := e.pipeGate(2)
	ch := e.pipeNext()
	ys := col(&e.one.y, y)
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
