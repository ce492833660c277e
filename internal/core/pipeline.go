package core

// The software ITS pipeline (paper Fig. 15). Iterate/PageRank with
// Overlap run step 2 of iteration i concurrently with step 1 of
// iteration i+1: step 2 publishes the dense result segment by segment
// in ascending key order (runStep2Into), the damping/teleport update is
// applied to each segment as it is published, and the next iteration's
// stripe workers block per stripe until the x-segment they read is
// final. The handoff is bounded at two
// segments — the software analogue of the paper's halved-capacity
// constraint, under which the transition vector never round-trips
// through DRAM. Because every element still receives exactly the same
// float64 operations in the same order as the sequential schedule, the
// pipelined result is bit-identical at any Workers/MergeWorkers
// setting.

import (
	"strconv"
	"sync"

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
	err       error
}

func newSegmentGate(ahead int) *segmentGate {
	g := &segmentGate{ahead: ahead}
	g.cond.L = &g.mu
	return g
}

// reset rewinds a quiescent gate for reuse by the next pipelined
// iteration. Callers must have joined both sides first (the driver joins
// the consumer goroutine before every reset).
func (g *segmentGate) reset(ahead int) {
	g.mu.Lock()
	g.ahead = ahead
	g.published = 0
	g.consumed = 0
	g.err = nil
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
	for g.err == nil && g.published-g.consumed >= g.ahead {
		g.cond.Wait()
	}
	g.published++
	g.cond.Broadcast()
}

// wait blocks until segment seg has been published, returning the
// pipeline error if it failed instead.
func (g *segmentGate) wait(seg int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.err == nil && g.published <= seg {
		g.cond.Wait()
	}
	return g.err
}

// consume releases one handoff slot. Callers invoke it exactly once per
// stripe whether or not the stripe succeeded; skipping it on failure
// would starve the producer.
func (g *segmentGate) consume() {
	g.mu.Lock()
	g.consumed++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// fail aborts the pipeline: pending and future waits return err and
// publishes stop blocking. The first error wins. The engine's step 2
// cannot fail, so no engine path calls it today.
func (g *segmentGate) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// dampSegment applies the damped update y := damping·y + base to one
// segment. Both the sequential and the pipelined schedules funnel the
// update through this helper — the same two per-element statements, in
// element order — so applying it streaming per published segment is
// bit-identical to applying it to the whole vector after the merge.
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

// pipelineHooks parameterizes the shared ITS driver for its two
// workloads (plain damped iteration; PageRank with convergence).
type pipelineHooks struct {
	// update, when non-nil, returns the element-wise post-merge update
	// for iteration it given that iteration's source vector — applied
	// to each y-segment as it is published (and to the whole vector on
	// the final, unoverlapped iteration). A nil inner func means no
	// update this iteration.
	update func(it int, x vector.Dense) func(seg vector.Dense)
	// converged, when non-nil, inspects iteration it's output y and its
	// source x and reports whether the loop stops early. The step 1
	// speculatively running against y is then discarded uncommitted.
	converged func(it int, y, x vector.Dense) bool
}

// step1Result carries a speculative step-1 run's recorder timestamps
// back from its goroutine; the lists themselves live in the bank the
// run was handed.
type step1Result struct {
	start, end uint64
}

// iteratePipelined runs up to maxIters SpMV applications of the matrix
// planned in p (rows rows) with real ITS overlap and returns the final
// vector, the iterations executed, and the transition bytes kept on
// chip. Per iteration it commits the
// (already computed) step-1 lists, launches step 1 of the next
// iteration against the y under construction, and runs step 2 with
// segment publishing; the two phases meet only through the gate, so the
// ledger, statistics and numerics match the sequential schedule
// exactly. When an iteration converges, the speculative next step 1 is
// joined and discarded without committing — wasted wall-clock, as on
// the real machine, but no ledger pollution.
func (e *Engine) iteratePipelined(p *enginePlan, rows uint64, x0 vector.Dense, maxIters int, h pipelineHooks) (vector.Dense, int, uint64) {
	width := e.cfg.SegmentWidth()

	x := x0.Clone()
	var saved uint64
	var iterStart uint64
	if e.rec != nil {
		iterStart = e.rec.Now()
	}
	// Step 1 of iteration 0 has no producing step 2 to overlap with. src
	// is the running step 1's one-column source set: x here, then each
	// y under construction.
	bank := e.nextBank()
	src := col(&e.one.x, x)
	defer e.dropCols()
	e.step1Compute(p, src, nil, bank)
	for it := 0; ; it++ {
		e.chargeDetector(p)
		lists := e.commit(p, bank, 0)

		var update func(vector.Dense)
		if h.update != nil {
			update = h.update(it, x)
		}
		y := e.getDense(int(rows))

		if it == maxIters-1 {
			// Final iteration: nothing left to overlap with.
			e.runStep2Into(lists, &p.cover, rows, nil, y, nil)
			if update != nil {
				update(y)
			}
			e.recordIteration(it, iterStart)
			e.putDense(x)
			return y, it + 1, saved
		}

		// Launch step 1 of iteration it+1 against the y being merged
		// into the other bank; its stripes gate on the segment publishes
		// below. Exactly one step-1 run is ever in flight, so the
		// recycled gate and handoff channel are quiescent here.
		gate := e.pipeGate(2)
		next := e.pipeNext()
		nextBank := e.nextBank()
		src[0] = y
		go func() {
			var r step1Result
			if e.rec != nil {
				r.start = e.rec.Now()
			}
			e.step1Compute(p, src, gate, nextBank)
			if e.rec != nil {
				r.end = e.rec.Now()
			}
			next <- r
		}()

		var s2Start uint64
		if e.rec != nil {
			s2Start = e.rec.Now()
		}
		e.runStep2Into(lists, &p.cover, rows, nil, y, func(seg int) {
			if update != nil {
				lo := uint64(seg) * width
				hi := lo + width
				if hi > rows {
					hi = rows
				}
				update(y[lo:hi])
			}
			gate.publish()
		})
		var s2End uint64
		if e.rec != nil {
			s2End = e.rec.Now()
		}
		nr := <-next

		stop := h.converged != nil && h.converged(it, y, x)
		if e.rec != nil && !stop {
			// The measured overlap window: the intersection of this
			// step 2 with the next iteration's step 1 (Fig. 15).
			lo, hi := s2Start, s2End
			if nr.start > lo {
				lo = nr.start
			}
			if nr.end < hi {
				hi = nr.end
			}
			e.rec.AddSpan("its", "o"+strconv.Itoa(it+1), lo, hi)
		}
		if stop {
			e.recordIteration(it, iterStart)
			e.putDense(x)
			return y, it + 1, saved
		}
		// Another iteration follows and its source vector stayed on
		// chip in the second segment buffer: book the round trip saved.
		saved += e.accountTransition(rows, true)
		e.recordIteration(it, iterStart)
		// x is dead: iteration it's step 1 consumed it before the loop
		// and the joined speculative step 1 read y, not x. Recycle it.
		e.putDense(x)
		x = y
		bank = nextBank
		iterStart = nr.start
	}
}
