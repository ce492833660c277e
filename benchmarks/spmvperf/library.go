package main

import (
	"math"
	"runtime"
	"time"

	"mwmerge/internal/core"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
)

// Iterative-phase parameters, fixed by the benchmark's definition.
const (
	iterations  = 8
	damping     = 0.85
	pagerankTol = 1e-6
	pagerankMax = 200
)

// bench is one run of one workload: its inputs, its result, the tracer
// (nil in an untraced run) and the seconds the phases share.
type bench struct {
	in      *inputs
	res     *runResult
	tr      *tracer
	seconds float64

	firstHash map[string]uint64 // op → hash of its verified first result

	// What the operations note beside their timings.
	lastSpan       int       // span of the latest timed call
	allocMB        []float64 // bytes each one-shot SpMV allocated
	pagerankIters  int
	segmentsActive int
}

// window returns the given share of the run's seconds.
func (b *bench) window(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// tolerance is the repository's MaxAbsDiff ≤ 1e-9 rule, scaled by the
// reference's largest magnitude once that exceeds 1: zipf_step1's
// heaviest row sums two million products, and any other summation order
// than the reference's moves such a sum by more than 1e-9 absolute.
func tolerance(ref vector.Dense) float64 {
	peak := 1.0
	for _, v := range ref {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	return 1e-9 * peak
}

// closeTo reports whether y matches the oracle within tolerance.
func closeTo(y, ref vector.Dense) bool {
	return len(y) == len(ref) && y.MaxAbsDiff(ref) <= tolerance(ref)
}

// check accounts one operation's output. The first repetition is
// compared with the oracle and fingerprinted; every later one must
// reproduce that fingerprint bit for bit.
func (b *bench) check(op string, rep int, err error, y vector.Dense, oracle func() (vector.Dense, error)) {
	if err != nil {
		b.res.op(false, "%s: %v", op, err)
		return
	}
	h := hashFloats(y)
	if first, seen := b.firstHash[op]; seen {
		b.res.op(h == first, "%s repetition %d: result hash %016x differs from the first repetition's %016x", op, rep, h, first)
		return
	}
	b.firstHash[op] = h
	b.res.hash(op, h)
	ref, err := oracle()
	if err != nil {
		b.res.op(false, "%s oracle: %v", op, err)
		return
	}
	b.res.op(closeTo(y, ref), "%s differs from its oracle by %g (tolerance %g)", op, y.MaxAbsDiff(ref), tolerance(ref))
}

// spmvOracle is ReferenceSpMV on the workload's matrix.
func (b *bench) spmvOracle(x vector.Dense) func() (vector.Dense, error) {
	return func() (vector.Dense, error) { return core.ReferenceSpMV(b.in.a, x, nil) }
}

// iterateOracle is `iterations` damped reference products from x0.
func (b *bench) iterateOracle() (vector.Dense, error) {
	x := b.in.x0
	base := (1 - damping) / float64(b.in.a.Rows)
	for it := 0; it < iterations; it++ {
		y, err := core.ReferenceSpMV(b.in.a, x, nil)
		if err != nil {
			return nil, err
		}
		for i := range y {
			y[i] = damping*y[i] + base
		}
		x = y
	}
	return x, nil
}

// timed runs fn inside a tracer span and returns how long it took. The
// span's ID is kept as b.lastSpan for the traced run to import the
// engine Recorder's spans under.
func (b *bench) timed(name string, parent int, fn func()) time.Duration {
	id := b.tr.begin(name, parent, b.tr.newOp())
	start := time.Now()
	fn()
	d := time.Since(start)
	b.tr.end(id)
	b.lastSpan = id
	return d
}

// phase is one timed operation of the library half with its share of
// the run's seconds.
type phase struct {
	metric  string
	share   float64
	minReps int
	warmUp  func() error          // untimed, before the first repetition; nil for an operation meant to start cold
	op      func(rep int) float64 // one repetition, in the metric's unit
	samples []float64
}

// runPhases runs the phases in their fixed order on one goroutine. Each
// phase first warms up untimed — one repetition, which the iterative
// operations cut to two iterations; the one-shot has none — to fill the
// buffers the operation grows lazily and touch the memory it will
// reuse, and then repeats the
// operation for its share of the run's seconds, at least minReps times.
// An operation longer than its share (PageRank on er_merge is six
// seconds) lengthens the run instead of starving the phases after it.
func (b *bench) runPhases(phases []*phase) {
	for _, p := range phases {
		if p.warmUp != nil {
			if err := p.warmUp(); err != nil {
				b.res.op(false, "%s warm-up: %v", p.metric, err)
			}
		}
		p.samples = repeatUntil(time.Now().Add(b.window(p.share)), p.minReps, p.op)
	}
}

// once makes a warm-up out of one full, checked repetition of op.
func once(op func(int) float64) func() error {
	return func() error { op(0); return nil }
}

// Every operation below collects garbage, untimed, before it starts the
// clock, so that each repetition starts from the same heap: otherwise a
// collection lands inside some repetitions and not others, and at one to
// three repetitions per run on the large workloads that alone moves a
// metric by tens of percent. Allocation itself stays inside the timing;
// rt.gc_* of the traced run reports what the collector costs. Warm-ups
// matter for the same reason: the sandbox's page faults are expensive,
// and the first call after other work re-touches memory the runtime had
// handed back.

// oneshotOp times a fresh engine's first SpMV — planning, arena growth
// and all — in milliseconds, and notes the bytes it allocates.
func (b *bench) oneshotOp(rep int) float64 {
	var m0, m1 runtime.MemStats
	var y vector.Dense
	var err error
	runtime.GC()
	runtime.ReadMemStats(&m0)
	d := b.timed("core.New+SpMV", -1, func() {
		var eng *core.Engine
		if eng, err = core.New(b.in.cfg); err == nil {
			y, err = eng.SpMV(b.in.a, b.in.x, nil)
		}
	})
	runtime.ReadMemStats(&m1)
	b.allocMB = append(b.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	b.check("spmv", rep, err, y, b.spmvOracle(b.in.x))
	return ms(d)
}

// warmOp times SpMV on a warmed engine, in milliseconds.
func (b *bench) warmOp(eng *core.Engine) func(int) float64 {
	return func(rep int) float64 {
		var y vector.Dense
		var err error
		runtime.GC()
		d := b.timed("core.SpMV", -1, func() { y, err = eng.SpMV(b.in.a, b.in.x, nil) })
		b.check("spmv", rep+1, err, y, b.spmvOracle(b.in.x))
		return ms(d)
	}
}

// iterateOp times Iterate in milliseconds per iteration. The overlapped
// schedule must reproduce the sequential one bit for bit, so both check
// against one fingerprint.
func (b *bench) iterateOp(eng *core.Engine, overlap bool) func(int) float64 {
	name := "core.Iterate"
	if overlap {
		name = "core.Iterate/ITS"
	}
	return func(rep int) float64 {
		var out core.IterateResult
		var err error
		runtime.GC()
		d := b.timed(name, -1, func() { out, err = b.runIterate(eng, iterations, overlap) })
		b.check("iterate", rep, err, out.X, b.iterateOracle)
		return ms(d) / iterations
	}
}

// runIterate is the benchmark's Iterate call with n iterations.
func (b *bench) runIterate(eng *core.Engine, n int, overlap bool) (core.IterateResult, error) {
	return eng.Iterate(b.in.a, b.in.x0, core.IterateOptions{Iterations: n, Damping: damping, Overlap: overlap})
}

// shortIterate is Iterate's warm-up: two iterations of the same schedule.
func (b *bench) shortIterate(eng *core.Engine, overlap bool) func() error {
	return func() error { _, err := b.runIterate(eng, 2, overlap); return err }
}

// pagerankOp times PageRank to tolerance and returns milliseconds per
// iteration; the iteration count is kept beside it. Time to tolerance is
// the product of the two. The count belongs to the input — no engine
// change may move it, results being bit-identical — but it differs from
// seed to seed (10 to 16 on zipf_step1), so dividing it out keeps the
// inputs' variance out of the metric.
func (b *bench) pagerankOp(eng *core.Engine) func(int) float64 {
	return func(rep int) float64 {
		var ranks vector.Dense
		var err error
		runtime.GC()
		d := b.timed("core.PageRank", -1, func() {
			ranks, b.pagerankIters, err = eng.PageRank(b.in.a, damping, pagerankTol, pagerankMax, false)
		})
		first, seen := b.firstHash["pagerank"]
		switch {
		case err != nil:
			b.res.op(false, "pagerank: %v", err)
		case !seen:
			b.firstHash["pagerank"] = hashFloats(ranks)
			b.res.hash("pagerank", b.firstHash["pagerank"])
			norm := ranks.Norm1()
			b.res.op(math.Abs(norm-1) <= 1e-6 && b.pagerankIters < pagerankMax,
				"pagerank: rank mass %.9f after %d iterations (want 1, under %d)", norm, b.pagerankIters, pagerankMax)
		default:
			b.res.op(hashFloats(ranks) == first, "pagerank repetition %d: ranks differ from the first repetition's", rep)
		}
		if b.pagerankIters < 1 {
			return ms(d)
		}
		return ms(d) / float64(b.pagerankIters)
	}
}

// block4Op times one four-column SpMVBlock in milliseconds per
// right-hand side.
func (b *bench) block4Op(eng *core.Engine) func(int) float64 {
	return func(rep int) float64 {
		var out core.BlockResult
		var err error
		runtime.GC()
		d := b.timed("core.SpMVBlock", -1, func() { out, err = eng.SpMVBlock(b.in.a, b.in.xs4, nil) })
		if err != nil {
			b.res.op(false, "block4: %v", err)
			return ms(d) / 4
		}
		// Column 0 is x, so it also has to match the scalar SpMV bits.
		b.check("spmv", rep+1, nil, out.Ys[0], b.spmvOracle(b.in.x))
		for c := 1; c < len(out.Ys); c++ {
			b.check("block4/col"+string(rune('0'+c)), rep, nil, out.Ys[c], b.spmvOracle(b.in.xs4[c]))
		}
		return ms(d) / 4
	}
}

// spmspvOp times SpMSpV on the sparse frontier in milliseconds and
// keeps the active segment count.
func (b *bench) spmspvOp(eng *core.Engine) func(int) float64 {
	return func(rep int) float64 {
		var y vector.Dense
		var st core.SpMSpVStats
		var err error
		runtime.GC()
		d := b.timed("core.SpMSpV", -1, func() { y, st, err = eng.SpMSpV(b.in.a, b.in.frontier) })
		b.segmentsActive = st.SegmentsActive
		b.check("spmspv", rep, err, y, func() (vector.Dense, error) {
			return core.ReferenceSpMV(b.in.a, b.in.frontier.ToDense(), nil)
		})
		return ms(d)
	}
}

// shareServe is the share of the run's seconds each of the daemon
// phases A and B gets, warm-up included; the library phases below take
// the other 0.62.
const shareServe = 0.19

// libraryEndToEnd runs the untraced library phases and records the eight
// library end-to-end metrics.
func (b *bench) libraryEndToEnd(eng *core.Engine) {
	phases := []*phase{
		{metric: "spmv_oneshot_ms", share: 0.08, minReps: 3, op: b.oneshotOp},
		{metric: "spmv_warm_ms", share: 0.10, minReps: 5, op: b.warmOp(eng)},
		{metric: "iterate_ms_per_iter", share: 0.09, minReps: 1, op: b.iterateOp(eng, false), warmUp: b.shortIterate(eng, false)},
		{metric: "iterate_its_ms_per_iter", share: 0.09, minReps: 1, op: b.iterateOp(eng, true), warmUp: b.shortIterate(eng, true)},
		{metric: "pagerank_ms_per_iter", share: 0.20, minReps: 1, op: b.pagerankOp(eng), warmUp: func() error {
			_, _, err := eng.PageRank(b.in.a, damping, pagerankTol, 2, false)
			return err
		}},
		{metric: "block4_ms_per_rhs", share: 0.06, minReps: 1, op: b.block4Op(eng)},
	}
	for _, p := range phases[1:] { // all but the one-shot, which is meant to start cold
		if p.warmUp == nil {
			p.warmUp = once(p.op)
		}
	}
	b.runPhases(phases)
	for _, p := range phases {
		b.res.samples(p.metric, p.samples)
	}
	b.res.samples("oneshot_alloc_mb", b.allocMB)
	b.res.Notes["pagerank_iters"] = float64(b.pagerankIters)
}

// Shares of the run's seconds the stages of a traced run get. Iterate
// and ITS (twice each), PageRank (once) and SpMSpV (eleven short calls)
// run on top of them.
const (
	tracedOneshot  = 0.06
	tracedWarm     = 0.10
	tracedWorkers  = 0.06
	tracedLayers   = 0.30
	tracedBaseline = 0.06
	tracedServe    = 0.32
)

// libraryTraced runs the library entry points under the tracer with the
// engine's Recorder attached, and records the core.* metrics plus the
// Recorder-lane metrics of prap. It returns the untraced one-shot and
// warm medians the ratios against the host baselines need.
func (b *bench) libraryTraced(plain *core.Engine) (oneshotMS, warmMS float64, err error) {
	in, res := b.in, b.res
	oneshotMS = median(repeatUntil(time.Now().Add(b.window(tracedOneshot)), 3, b.oneshotOp))

	recEpoch := b.tr.now()
	rec := report.NewRecorder()
	cfg := in.cfg
	cfg.Recorder = rec
	traced, err := core.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	if _, err := traced.SpMV(in.a, in.x, nil); err != nil {
		return 0, 0, err
	}

	// Warm SpMV, alternating the plain and the recorded engine so both
	// see the same machine state; their difference is the tracing cost.
	// The plain calls run outside any span.
	var plainMS, tracedMS, mallocs, allocKB []float64
	var roots []int
	var m0, m1 runtime.MemStats
	tracedWarmOp := b.warmOp(traced)
	repeatUntil(time.Now().Add(b.window(tracedWarm)), 5, func(rep int) float64 {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		y, err := plain.SpMV(in.a, in.x, nil)
		plainMS = append(plainMS, ms(time.Since(start)))
		runtime.ReadMemStats(&m1)
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
		allocKB = append(allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e3)
		b.check("spmv", rep+1, err, y, b.spmvOracle(in.x))

		tracedMS = append(tracedMS, tracedWarmOp(rep))
		roots = append(roots, b.lastSpan)
		return 0
	})
	warmMS = median(plainMS)
	res.value("core.plan_ms", oneshotMS-warmMS)
	res.value("trace.overhead_pct", 100*(median(tracedMS)-warmMS)/warmMS)
	res.samples("core.warm_allocs_per_op", mallocs)
	res.samples("core.warm_alloc_kb_per_op", allocKB)
	b.recorderLanes(rec, recEpoch, roots)

	// Exact per-call counters: one SpMV from a zeroed ledger.
	plain.ResetCounters()
	if _, err := plain.SpMV(in.a, in.x, nil); err != nil {
		return 0, 0, err
	}
	st := plain.Stats()
	res.value("core.products", float64(st.Products))
	res.value("core.intermediate_records", float64(st.IntermediateRecords))
	res.value("core.injected_ratio", st.InjectedRatio())
	res.value("core.stripe_imbalance", st.StripeImbalance())
	res.value("core.ledger_bytes_per_nnz", float64(plain.Traffic().Total())/float64(in.a.NNZ()))

	if err := b.workersSpeedup(time.Now().Add(b.window(tracedWorkers))); err != nil {
		return 0, 0, err
	}

	// Iterate and ITS twice each on the recorded engine — the second,
	// warm call is the one measured — then PageRank and SpMSpV once.
	// SpMSpV is then timed on the plain engine: one untimed call to grow
	// its frontier buffers, and nine timed ones.
	rooted := func(op func(int) float64, rep int) float64 {
		v := op(rep)
		roots = append(roots, b.lastSpan)
		return v
	}
	seq, its := b.iterateOp(traced, false), b.iterateOp(traced, true)
	rooted(seq, 0)
	runtime.ReadMemStats(&m0)
	seqMS := rooted(seq, 1)
	runtime.ReadMemStats(&m1)
	res.value("core.iterate_allocs_per_iter", float64(m1.Mallocs-m0.Mallocs)/iterations)
	rooted(its, 1)
	res.value("core.its_ratio", rooted(its, 2)/seqMS)
	rooted(b.pagerankOp(traced), 0)
	res.value("core.pagerank_iters", float64(b.pagerankIters))
	rooted(b.spmspvOp(traced), 0)
	res.value("core.spmspv_segments_active", float64(b.segmentsActive))
	plainSpMSpV := b.spmspvOp(plain)
	plainSpMSpV(1)
	res.samples("core.spmspv_ms", repeatUntil(time.Now(), 9, plainSpMSpV))
	b.tr.importRecorder(rec, recEpoch, roots)
	return oneshotMS, warmMS, nil
}

// recorderLanes turns the Recorder's lanes of the warm SpMV calls into
// the in-context layer timings: step 1 wall and busy time, step 2 wall,
// the presort and merge lane makespans inside it, and what is left of
// step 2 outside both (dense-vector allocation and zeroing, accounting,
// the -0.0 scan).
func (b *bench) recorderLanes(rec *report.Recorder, recEpoch int64, roots []int) {
	recSpans := rec.Timeline().Spans()
	spans := b.tr.snapshot()
	var s1Wall, s1Busy, s2Wall, presort, merge, other []float64
	for _, id := range roots {
		lo, hi := uint64(spans[id].Start-recEpoch), uint64(spans[id].End-recEpoch)
		var s1w, s2w float64
		var s2lo, s2hi uint64
		for _, s := range recSpans {
			if s.Lane != "phase" || s.Start < lo || s.End > hi {
				continue
			}
			switch s.Name {
			case "s1":
				s1w = float64(s.End-s.Start) / 1e6
			case "s2":
				s2w = float64(s.End-s.Start) / 1e6
				s2lo, s2hi = s.Start, s.End
			}
		}
		p := laneWall(recSpans, "presort/", s2lo, s2hi)
		m := laneWall(recSpans, "merge/", s2lo, s2hi)
		s1Wall = append(s1Wall, s1w)
		s1Busy = append(s1Busy, laneBusy(recSpans, "step1/", lo, hi))
		s2Wall = append(s2Wall, s2w)
		presort = append(presort, p)
		merge = append(merge, m)
		other = append(other, s2w-p-m)
	}
	res := b.res
	res.samples("core.step1_wall_ms", s1Wall)
	res.samples("core.step1_busy_ms", s1Busy)
	res.value("core.step1_ns_per_nnz", median(s1Busy)*1e6/float64(b.in.a.NNZ()))
	res.samples("core.step2_wall_ms", s2Wall)
	res.samples("prap.presort_wall_ms", presort)
	res.samples("prap.merge_wall_ms", merge)
	res.samples("core.step2_other_ms", other)
}

// workersSpeedup times warm SpMV with one and with two step-1 workers,
// everything else as the workload configures it.
func (b *bench) workersSpeedup(deadline time.Time) error {
	var engines [2]*core.Engine
	for i := range engines {
		cfg := b.in.cfg
		cfg.Workers = i + 1
		eng, err := core.New(cfg)
		if err != nil {
			return err
		}
		if _, err := eng.SpMV(b.in.a, b.in.x, nil); err != nil {
			return err
		}
		engines[i] = eng
	}
	var t [2][]float64
	repeatUntil(deadline, 3, func(rep int) float64 {
		for i, eng := range engines {
			start := time.Now()
			y, err := eng.SpMV(b.in.a, b.in.x, nil)
			t[i] = append(t[i], ms(time.Since(start)))
			b.check("spmv", rep+1, err, y, b.spmvOracle(b.in.x))
		}
		return 0
	})
	b.res.value("core.workers_speedup", median(t[0])/median(t[1]))
	return nil
}
