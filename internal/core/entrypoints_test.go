package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
	"mwmerge/internal/prap"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// The entry-point equivalence table: every public way into the engine,
// under every result-invisible configuration, against expectations built
// from referenceSpMV alone. The inputs keep float64 arithmetic exact
// (exactColumns, exactX, damping 0.5, a power-of-two dimension), so the
// reference's summation order and the engine's stripe-then-merge order
// must agree to the bit and any lost, duplicated or misrouted product
// shows; the summation-order contract between entry points on arbitrary
// floats stays with the pairwise tests (block_test.go, pipeline_test.go).

const eqDim = 512 // 4 segments of testConfig's 128; 2^-9 keeps 1/n exact

// exactColumns returns a copy of a whose values are small positive
// integers chosen so every column sums to a power of two. Products and
// sums of such values with exactX operands are exact, and so is
// PageRank's column normalization (integer / 2^j).
func exactColumns(a *matrix.COO) *matrix.COO {
	b := a.Clone()
	count := make([]int, a.Cols)
	for _, ent := range b.Entries {
		count[ent.Col]++
	}
	seen := make([]int, a.Cols)
	for i, ent := range b.Entries {
		seen[ent.Col]++
		v := 1
		if n := count[ent.Col]; seen[ent.Col] == n {
			p := 1
			for p < n {
				p *= 2
			}
			v = p - n + 1
		}
		b.Entries[i].Val = float64(v)
	}
	return b
}

// exactX returns a zero-free vector of small integers.
func exactX(n uint64, seed int64) vector.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := vector.NewDense(int(n))
	for i := range x {
		x[i] = float64(1 + rng.Intn(8))
		if rng.Intn(2) == 0 {
			x[i] = -x[i]
		}
	}
	return x
}

// entryPointConfigs spans the configurations no output may depend on
// (blockTestConfigs, with two step-1 workers so that four stripes leave
// LPT dispatch an order to choose). Every row but vldi and hdn must
// also leave the books where plain has them; the kernel and drain rows
// each carry a different Workers x MergeWorkers x other-knob
// combination, so the knobs are also checked against each other and not
// only one at a time. Merge Path is the default kernel, so drainDense is
// the row that runs the loser tree. plain leaves both worker counts at
// 0, GOMAXPROCS, so sequential is the row that runs both steps on one
// goroutine whatever the host.
func entryPointConfigs(t *testing.T) map[string]Config {
	cfgs := blockTestConfigs(t)
	w, m := cfgs["workers"], cfgs["mergeWorkers"]
	w.Workers, m.Merge.MergeWorkers = 2, 2
	cfgs["workers"], cfgs["mergeWorkers"] = w, m
	seq := testConfig()
	seq.Workers, seq.Merge.MergeWorkers = 1, 1
	cfgs["sequential"] = seq

	mp := testConfig()
	mp.Merge.Kernel, mp.Workers, mp.Merge.MergeWorkers = prap.KernelMergePath, 2, 3
	dd := testConfig()
	dd.Merge.Drain, dd.Merge.Kernel, dd.Merge.MergeWorkers = prap.DrainDense, prap.KernelLoserTree, 2
	ds := testConfig()
	ds.Merge.Drain, ds.Workers, ds.Merge.MergeWorkers = prap.DrainSparse, 2, 1
	cfgs["mergepath"], cfgs["drainDense"], cfgs["drainSparse"] = mp, dd, ds
	return cfgs
}

func TestEntryPointEquivalence(t *testing.T) {
	er, err := graph.ErdosRenyi(eqDim, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := graph.Zipf(eqDim, 6, 1.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Zipf skews row degrees; transposed, the heavy rows become heavy
	// columns, i.e. unequal stripes — the case LPT dispatch reorders.
	skewed := exactColumns(zipf.Transpose())
	hist := matrix.StripeNNZHistogram(skewed, testConfig().SegmentWidth())
	var heaviest uint64
	for _, nnz := range hist {
		if nnz > heaviest {
			heaviest = nnz
		}
	}
	if 2*heaviest*uint64(len(hist)) < 3*uint64(skewed.NNZ()) {
		t.Fatalf("stripe nonzeros %v: heaviest below 1.5x the mean, the skewed matrix is not skewed", hist)
	}
	fixtures := []struct {
		name string
		a    *matrix.COO
	}{{"er", exactColumns(er)}, {"zipfT", skewed}}
	for _, m := range fixtures {
		books := map[string][]report.Counters{}
		for name, cfg := range entryPointConfigs(t) {
			t.Run(m.name+"/"+name, func(t *testing.T) { books[name] = checkEntryPoints(t, m.a, cfg) })
		}
		for _, knob := range []string{"sequential", "workers", "mergeWorkers", "mergepath", "drainDense", "drainSparse"} {
			if !reflect.DeepEqual(books[knob], books["plain"]) {
				t.Errorf("%s: %s moved the books of some entry point:\n got  %+v\n want %+v", m.name, knob, books[knob], books["plain"])
			}
		}
	}
}

// checkEntryPoints drives every entry point on fresh engines of one
// configuration and returns each engine's final account, in call order.
func checkEntryPoints(t *testing.T, a *matrix.COO, cfg Config) []report.Counters {
	var engines []*Engine
	fresh := func() *Engine {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
		return e
	}
	ok := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sameBits := func(what string, got, want vector.Dense) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d = %v, reference %v", what, i, got[i], want[i])
			}
		}
	}
	sameBooks := func(what string, got, want *Engine) {
		t.Helper()
		if got.Counters() != want.Counters() {
			t.Errorf("%s: ledger differs:\n got  %+v\n want %+v", what, got.Counters(), want.Counters())
		}
	}
	// amortized is the k-wide contract: the columns' sequential books
	// minus the matrix share of every pass the batch did not repeat.
	amortized := func(seq *Engine, single report.Counters, passesSaved uint64) report.Counters {
		want := seq.Counters()
		want.Traffic.MatrixBytes -= passesSaved * single.Traffic.MatrixBytes
		want.MatCompressedBytes -= passesSaved * single.MatCompressedBytes
		want.MatUncompressedBytes -= passesSaved * single.MatUncompressedBytes
		want.HDNFilterBytes -= passesSaved * single.HDNFilterBytes
		return want
	}
	// The store queue gives every output element exactly one add, of an
	// injected +0.0 where no product lands, so a -0.0 in yIn on an empty
	// row comes out +0.0 — whichever drain runs.
	ref := func(m *matrix.COO, x, yIn vector.Dense) vector.Dense {
		y, err := referenceSpMV(m, x, yIn)
		ok(err)
		for i := range y {
			y[i] += 0
		}
		return y
	}
	// HDN routing is a property of the planned COO paths: the adapters
	// that bypass the plan (prebuilt stripes) or the dense
	// multiply (the frontier) book no detector pass, by contract.
	planned := cfg.HDN == nil

	xs := []vector.Dense{exactX(eqDim, 1), exactX(eqDim, 2), exactX(eqDim, 3)}
	yIns := []vector.Dense{exactX(eqDim, 4), nil, exactX(eqDim, 5)}
	x, yIn := xs[0], yIns[0]
	// A dirty yIn: the sparse drain would leave this -0.0 standing, so
	// prap must fall back to the dense walk even when sparse is forced.
	hole := -1
	for row, deg := range a.RowDegrees() {
		if deg == 0 {
			hole = row
			break
		}
	}
	if hole < 0 {
		t.Fatal("no empty row to hold the -0.0")
	}
	yIn[hole] = math.Copysign(0, -1)
	want := ref(a, x, yIn)

	// --- one application ---
	spmv := fresh()
	y, err := spmv.SpMV(a, x, yIn)
	ok(err)
	sameBits("SpMV", y, want)
	if got := spmv.Stats().Stripes; got != 4 {
		t.Fatalf("%d stripes, want 4", got)
	}
	single := spmv.Counters() // one matrix pass

	blk1 := fresh()
	res, err := blk1.SpMVBlock(a, xs[:1], yIns[:1])
	ok(err)
	sameBits("SpMVBlock k=1", res.Ys[0], want)
	sameBooks("SpMVBlock k=1 vs SpMV", blk1, spmv)
	if res.Deltas[0] != blk1.Counters() {
		t.Error("SpMVBlock k=1: the single delta does not carry the whole movement")
	}

	stripes, err := matrix.Partition1D(a, cfg.SegmentWidth())
	ok(err)
	pre := fresh()
	y, err = pre.SpMVStripes(stripes, a.Rows, a.Cols, x, yIn)
	ok(err)
	sameBits("SpMVStripes", y, want)

	if planned {
		sameBooks("SpMVStripes vs SpMV", pre, spmv)
	}

	// SpMSpV on a zero-free full frontier multiplies every nonzero, so it
	// differs from SpMV only in how x streams in: (index, value) records
	// instead of dense segments. With a MatrixCodec this row is the
	// regression for the frontier path booking uncompressed meta bytes.
	plainX := fresh()
	_, err = plainX.SpMV(a, x, nil)
	ok(err)
	frontier := vector.NewSparse(eqDim, eqDim)
	for i, v := range x {
		ok(frontier.Append(types.Record{Key: uint64(i), Val: v}))
	}
	sp := fresh()
	y, st, err := sp.SpMSpV(a, frontier)
	ok(err)
	sameBits("SpMSpV", y, ref(a, x, nil))
	if st.EntriesSkipped != 0 || st.EntriesVisited != uint64(a.NNZ()) {
		t.Errorf("SpMSpV: visited %d skipped %d of %d nonzeros", st.EntriesVisited, st.EntriesSkipped, a.NNZ())
	}
	if planned {
		wantC := plainX.Counters()
		wantC.Traffic.SourceVectorBytes = eqDim * uint64(cfg.MetaBytes+cfg.ValueBytes)
		if sp.Counters() != wantC {
			t.Errorf("SpMSpV: ledger differs from SpMV's beyond the x stream:\n got  %+v\n want %+v", sp.Counters(), wantC)
		}
	}

	seq3 := fresh()
	for c := range xs {
		_, err := seq3.SpMV(a, xs[c], yIns[c])
		ok(err)
	}
	blk3 := fresh()
	res, err = blk3.SpMVBlock(a, xs, yIns)
	ok(err)
	var split report.Counters
	for c := range xs {
		sameBits("SpMVBlock k=3", res.Ys[c], ref(a, xs[c], yIns[c]))
		split = split.Add(res.Deltas[c])
	}
	if got, want := blk3.Counters(), amortized(seq3, single, 2); got != want {
		t.Errorf("SpMVBlock k=3: ledger is not 3 sequential runs minus 2 matrix shares:\n got  %+v\n want %+v", got, want)
	}
	if split != blk3.Counters() {
		t.Error("SpMVBlock k=3: per-column deltas do not sum to the batch ledger")
	}
	if got, want := blk3.Stats().HDNFilterBytes, spmv.Stats().HDNFilterBytes; got != want {
		t.Errorf("SpMVBlock k=3: HDN filter bytes %d, want the single-run %d", got, want)
	}

	// --- damped iteration ---
	opt := IterateOptions{Iterations: 3, Damping: 0.5}
	refIterate := func(x0 vector.Dense) vector.Dense {
		x := x0
		for it := 0; it < opt.Iterations; it++ {
			x = ref(a, x, nil)
			dampSegment(x, opt.Damping, (1-opt.Damping)/eqDim)
		}
		return x
	}
	iter := fresh()
	ir, err := iter.Iterate(a, x, opt)
	ok(err)
	sameBits("Iterate", ir.X, refIterate(x))

	its := fresh()
	opt.Overlap = true
	ir, err = its.Iterate(a, x, opt)
	ok(err)
	opt.Overlap = false
	sameBits("Iterate overlap", ir.X, refIterate(x))
	// ITS moves the transition round trips from the ledger to the saved
	// column and changes nothing else.
	wantITS := iter.Counters()
	wantITS.Traffic.ResultBytes -= ir.TransitionBytesSaved
	wantITS.TransitionBytesSaved = ir.TransitionBytesSaved
	if ir.TransitionBytesSaved == 0 || its.Counters() != wantITS {
		t.Errorf("Iterate overlap: ledger is not the sequential one with %d transition bytes saved:\n got  %+v\n want %+v",
			ir.TransitionBytesSaved, its.Counters(), wantITS)
	}

	// --- PageRank ---
	// Four iterations is as far as exactness reaches: the dangling-mass
	// term shrinks the quantum by 2^-10 per iteration.
	const damping, tol, maxIters = 0.5, 0.05, 4
	norm, dangling := pageRankSetup(a)
	refPageRank := func() (vector.Dense, int) {
		x := vector.NewDense(eqDim)
		x.Fill(1.0 / eqDim)
		for it := 1; ; it++ {
			y := ref(norm, x, nil)
			mass := 0.0
			for _, j := range dangling {
				mass += x[j]
			}
			dampSegment(y, damping, (1-damping)/eqDim+damping*mass/eqDim)
			delta := l1Delta(y, x)
			x = y
			if delta < tol || it == maxIters {
				return x, it
			}
		}
	}
	wantRanks, wantIters := refPageRank()
	var pr [2]*Engine
	for i, overlap := range []bool{false, true} {
		pr[i] = fresh()
		ranks, iters, err := pr[i].PageRank(a, damping, tol, maxIters, overlap)
		ok(err)
		sameBits("PageRank", ranks, wantRanks)
		if iters != wantIters {
			t.Errorf("PageRank overlap=%v: %d iterations, reference %d", overlap, iters, wantIters)
		}
	}
	wantITS = pr[0].Counters()
	saved := pr[1].Counters().TransitionBytesSaved
	wantITS.Traffic.ResultBytes -= saved
	wantITS.TransitionBytesSaved = saved
	if pr[1].Counters() != wantITS {
		t.Errorf("PageRank overlap: ledger is not the sequential one with %d transition bytes saved:\n got  %+v\n want %+v",
			saved, pr[1].Counters(), wantITS)
	}

	books := make([]report.Counters, len(engines))
	for i, e := range engines {
		books[i] = e.Counters()
	}
	return books
}

// TestOperandErrorsMatchSpMV pins the shared operand check: the stripe
// adapter and every iterative entry point reject a
// bad-dimension vector with exactly SpMV's error, and SpMVStripes names
// the capacity the way SpMV does.
func TestOperandErrorsMatchSpMV(t *testing.T) {
	cfg := testConfig() // capacity 64 ways x 128 = 8192
	e, _ := New(cfg)
	a := graph.Diagonal(300, 1)
	stripes, _ := matrix.Partition1D(a, cfg.SegmentWidth())
	good, short := randomX(300, 1), randomX(100, 2)

	same := func(what string, got, want error) {
		t.Helper()
		if want == nil || got == nil {
			t.Fatalf("%s: bad input accepted (SpMV: %v, got: %v)", what, want, got)
		}
		if got.Error() != want.Error() {
			t.Errorf("%s error differs:\nSpMV %q\ngot  %q", what, want, got)
		}
	}

	_, wantX := e.SpMV(a, short, nil)
	_, gotErr := e.SpMVStripes(stripes, 300, 300, short, nil)
	same("SpMVStripes x", gotErr, wantX)
	for _, overlap := range []bool{false, true} {
		_, gotErr = e.Iterate(a, short, IterateOptions{Iterations: 2, Overlap: overlap})
		same("Iterate x0", gotErr, wantX)
	}

	_, wantY := e.SpMV(a, good, short)
	_, gotErr = e.SpMVStripes(stripes, 300, 300, good, short)
	same("SpMVStripes yIn", gotErr, wantY)

	over := graph.Diagonal(10000, 1)
	overStripes, _ := matrix.Partition1D(over, cfg.SegmentWidth())
	_, wantCap := e.SpMV(over, vector.NewDense(10000), nil)
	_, gotErr = e.SpMVStripes(overStripes, 10000, 10000, vector.NewDense(10000), nil)
	same("SpMVStripes capacity", gotErr, wantCap)
}
