package mwmerge

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out.
// `go test -bench=. -benchmem` regenerates every result; per-experiment
// text output goes through cmd/spmvbench.

import (
	"io"
	"sort"
	"testing"
	"time"

	"mwmerge/internal/bench"
	"mwmerge/internal/bitonic"
	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
	"mwmerge/internal/merge"
	"mwmerge/internal/perfmodel"
	"mwmerge/internal/prap"
	"mwmerge/internal/types"
	"mwmerge/internal/vldi"
)

// benchExperiment runs one registered experiment per iteration, discarding
// the textual output.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := bench.Options{Scale: 1 << 14, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02Specs(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig04Traffic(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig13VLDI(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14VLDI(b *testing.B)         { benchExperiment(b, "fig14") }
func BenchmarkTab1OnChip(b *testing.B)        { benchExperiment(b, "tab1") }
func BenchmarkTab2DesignPoints(b *testing.B)  { benchExperiment(b, "tab2") }
func BenchmarkTab3Benchmarks(b *testing.B)    { benchExperiment(b, "tab3") }
func BenchmarkTab4Datasets(b *testing.B)      { benchExperiment(b, "tab4") }
func BenchmarkTab5Datasets(b *testing.B)      { benchExperiment(b, "tab5") }
func BenchmarkTab6Datasets(b *testing.B)      { benchExperiment(b, "tab6") }
func BenchmarkFig17ASICvsCustom(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig18FPGAvsCustom(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19ASICvsGPU(b *testing.B)    { benchExperiment(b, "fig19") }
func BenchmarkFig20FPGAvsGPU(b *testing.B)    { benchExperiment(b, "fig20") }
func BenchmarkFig21ASICvsCPU(b *testing.B)    { benchExperiment(b, "fig21") }
func BenchmarkFig22FPGAvsCPU(b *testing.B)    { benchExperiment(b, "fig22") }

func BenchmarkAblationPrefetchScaling(b *testing.B) { benchExperiment(b, "ablation-prefetch") }
func BenchmarkAblationHDN(b *testing.B)             { benchExperiment(b, "ablation-hdn") }
func BenchmarkAblationITS(b *testing.B)             { benchExperiment(b, "ablation-its") }
func BenchmarkAblationVLDIMeasured(b *testing.B)    { benchExperiment(b, "ablation-vldi") }
func BenchmarkOnChipSweep(b *testing.B)             { benchExperiment(b, "onchip-sweep") }
func BenchmarkMCScaling(b *testing.B)               { benchExperiment(b, "mc-scaling") }
func BenchmarkRowBuffer(b *testing.B)               { benchExperiment(b, "rowbuffer") }
func BenchmarkInterfaceSweep(b *testing.B)          { benchExperiment(b, "interface-sweep") }
func BenchmarkDesignSpace(b *testing.B)             { benchExperiment(b, "designspace") }
func BenchmarkStackScaling(b *testing.B)            { benchExperiment(b, "stack-scaling") }
func BenchmarkSkewModel(b *testing.B)               { benchExperiment(b, "skew-model") }
func BenchmarkCapacityBeyond(b *testing.B)          { benchExperiment(b, "capacity-beyond") }
func BenchmarkFunctionalCrossCheck(b *testing.B)    { benchExperiment(b, "functional") }

// BenchmarkSpMVEndToEnd measures the functional Two-Step datapath on a
// 100K-node degree-3 graph (edges/op reported as a custom metric).
func BenchmarkSpMVEndToEnd(b *testing.B) {
	a, err := ErdosRenyi(100_000, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(DefaultEngineConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := NewDense(int(a.Cols))
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SpMV(a, x, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.NNZ()), "edges/op")
}

// BenchmarkPageRankIteration times one PageRank iteration against one
// damped Iterate iteration on a hyper-sparse ER(2^20, 0.125) graph with
// the default engine: the two run the same multiply, so the ratio is
// the cost of PageRank's per-iteration vector work (the convergence
// check and the dangling mass). Each op runs PageRank to tolerance and
// eight damped Iterate iterations; both are warmed first, so the plans
// are built outside the timer.
func BenchmarkPageRankIteration(b *testing.B) {
	const damping, tol, maxIters, iters = 0.85, 1e-6, 200, 8
	a, err := ErdosRenyi(1<<20, 0.125, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(DefaultEngineConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := NewDense(int(a.Cols))
	x.Fill(1 / float64(a.Cols))
	opt := IterateOptions{Iterations: iters, Damping: damping}
	if _, _, err := eng.PageRank(a, damping, tol, maxIters, false); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Iterate(a, x, opt); err != nil {
		b.Fatal(err)
	}
	var pageRank, iterate time.Duration
	prIters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		_, n, err := eng.PageRank(a, damping, tol, maxIters, false)
		if err != nil {
			b.Fatal(err)
		}
		pageRank += time.Since(start)
		prIters += n
		start = time.Now()
		if _, err := eng.Iterate(a, x, opt); err != nil {
			b.Fatal(err)
		}
		iterate += time.Since(start)
	}
	prMs := pageRank.Seconds() * 1e3 / float64(prIters)
	itMs := iterate.Seconds() * 1e3 / float64(b.N*iters)
	b.ReportMetric(prMs, "pagerank_ms/iter")
	b.ReportMetric(itMs, "iterate_ms/iter")
	b.ReportMetric(prMs/itMs, "pagerank/iterate")
}

// BenchmarkSpMVReference is the dense-oracle counterpart of the end-to-end
// bench, for overhead comparison.
func BenchmarkSpMVReference(b *testing.B) {
	a, err := ErdosRenyi(100_000, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := NewDense(int(a.Cols))
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReferenceSpMV(a, x, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeCoreWays sweeps the cycle-approximate merge core across
// tree widths (§3.2 ablation).
func BenchmarkMergeCoreWays(b *testing.B) {
	for _, ways := range []int{8, 32, 128} {
		ways := ways
		b.Run(benchName("K", ways), func(b *testing.B) {
			lists := makeSortedLists(ways, 512, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sources := make([]merge.Source, ways)
				for j, l := range lists {
					sources[j] = merge.NewSliceSource(l)
				}
				c, err := merge.NewCore(merge.CoreConfig{
					Ways: ways, FIFODepth: 8,
					RecordBytes: types.RecordBytes, FillPerCycle: 32,
				}, sources)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPRaPScaling sweeps the radix width (§4.2 ablation): output
// width doubles per q with a constant prefetch buffer.
func BenchmarkPRaPScaling(b *testing.B) {
	const dim = 1 << 15
	m, err := graph.ErdosRenyi(dim, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	lists := listsOf(b, m, dim/16)
	for _, q := range []uint{0, 2, 4} {
		q := q
		b.Run(benchName("q", int(q)), func(b *testing.B) {
			n, err := prap.New(prap.Config{Q: q, Ways: 64, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := n.Merge(lists, dim, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPRaPMerge runs the step-2 PRaP merge at a fixed MergeWorkers
// setting on a shared workload: a 2^17-node degree-8 graph split into 64
// intermediate lists, merged by 16 MCs (q=4).
func benchPRaPMerge(b *testing.B, workers int) {
	b.Helper()
	const dim = 1 << 17
	m, err := graph.ErdosRenyi(dim, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	lists := listsOf(b, m, dim/64)
	n, err := prap.New(prap.Config{
		Q: 4, Ways: 64, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16,
		MergeWorkers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := n.Merge(lists, dim, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dim), "rows/op")
}

// BenchmarkPRaPMergeSequential / BenchmarkPRaPMergeParallel are the
// tentpole speedup pair: identical workload and bit-identical output,
// differing only in how many goroutines the pre-sort and merge cores
// run on. On a multi-core host the 8-worker parallel run should beat
// the sequential one by >= 1.5x.
func BenchmarkPRaPMergeSequential(b *testing.B) { benchPRaPMerge(b, 1) }

func BenchmarkPRaPMergeParallel(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		w := w
		b.Run(benchName("mw", w), func(b *testing.B) { benchPRaPMerge(b, w) })
	}
}

// BenchmarkBitonicPresort measures the radix pre-sorter across widths.
func BenchmarkBitonicPresort(b *testing.B) {
	for _, w := range []int{8, 16, 32} {
		w := w
		b.Run(benchName("p", w), func(b *testing.B) {
			ps, err := bitonic.NewPreSorter(w, 4)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]types.Record, w)
			for i := range batch {
				batch[i] = types.Record{Key: uint64(i * 2654435761)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ps.Sort(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVLDICodec measures encode+decode throughput at the two optimal
// block widths of Fig. 13.
func BenchmarkVLDICodec(b *testing.B) {
	deltas := make([]uint64, 4096)
	for i := range deltas {
		deltas[i] = uint64(i%1000) + 1
	}
	for _, blockBits := range []int{4, 8} {
		blockBits := blockBits
		b.Run(benchName("block", blockBits), func(b *testing.B) {
			c, err := vldi.NewCodec(blockBits)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc := c.EncodeDeltas(deltas)
				if _, err := c.DecodeDeltas(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyticEvaluate measures the closed-form model itself across
// all design points on the largest dataset.
func BenchmarkAnalyticEvaluate(b *testing.B) {
	g := perfmodel.GraphStats{Nodes: 2e9, Edges: 2.27e9}
	d := perfmodel.ASICDesign(perfmodel.TS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Evaluate(g); err != nil {
			b.Fatal(err)
		}
	}
}

// Helpers.

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func makeSortedLists(n, length int, seed uint64) [][]types.Record {
	lists := make([][]types.Record, n)
	state := seed
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := range lists {
		keys := make([]uint64, length)
		for j := range keys {
			keys[j] = next() % 1_000_000
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		recs := make([]types.Record, length)
		for j, k := range keys {
			recs[j] = types.Record{Key: k, Val: 1}
		}
		lists[i] = recs
	}
	return lists
}

// listsOf converts a matrix into per-stripe sorted record lists (the
// intermediate-vector shape step 2 consumes).
func listsOf(b *testing.B, m *Matrix, segWidth uint64) [][]types.Record {
	b.Helper()
	stripes, err := matrix.Partition1D(m, segWidth)
	if err != nil {
		b.Fatal(err)
	}
	lists := make([][]types.Record, len(stripes))
	for k, s := range stripes {
		var recs []types.Record
		for _, e := range s.Entries {
			if n := len(recs); n > 0 && recs[n-1].Key == e.Row {
				recs[n-1].Val += e.Val
				continue
			}
			recs = append(recs, types.Record{Key: e.Row, Val: e.Val})
		}
		lists[k] = recs
	}
	return lists
}

// BenchmarkSpMVWorkers measures the host-side parallel speedup of the
// step-1 worker pool.
func BenchmarkSpMVWorkers(b *testing.B) {
	a, err := ErdosRenyi(200_000, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := NewDense(int(a.Cols))
	for i := range x {
		x[i] = float64(i%9) - 4
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(benchName("w", workers), func(b *testing.B) {
			cfg := DefaultEngineConfig()
			cfg.Workers = workers
			eng, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SpMV(a, x, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
