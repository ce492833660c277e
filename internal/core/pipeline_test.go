package core

import (
	"math"
	"testing"
	"time"

	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
)

// pipelineConfig returns the small engine with enough step-1 and merge
// parallelism that the pipelined schedule genuinely interleaves.
func pipelineConfig() Config {
	cfg := testConfig()
	cfg.Workers = 4
	cfg.Merge.MergeWorkers = 2
	return cfg
}

// TestPipelinedIterateBitIdentical is the -race hammer for the ITS
// pipeline: across seeds, workloads and damping settings, Overlap must
// produce byte-identical vectors to the sequential schedule. Run with
// -race this also exercises the segment-gate synchronization under real
// goroutine interleavings.
func TestPipelinedIterateBitIdentical(t *testing.T) {
	for _, seed := range []int64{101, 202, 303, 404} {
		a, err := graph.Zipf(3000, 5, 1.8, seed)
		if err != nil {
			t.Fatalf("Zipf: %v", err)
		}
		x0 := randomX(a.Rows, seed+1)
		for _, damping := range []float64{0, 0.85} {
			seq, err := New(testConfig())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ovl, err := New(pipelineConfig())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			opt := IterateOptions{Iterations: 5, Damping: damping}
			rs, err := seq.Iterate(a, x0, opt)
			if err != nil {
				t.Fatalf("sequential Iterate: %v", err)
			}
			opt.Overlap = true
			ro, err := ovl.Iterate(a, x0, opt)
			if err != nil {
				t.Fatalf("pipelined Iterate: %v", err)
			}
			if d := rs.X.MaxAbsDiff(ro.X); d != 0 {
				t.Errorf("seed %d damping %g: pipelined diverged by %g", seed, damping, d)
			}
			if ro.TransitionBytesSaved != uint64(opt.Iterations-1)*a.Rows*8 {
				t.Errorf("seed %d: saved %d bytes, want %d",
					seed, ro.TransitionBytesSaved, uint64(opt.Iterations-1)*a.Rows*8)
			}
		}
	}
}

// TestPipelinedPageRankBitIdentical hammers the PageRank flavor of the
// pipeline — streaming teleport update plus early convergence — against
// the sequential loop.
func TestPipelinedPageRankBitIdentical(t *testing.T) {
	for _, seed := range []int64{7, 19, 31} {
		a, err := graph.Zipf(2000, 6, 1.9, seed)
		if err != nil {
			t.Fatalf("Zipf: %v", err)
		}
		seq, err := New(testConfig())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ovl, err := New(pipelineConfig())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rSeq, itSeq, err := seq.PageRank(a, 0.85, 1e-8, 100, false)
		if err != nil {
			t.Fatalf("sequential PageRank: %v", err)
		}
		rOvl, itOvl, err := ovl.PageRank(a, 0.85, 1e-8, 100, true)
		if err != nil {
			t.Fatalf("pipelined PageRank: %v", err)
		}
		if itSeq != itOvl {
			t.Errorf("seed %d: iterations %d (seq) != %d (pipelined)", seed, itSeq, itOvl)
		}
		if d := rSeq.MaxAbsDiff(rOvl); d != 0 {
			t.Errorf("seed %d: pipelined PageRank diverged by %g", seed, d)
		}
	}
}

// TestPageRankDanglingMassConserved is the sink-graph regression: a
// chain whose last node has no outgoing edges leaks rank mass unless
// the dangling correction redistributes it, so ‖x‖₁ must stay ≈ 1 on
// both schedules.
func TestPageRankDanglingMassConserved(t *testing.T) {
	const n = 600
	entries := make([]matrix.Entry, 0, n-1)
	for i := uint64(0); i+1 < n; i++ {
		entries = append(entries, matrix.Entry{Row: i + 1, Col: i, Val: 1})
	}
	a, err := matrix.NewCOO(n, n, entries)
	if err != nil {
		t.Fatalf("NewCOO: %v", err)
	}
	var ranks [2]vector.Dense
	for i, overlap := range []bool{false, true} {
		cfg := testConfig()
		if overlap {
			cfg = pipelineConfig()
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r, iters, err := eng.PageRank(a, 0.85, 1e-10, 200, overlap)
		if err != nil {
			t.Fatalf("PageRank(overlap=%v): %v", overlap, err)
		}
		if iters >= 200 {
			t.Errorf("overlap=%v: did not converge in %d iterations", overlap, iters)
		}
		if s := r.Norm1(); math.Abs(s-1) > 1e-9 {
			t.Errorf("overlap=%v: rank mass %g leaked from the sink, want ≈ 1", overlap, s)
		}
		ranks[i] = r
	}
	if d := ranks[0].MaxAbsDiff(ranks[1]); d != 0 {
		t.Errorf("sink-graph PageRank: pipelined diverged by %g", d)
	}
}

// TestItsLaneMeasuresOverlap asserts the "its" lane records genuinely
// measured overlap windows: one span per committed transition (N-1 for
// N iterations) and a nonzero total width.
func TestItsLaneMeasuresOverlap(t *testing.T) {
	rec := report.NewRecorder()
	cfg := pipelineConfig()
	cfg.Recorder = rec
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, err := graph.ErdosRenyi(3000, 6, 51)
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	if _, err := eng.Iterate(a, randomX(a.Rows, 52), IterateOptions{Iterations: 4, Overlap: true}); err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	rep := rec.Build(report.Meta{})
	found := false
	for _, l := range rep.Lanes {
		if l.Lane != "its" {
			continue
		}
		found = true
		if l.Spans != 3 {
			t.Errorf("its lane has %d spans, want 3 (one per committed transition)", l.Spans)
		}
		if l.BusyNS == 0 {
			t.Error("its lane measured zero overlap width")
		}
	}
	if !found {
		t.Fatal("no its lane in the report")
	}
}

// TestSegmentGateBound verifies the producer stalls at the two-segment
// handoff bound and resumes when the consumer frees a slot.
func TestSegmentGateBound(t *testing.T) {
	g := newSegmentGate(2)
	g.publish()
	g.publish()
	done := make(chan struct{})
	go func() {
		g.publish()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("third publish did not block at the two-segment bound")
	case <-time.After(20 * time.Millisecond):
	}
	g.consume()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("publish still blocked after a consume")
	}
	g.wait(2)
}

// stripeOrderSpMV is the reference multiply y = A·x in the engine's
// summation order (DESIGN.md §12): each row's products within one
// stripe of the given width summed in entry order from the first
// product, and the stripe sums added onto +0.0 in stripe order. NewCOO
// sorts the entries row-major, so a row's stripes come in ascending
// order and each stripe's entries are contiguous.
func stripeOrderSpMV(a *matrix.COO, x vector.Dense, width uint64) vector.Dense {
	y := vector.NewDense(int(a.Rows))
	es := a.Entries
	for i := 0; i < len(es); {
		row, stripe := es[i].Row, es[i].Col/width
		sum := float64(es[i].Val * x[es[i].Col])
		for i++; i < len(es) && es[i].Row == row && es[i].Col/width == stripe; i++ {
			sum += float64(es[i].Val * x[es[i].Col])
		}
		y[row] += sum
	}
	return y
}

// oracleDamp is the damped update y = damping·y + base, per element.
func oracleDamp(y vector.Dense, damping, base float64) {
	for i := range y {
		y[i] = float64(damping*y[i]) + base
	}
}

// oracleIterate is damped Iterate written out serially: n multiplies in
// stripes of the given width, each followed by oracleDamp.
func oracleIterate(a *matrix.COO, width uint64, x0 vector.Dense, n int, damping float64) vector.Dense {
	x := x0
	for it := 0; it < n; it++ {
		x = stripeOrderSpMV(a, x, width)
		if damping != 0 {
			oracleDamp(x, damping, (1-damping)/float64(a.Rows))
		}
	}
	return x
}

// oraclePageRank is PageRank written out serially: each multiply by the
// normalized matrix is followed by oracleDamp, whose base takes the
// dangling mass of the iteration's source vector from pageRankSetup's
// list, and it stops on ‖y − x‖₁ < tol, summed in index order, or at
// maxIters.
func oraclePageRank(a *matrix.COO, width uint64, damping, tol float64, maxIters int) (vector.Dense, int) {
	norm, dangling := pageRankSetup(a)
	n := float64(a.Rows)
	x := vector.NewDense(int(a.Rows))
	x.Fill(1 / n)
	for it := 1; ; it++ {
		mass := 0.0
		for _, j := range dangling {
			mass += x[j]
		}
		y := stripeOrderSpMV(norm, x, width)
		oracleDamp(y, damping, (1-damping)/n+damping*mass/n)
		delta := 0.0
		for i := range y {
			d := y[i] - x[i]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		x = y
		if delta < tol || it == maxIters {
			return x, it
		}
	}
}

// FuzzIterateSchedulesAgree fuzzes small hostile square matrices — 1×1,
// empty rows and columns, explicit zeros, NaN values, dimensions off the
// segment width, a single iteration — with the damping and the
// tolerance, and holds both ITS entry points to the sequential schedule:
// Iterate and PageRank with overlap return the same bits (or the same
// error) and iteration counts, and book the sequential ledger and
// statistics less the transitions ITS kept on chip. Both schedules apply
// the update inside step 2 and sum PageRank's vector passes the same
// way, so a third arm holds the sequential schedule, on step-2 and
// vector-sum goroutines of its own, to oracleIterate and oraclePageRank
// by bits and iteration count. The first two bytes pick the dimension; each further
// three bytes are one entry (row, column, value; a value byte 0x7f is
// NaN).
func FuzzIterateSchedulesAgree(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3}, 0.85, 1e-9, uint8(0))                          // 1×1, one iteration
	f.Add([]byte{1, 44, 3, 7, 16, 9, 200, 250, 40, 40, 0}, 0.5, 1e-3, uint8(4)) // 301: partial segment, empty rows
	f.Add([]byte{0, 127, 1, 2, 3, 4, 5, 6}, 0.0, 0.0, uint8(7))                 // 128: one full segment
	f.Add([]byte{2, 88, 255, 0, 128, 0, 255, 1}, 1.0, 1e-12, uint8(2))          // 601: sign flips, sinks
	f.Add([]byte{0, 9, 1, 2, 0x7f, 3, 4, 5}, 0.85, 1e-6, uint8(5))              // 10: a NaN value, never converges
	f.Fuzz(func(t *testing.T, data []byte, damping, tol float64, iters uint8) {
		if len(data) < 2 {
			return
		}
		dim := (uint64(data[0])<<8|uint64(data[1]))%700 + 1
		var entries []matrix.Entry
		hasNaN := false
		for data = data[2:]; len(data) >= 3; data = data[3:] {
			val := float64(int8(data[2])) / 16
			if data[2] == 0x7f {
				val, hasNaN = math.NaN(), true
			}
			entries = append(entries, matrix.Entry{
				Row: uint64(data[0]) * 7 % dim,
				Col: uint64(data[1]) * 5 % dim,
				Val: val,
			})
		}
		a, err := matrix.NewCOO(dim, dim, entries)
		if err != nil {
			t.Fatal(err)
		}
		n := int(iters)%8 + 1
		x0 := randomX(dim, int64(len(entries)))
		transition := dim * 8

		// agree runs one entry point on a fresh sequential and a fresh
		// overlapped engine and compares results, errors and books.
		agree := func(name string, run func(e *Engine, overlap bool) (vector.Dense, int, error)) {
			seq, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			ovl, err := New(pipelineConfig())
			if err != nil {
				t.Fatal(err)
			}
			ys, its, errS := run(seq, false)
			yo, ito, errO := run(ovl, true)
			if (errS == nil) != (errO == nil) || errS != nil && errS.Error() != errO.Error() {
				t.Fatalf("%s: errors differ: sequential %v, overlap %v", name, errS, errO)
			}
			if errS != nil {
				return
			}
			if its != ito || !sameFloatBits(ys, yo) {
				t.Fatalf("%s: overlap (%d iterations) differs from sequential (%d) in its bits", name, ito, its)
			}
			saved := uint64(its-1) * transition
			want := seq.Counters()
			want.Traffic.ResultBytes -= saved
			want.TransitionBytesSaved += saved
			if got := ovl.Counters(); got != want {
				t.Fatalf("%s: overlap counters %+v, want the sequential ones less %d saved bytes: %+v", name, got, saved, want)
			}
		}
		agree("Iterate", func(e *Engine, overlap bool) (vector.Dense, int, error) {
			r, err := e.Iterate(a, x0, IterateOptions{Iterations: n, Overlap: overlap, Damping: damping})
			if err == nil && r.TransitionBytesSaved != e.Stats().TransitionBytesSaved {
				t.Fatalf("Iterate reports %d saved bytes, the engine %d", r.TransitionBytesSaved, e.Stats().TransitionBytesSaved)
			}
			return r.X, r.Iterations, err
		})
		agree("PageRank", func(e *Engine, overlap bool) (vector.Dense, int, error) {
			return e.PageRank(a, damping, tol, n, overlap)
		})

		// The oracle arm: one engine with two step-2 and two vector-sum
		// goroutines, on the sequential schedule.
		cfg := pipelineConfig()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		width := cfg.SegmentWidth()
		if r, err := e.Iterate(a, x0, IterateOptions{Iterations: n, Damping: damping}); err == nil {
			if want := oracleIterate(a, width, x0, n, damping); !sameFloatBits(r.X, want) {
				t.Fatalf("Iterate differs from the serial oracle in its bits")
			}
		}
		if ranks, its, err := e.PageRank(a, damping, tol, n, false); err == nil {
			want, wantIts := oraclePageRank(a, width, damping, tol, n)
			if its != wantIts || !sameFloatBits(ranks, want) {
				t.Fatalf("PageRank (%d iterations) differs from the serial oracle (%d) in its bits", its, wantIts)
			}
			if hasNaN && its != n {
				t.Fatalf("PageRank over a NaN value stopped after %d iterations, want all %d", its, n)
			}
		}
	})
}

func benchmarkIterate(b *testing.B, overlap bool) {
	a, err := graph.Zipf(4000, 8, 1.9, 7)
	if err != nil {
		b.Fatalf("Zipf: %v", err)
	}
	cfg := testConfig()
	cfg.Workers = 4
	cfg.Merge.MergeWorkers = 4
	eng, err := New(cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	x0 := randomX(a.Rows, 8)
	opt := IterateOptions{Iterations: 8, Overlap: overlap, Damping: 0.85}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Iterate(a, x0, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterateSequential / BenchmarkIteratePipelined compare the
// wall-clock of the two schedules on a power-law workload; the pipeline
// should win by overlapping step 2 with the next step 1.
func BenchmarkIterateSequential(b *testing.B) { benchmarkIterate(b, false) }
func BenchmarkIteratePipelined(b *testing.B)  { benchmarkIterate(b, true) }
