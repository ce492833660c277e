package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
	"mwmerge/internal/vldi"
)

// testConfig returns a small engine: 1 KiB scratchpad (128-element
// segments at 8-byte values), 4 MCs of 64 ways.
func testConfig() Config {
	return Config{
		ScratchpadBytes: 1024,
		ValueBytes:      8,
		MetaBytes:       8,
		Lanes:           4,
		Merge:           prap.Config{Q: 2, Ways: 64, FIFODepth: 4, DPage: 256, RecordBytes: 16},
		HBM:             testHBM(),
	}
}

func testHBM() mem.HBMConfig { return mem.DefaultHBM() }

func randomX(n uint64, seed int64) vector.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := vector.NewDense(int(n))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := testConfig()
	c.ScratchpadBytes = 0
	if err := c.Validate(); err == nil {
		t.Error("zero scratchpad accepted")
	}
	c = testConfig()
	c.ValueBytes = 3
	if err := c.Validate(); err == nil {
		t.Error("3-byte precision accepted")
	}
	c = testConfig()
	c.Lanes = 0
	if err := c.Validate(); err == nil {
		t.Error("zero lanes accepted")
	}
	c = testConfig()
	c.MetaBytes = 9
	if err := c.Validate(); err == nil {
		t.Error("9-byte meta accepted")
	}
	c = testConfig()
	c.Workers = -3
	if err := c.Validate(); err == nil {
		t.Error("negative workers accepted")
	}
}

func TestCapacityModel(t *testing.T) {
	c := testConfig()
	if c.SegmentWidth() != 128 {
		t.Errorf("SegmentWidth = %d", c.SegmentWidth())
	}
	if c.MaxDimension() != 64*128 {
		t.Errorf("MaxDimension = %d", c.MaxDimension())
	}
}

func TestSpMVMatchesReferenceDiagonal(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := graph.Diagonal(300, 2)
	x := randomX(300, 1)
	got, err := e.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceSpMV(a, x, nil)
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Errorf("diagonal SpMV max diff %g", d)
	}
}

func TestSpMVMatchesReferenceER(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, deg := range []float64{0.5, 3, 10} {
		a, err := graph.ErdosRenyi(1000, deg, 7)
		if err != nil {
			t.Fatal(err)
		}
		x := randomX(1000, 2)
		got, err := e.SpMV(a, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := referenceSpMV(a, x, nil)
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("deg %g: max diff %g", deg, d)
		}
	}
}

func TestSpMVWithYIn(t *testing.T) {
	e, _ := New(testConfig())
	a, _ := graph.ErdosRenyi(500, 4, 3)
	x := randomX(500, 4)
	y := randomX(500, 5)
	got, err := e.SpMV(a, x, y)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceSpMV(a, x, y)
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("y=Ax+y max diff %g", d)
	}
}

func TestSpMVRectangular(t *testing.T) {
	e, _ := New(testConfig())
	// 400 rows x 600 cols.
	rng := rand.New(rand.NewSource(6))
	var es []matrix.Entry
	for i := 0; i < 2000; i++ {
		es = append(es, matrix.Entry{Row: rng.Uint64() % 400, Col: rng.Uint64() % 600, Val: rng.NormFloat64()})
	}
	a, err := matrix.NewCOO(400, 600, es)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(600, 7)
	got, err := e.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceSpMV(a, x, nil)
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("rectangular max diff %g", d)
	}
}

func TestSpMVDimensionChecks(t *testing.T) {
	e, _ := New(testConfig())
	a := graph.Diagonal(10, 1)
	if _, err := e.SpMV(a, vector.NewDense(5), nil); err == nil {
		t.Error("bad x dimension accepted")
	}
	if _, err := e.SpMV(a, vector.NewDense(10), vector.NewDense(3)); err == nil {
		t.Error("bad y dimension accepted")
	}
	// Exceed capacity: 64 ways x 128 width = 8192.
	big := graph.Diagonal(9000, 1)
	if _, err := e.SpMV(big, vector.NewDense(9000), nil); err == nil {
		t.Error("oversized matrix accepted")
	}
}

func TestSpMVWithVLDI(t *testing.T) {
	cfg := testConfig()
	codec, _ := vldi.NewCodec(6)
	cfg.VectorCodec = codec
	cfg.MatrixCodec = codec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := graph.ErdosRenyi(2000, 3, 11)
	x := randomX(2000, 12)
	got, err := e.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceSpMV(a, x, nil)
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("VLDI engine max diff %g", d)
	}
	st := e.Stats()
	if st.VecCompressedBytes >= st.VecUncompressedBytes {
		t.Errorf("VLDI did not compress vectors: %d >= %d", st.VecCompressedBytes, st.VecUncompressedBytes)
	}
	if st.MatCompressedBytes >= st.MatUncompressedBytes {
		t.Errorf("VLDI did not compress matrix meta: %d >= %d", st.MatCompressedBytes, st.MatUncompressedBytes)
	}
}

func TestSpMVWithHDN(t *testing.T) {
	cfg := testConfig()
	h := hdn.DefaultConfig()
	h.Threshold = 50
	cfg.HDN = &h
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := graph.Zipf(3000, 8, 1.8, 13)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(3000, 14)
	got, err := e.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceSpMV(a, x, nil)
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("HDN engine max diff %g", d)
	}
	st := e.Stats()
	if st.HDNRecords == 0 {
		t.Error("no records routed to HDN pipeline on a Zipf graph")
	}
	if st.HDNFilterBytes == 0 {
		t.Error("filter size not recorded")
	}
}

func TestTrafficLedgerPopulated(t *testing.T) {
	e, _ := New(testConfig())
	a, _ := graph.ErdosRenyi(1000, 3, 15)
	x := randomX(1000, 16)
	if _, err := e.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}
	tr := e.Traffic()
	if tr.MatrixBytes == 0 || tr.SourceVectorBytes == 0 ||
		tr.IntermediateWrite == 0 || tr.IntermediateRead == 0 || tr.ResultBytes == 0 {
		t.Errorf("traffic ledger incomplete: %+v", tr)
	}
	// Intermediate write and read must be symmetric (round trip).
	if tr.IntermediateWrite != tr.IntermediateRead {
		t.Errorf("asymmetric intermediate round trip: %d vs %d", tr.IntermediateWrite, tr.IntermediateRead)
	}
	// Two-Step never does cache-line random access: zero wastage.
	if tr.WastageBytes != 0 {
		t.Errorf("Two-Step incurred wastage %d", tr.WastageBytes)
	}
	// x streamed exactly once: N x valueBytes.
	if tr.SourceVectorBytes != 1000*8 {
		t.Errorf("x traffic %d, want %d", tr.SourceVectorBytes, 1000*8)
	}
	e.ResetCounters()
	if e.Traffic().Total() != 0 {
		t.Error("ResetCounters did not clear ledger")
	}
}

// testPlan plans a at the given stripe width, without a detector.
func testPlan(t *testing.T, a *matrix.COO, width uint64) *enginePlan {
	t.Helper()
	cfg := testConfig()
	cfg.ScratchpadBytes = width * uint64(cfg.ValueBytes)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.buildPlan(a, planWorkers(len(a.Entries)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// laneStep1 is the P-lane model of step 1 over the exchange-format
// stripe: entries in batches of P (one per multiplier lane), written back
// in entry order into adder chains that merge same-row products. It
// returns the records and the batch cycles; at one lane it is the
// entry-at-a-time multiply the row-run dot product replaced.
func laneStep1(t *testing.T, s *matrix.Stripe, xSeg []float64, lanes int) ([]types.Record, uint64) {
	t.Helper()
	v := vector.NewSparse(int(s.Rows), s.NNZ())
	var cycles uint64
	for off := 0; off < len(s.Entries); off += lanes {
		cycles++
		for _, e := range s.Entries[off:min(off+lanes, len(s.Entries))] {
			if err := v.Accumulate(e.Row, e.Val*xSeg[e.Col]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return v.Recs, cycles
}

// TestStep1LanesEquivalence holds the row-run multiply to the P-lane
// adder-chain model at every lane count: the same records, bit for bit,
// so lane parallelization and the run layout leave results unchanged.
func TestStep1LanesEquivalence(t *testing.T) {
	a, _ := graph.ErdosRenyi(500, 5, 17)
	stripes, _ := matrix.Partition1D(a, 100)
	p := testPlan(t, a, 100)
	x := randomX(500, 18)
	for k, s := range stripes {
		seg := x[s.ColStart : s.ColStart+s.Width]
		rs := &p.stripes[k]
		got := make([]types.Record, len(rs.rows))
		rs.multiply(seg, got)
		for _, lanes := range []int{1, 3, 8} {
			want, cycles := laneStep1(t, s, seg, lanes)
			if len(got) != len(want) {
				t.Fatalf("lanes %d: %d records vs %d", lanes, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key || math.Float64bits(got[i].Val) != math.Float64bits(want[i].Val) {
					t.Fatalf("lanes %d: record %d = %v, model %v", lanes, i, got[i], want[i])
				}
			}
			wantCycles := (uint64(s.NNZ()) + uint64(lanes) - 1) / uint64(lanes)
			if cycles != wantCycles {
				t.Errorf("lanes %d: %d cycles, want %d", lanes, cycles, wantCycles)
			}
		}
	}
}

// TestMultiplyKeepsNegativeZero pins the dot product's start: a run's
// sum begins at its first product, so a row whose products are all -0.0
// emits -0.0, as the adder chain does, and not the +0.0 of a zero start.
func TestMultiplyKeepsNegativeZero(t *testing.T) {
	a := &matrix.COO{Rows: 2, Cols: 2, Entries: []matrix.Entry{{Row: 0, Col: 0, Val: -1}, {Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 1, Val: 2}}}
	p := testPlan(t, a, 2)
	got := make([]types.Record, 2)
	p.stripes[0].multiply([]float64{0, math.Copysign(0, -1)}, got)
	for r, rec := range got {
		if !math.Signbit(rec.Val) || rec.Val != 0 {
			t.Errorf("row %d: %v, want -0.0", r, rec.Val)
		}
	}
}

func TestStep1EmitsSortedVector(t *testing.T) {
	a, _ := graph.ErdosRenyi(300, 4, 19)
	p := testPlan(t, a, 50)
	x := randomX(300, 20)
	for k := range p.stripes {
		s := &p.stripes[k]
		v := vector.Sparse{Dim: 300, Recs: make([]types.Record, len(s.rows))}
		s.multiply(x[s.colStart:s.colStart+s.width], v.Recs)
		if err := v.Validate(); err != nil {
			t.Fatalf("stripe %d: %v", k, err)
		}
	}
}

func TestIterateMatchesRepeatedReference(t *testing.T) {
	e, _ := New(testConfig())
	a, _ := graph.ErdosRenyi(400, 3, 21)
	x0 := randomX(400, 22)
	res, err := e.Iterate(a, x0, IterateOptions{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := x0.Clone()
	for i := 0; i < 3; i++ {
		want, _ = referenceSpMV(a, want, nil)
	}
	if d := res.X.MaxAbsDiff(want); d > 1e-6 {
		t.Errorf("3-iteration max diff %g", d)
	}
}

func TestIterateOverlapEquivalentResults(t *testing.T) {
	a, _ := graph.ErdosRenyi(400, 3, 23)
	x0 := randomX(400, 24)
	e1, _ := New(testConfig())
	e2, _ := New(testConfig())
	r1, err := e1.Iterate(a, x0, IterateOptions{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Iterate(a, x0, IterateOptions{Iterations: 4, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := r1.X.MaxAbsDiff(r2.X); d > 1e-12 {
		t.Errorf("ITS changed results: %g", d)
	}
	// ITS saves the transition x re-reads (the y stream-out is already
	// charged by step 2 of every SpMV call) and the ledger shows it.
	if r2.TransitionBytesSaved != 3*400*8 {
		t.Errorf("TransitionBytesSaved = %d", r2.TransitionBytesSaved)
	}
	if e2.Stats().TransitionBytesSaved != r2.TransitionBytesSaved {
		t.Errorf("engine stats saved %d != result %d",
			e2.Stats().TransitionBytesSaved, r2.TransitionBytesSaved)
	}
	if e2.Traffic().ResultBytes >= e1.Traffic().ResultBytes {
		t.Errorf("ITS result traffic %d not below TS %d",
			e2.Traffic().ResultBytes, e1.Traffic().ResultBytes)
	}
}

func TestIterateOverlapHalvesCapacity(t *testing.T) {
	e, _ := New(testConfig()) // capacity 8192, ITS capacity 4096
	a := graph.Diagonal(5000, 1)
	x := vector.NewDense(5000)
	if _, err := e.Iterate(a, x, IterateOptions{Iterations: 1, Overlap: true}); err == nil {
		t.Error("ITS accepted a matrix beyond half capacity")
	}
	if _, err := e.Iterate(a, x, IterateOptions{Iterations: 1}); err != nil {
		t.Errorf("TS rejected a matrix within capacity: %v", err)
	}
}

func TestIterateRejectsBadArgs(t *testing.T) {
	e, _ := New(testConfig())
	a := graph.Diagonal(10, 1)
	if _, err := e.Iterate(a, vector.NewDense(10), IterateOptions{Iterations: 0}); err == nil {
		t.Error("zero iterations accepted")
	}
	rect, _ := matrix.NewCOO(4, 5, []matrix.Entry{{Row: 0, Col: 0, Val: 1}})
	if _, err := e.Iterate(rect, vector.NewDense(5), IterateOptions{Iterations: 1}); err == nil {
		t.Error("rectangular iterate accepted")
	}
}

// TestIterateRejectsNonFiniteDamping holds Iterate, on both schedules,
// to rejecting a NaN or infinite damping with a core error before any
// work — nothing planned, nothing booked — while any
// finite damping runs.
func TestIterateRejectsNonFiniteDamping(t *testing.T) {
	a, err := graph.ErdosRenyi(300, 3, 96)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(a.Rows, 97)
	entries := map[string]func(e *Engine, damping float64) error{
		"Iterate": func(e *Engine, damping float64) error {
			_, err := e.Iterate(a, x, IterateOptions{Iterations: 3, Damping: damping})
			return err
		},
		"Iterate overlap": func(e *Engine, damping float64) error {
			_, err := e.Iterate(a, x, IterateOptions{Iterations: 3, Damping: damping, Overlap: true})
			return err
		},
	}
	for entry, call := range entries {
		for _, damping := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 0.85, -2} {
			e, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			err = call(e, damping)
			if !math.IsNaN(damping) && !math.IsInf(damping, 0) {
				if err != nil {
					t.Errorf("%s/%g: rejected: %v", entry, damping, err)
				}
				continue
			}
			if err == nil || !strings.HasPrefix(err.Error(), "core: ") {
				t.Errorf("%s/%g: error %v, want a core: rejection", entry, damping, err)
				continue
			}
			if e.plan != nil || e.Counters() != (report.Counters{}) {
				t.Errorf("%s/%g: rejected only after planning or booking work", entry, damping)
			}
		}
	}
}

func TestPageRankConverges(t *testing.T) {
	e, _ := New(testConfig())
	a, err := graph.Zipf(2000, 5, 1.7, 25)
	if err != nil {
		t.Fatal(err)
	}
	ranks, iters, err := e.PageRank(a, 0.85, 1e-8, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if iters >= 100 {
		t.Errorf("PageRank did not converge in %d iterations", iters)
	}
	sum := 0.0
	for _, r := range ranks {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if sum < 0.5 || sum > 1.5 {
		t.Errorf("rank mass %g far from 1", sum)
	}
}

func TestPageRankDamping(t *testing.T) {
	// Damping 0 gives the uniform vector immediately.
	e, _ := New(testConfig())
	a, _ := graph.ErdosRenyi(100, 3, 26)
	ranks, iters, err := e.PageRank(a, 0, 1e-12, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if iters != 1 {
		t.Errorf("damping-0 PageRank took %d iterations", iters)
	}
	for _, r := range ranks {
		if r != 1.0/100 {
			t.Fatalf("rank %g != 0.01", r)
		}
	}
}

func TestReferenceSpMVChecksDims(t *testing.T) {
	a := graph.Diagonal(4, 1)
	if _, err := ReferenceSpMV(a, vector.NewDense(3), nil); err == nil {
		t.Error("bad x accepted")
	}
	if _, err := ReferenceSpMV(a, vector.NewDense(4), vector.NewDense(2)); err == nil {
		t.Error("bad y accepted")
	}
}
