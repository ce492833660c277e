package prap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mwmerge/internal/mem"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// randomLists builds n sorted lists over [0, dim) with expected density.
func randomLists(rng *rand.Rand, n int, dim uint64, density float64) [][]types.Record {
	lists := make([][]types.Record, n)
	for i := range lists {
		var recs []types.Record
		for k := uint64(0); k < dim; k++ {
			if rng.Float64() < density {
				recs = append(recs, types.Record{Key: k, Val: rng.NormFloat64()})
			}
		}
		lists[i] = recs
	}
	return lists
}

// oracleDense sums all lists into a dense vector.
func oracleDense(lists [][]types.Record, dim uint64, yIn vector.Dense) vector.Dense {
	out := vector.NewDense(int(dim))
	if yIn != nil {
		copy(out, yIn)
	}
	for _, l := range lists {
		for _, r := range l {
			out[r.Key] += r.Val
		}
	}
	return out
}

func smallConfig(q uint, ways int) Config {
	return Config{Q: q, Ways: ways, FIFODepth: 4, DPage: 256, RecordBytes: 16}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Q: 20, Ways: 4, FIFODepth: 1, DPage: 64}).Validate(); err == nil {
		t.Error("huge radix accepted")
	}
	if err := (Config{Q: 2, Ways: 3, FIFODepth: 1, DPage: 64}).Validate(); err == nil {
		t.Error("non-power-of-two ways accepted")
	}
	if err := (Config{Q: 2, Ways: 4, FIFODepth: 0, DPage: 64}).Validate(); err == nil {
		t.Error("zero FIFO depth accepted")
	}
	if err := (Config{Q: 2, Ways: 4, FIFODepth: 1, DPage: 0}).Validate(); err == nil {
		t.Error("zero dpage accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestPrefetchBufferIndependentOfCores(t *testing.T) {
	// The PRaP scaling property: buffer size depends only on K×dpage.
	base := smallConfig(0, 64).PrefetchBufferBytes()
	for q := uint(1); q <= 6; q++ {
		if got := smallConfig(q, 64).PrefetchBufferBytes(); got != base {
			t.Errorf("q=%d: prefetch buffer %d != %d", q, got, base)
		}
	}
	hbm := mem.DefaultHBM()
	// The §4.1 alternative grows linearly with m.
	if hbm.PartitionedPrefetchBytes(16, 64) != 16*hbm.PrefetchBufferBytes(64) {
		t.Error("partitioned prefetch not linear in m")
	}
}

func TestMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range []uint{0, 1, 2, 3, 4} {
		n, err := New(smallConfig(q, 16))
		if err != nil {
			t.Fatal(err)
		}
		dim := uint64(257) // deliberately not a multiple of p
		lists := randomLists(rng, 9, dim, 0.1)
		got, st, err := n.Merge(lists, dim, nil)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		want := oracleDense(lists, dim, nil)
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("q=%d: max diff %g", q, d)
		}
		if st.Emitted != dim {
			t.Errorf("q=%d: emitted %d, want %d", q, st.Emitted, dim)
		}
	}
}

func TestMergeWithYIn(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, _ := New(smallConfig(2, 8))
	dim := uint64(64)
	lists := randomLists(rng, 4, dim, 0.2)
	yIn := vector.NewDense(int(dim))
	for i := range yIn {
		yIn[i] = rng.NormFloat64()
	}
	got, _, err := n.Merge(lists, dim, yIn)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleDense(lists, dim, yIn)
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("max diff %g", d)
	}
}

func TestMergeEmptyLists(t *testing.T) {
	n, _ := New(smallConfig(2, 8))
	got, st, err := n.Merge(nil, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Error("empty merge produced nonzeros")
	}
	// Every output key was injected.
	if st.Injected != 10 {
		t.Errorf("injected %d, want 10", st.Injected)
	}
}

func TestMergeRejectsTooManyLists(t *testing.T) {
	n, _ := New(smallConfig(1, 2))
	lists := make([][]types.Record, 3)
	if _, _, err := n.Merge(lists, 10, nil); err == nil {
		t.Error("too many lists accepted")
	}
}

func TestMergeRejectsBadYIn(t *testing.T) {
	n, _ := New(smallConfig(1, 4))
	if _, _, err := n.Merge(nil, 10, vector.NewDense(5)); err == nil {
		t.Error("mismatched yIn accepted")
	}
}

func TestInjectMissingKeys(t *testing.T) {
	in := []types.Record{{Key: 2, Val: 1}, {Key: 18, Val: 2}, {Key: 26, Val: 3}}
	// Paper Fig. 11: radix 2, p = 8, key 10 missing.
	out, injected := InjectMissingKeys(in, 2, 8, 32)
	wantKeys := []uint64{2, 10, 18, 26}
	if len(out) != len(wantKeys) {
		t.Fatalf("got %d records", len(out))
	}
	for i, k := range wantKeys {
		if out[i].Key != k {
			t.Fatalf("key %d = %d, want %d", i, out[i].Key, k)
		}
	}
	if out[1].Val != 0 {
		t.Error("injected record must carry value 0")
	}
	if injected != 1 {
		t.Errorf("injected = %d", injected)
	}
}

func TestInjectMissingKeysEdges(t *testing.T) {
	// Empty input: everything injected.
	out, injected := InjectMissingKeys(nil, 3, 4, 16)
	if len(out) != 4 || injected != 4 {
		t.Errorf("len=%d injected=%d", len(out), injected)
	}
	// dim smaller than radix: nothing to emit.
	out, injected = InjectMissingKeys(nil, 5, 8, 3)
	if len(out) != 0 || injected != 0 {
		t.Errorf("len=%d injected=%d", len(out), injected)
	}
	// Invalid radix.
	if out, _ := InjectMissingKeys(nil, 9, 8, 100); out != nil {
		t.Error("radix >= p accepted")
	}
}

func TestInjectionHidesLoadImbalance(t *testing.T) {
	// All input records share one radix; outputs must still be equal
	// per core (paper §4.2.2).
	n, _ := New(smallConfig(2, 8))
	dim := uint64(64)
	var recs []types.Record
	for k := uint64(0); k < dim; k += 4 { // radix 0 only
		recs = append(recs, types.Record{Key: k, Val: 1})
	}
	_, st, err := n.Merge([][]types.Record{recs}, dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadImbalance() < 3.9 {
		t.Errorf("input imbalance expected ~4, got %g", st.LoadImbalance())
	}
	for r, out := range st.PerCoreOutput {
		if out != dim/4 {
			t.Errorf("core %d output %d, want %d", r, out, dim/4)
		}
	}
}

func TestMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := uint(rng.Intn(4))
		dim := uint64(1 + rng.Intn(200))
		n, err := New(smallConfig(q, 16))
		if err != nil {
			return false
		}
		lists := randomLists(rng, 1+rng.Intn(10), dim, 0.15)
		got, _, err := n.Merge(lists, dim, nil)
		if err != nil {
			return false
		}
		return got.MaxAbsDiff(oracleDense(lists, dim, nil)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMergeParallelBitIdentical asserts the tentpole determinism
// property: at any MergeWorkers setting the merged vector is
// byte-identical to the sequential (MergeWorkers: 1) run — every output
// key is owned by exactly one merge core, so no reassociation occurs —
// and all statistics match exactly.
func TestMergeParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, q := range []uint{0, 2, 4} {
		seq := smallConfig(q, 32)
		seq.MergeWorkers = 1
		ns, err := New(seq)
		if err != nil {
			t.Fatal(err)
		}
		dim := uint64(1237) // not a multiple of p
		lists := randomLists(rng, 13, dim, 0.2)
		want, wantSt, err := ns.Merge(lists, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 8} {
			cfg := smallConfig(q, 32)
			cfg.MergeWorkers = workers
			np, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := np.Merge(lists, dim, nil)
			if err != nil {
				t.Fatalf("q=%d workers=%d: %v", q, workers, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d workers=%d: y[%d] = %v, want %v (not bit-identical)",
						q, workers, i, got[i], want[i])
				}
			}
			if gotSt.Injected != wantSt.Injected || gotSt.Emitted != wantSt.Emitted ||
				gotSt.PresortBatches != wantSt.PresortBatches {
				t.Errorf("q=%d workers=%d: stats differ: %+v vs %+v", q, workers, gotSt, wantSt)
			}
			for r := range wantSt.PerCoreInput {
				if gotSt.PerCoreInput[r] != wantSt.PerCoreInput[r] ||
					gotSt.PerCoreOutput[r] != wantSt.PerCoreOutput[r] {
					t.Errorf("q=%d workers=%d: core %d stats differ", q, workers, r)
				}
			}
		}
	}
}

// TestMergeParallelWithYIn covers the y = Ax + y path under parallel
// merge: yIn is copied before the cores run, so the drain stays
// bit-identical.
func TestMergeParallelWithYIn(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dim := uint64(333)
	lists := randomLists(rng, 7, dim, 0.3)
	yIn := vector.NewDense(int(dim))
	for i := range yIn {
		yIn[i] = rng.NormFloat64()
	}
	seq := smallConfig(3, 16)
	seq.MergeWorkers = 1
	ns, _ := New(seq)
	want, _, err := ns.Merge(lists, dim, yIn)
	if err != nil {
		t.Fatal(err)
	}
	par := smallConfig(3, 16)
	par.MergeWorkers = 4
	np, _ := New(par)
	got, _, err := np.Merge(lists, dim, yIn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMergeRejectsSentinelKey: a genuine record whose key equals the
// pre-sorter padding sentinel must be rejected up front, not silently
// dropped.
func TestMergeRejectsSentinelKey(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := smallConfig(2, 8)
		cfg.MergeWorkers = workers
		n, _ := New(cfg)
		lists := [][]types.Record{
			{{Key: 1, Val: 1}},
			{{Key: 2, Val: 2}, {Key: invalidKey, Val: 3}},
		}
		if _, _, err := n.Merge(lists, 10, nil); err == nil {
			t.Errorf("workers=%d: sentinel-key record accepted", workers)
		}
	}
}

func TestConfigRejectsNegativeMergeWorkers(t *testing.T) {
	cfg := smallConfig(2, 8)
	cfg.MergeWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative MergeWorkers accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	var s Stats
	s.Accumulate(Stats{PerCoreInput: []uint64{1, 2}, PerCoreOutput: []uint64{3, 4},
		Injected: 5, Emitted: 6, PresortBatches: 7})
	s.Accumulate(Stats{PerCoreInput: []uint64{10, 20}, PerCoreOutput: []uint64{30, 40},
		Injected: 50, Emitted: 60, PresortBatches: 70})
	if s.PerCoreInput[0] != 11 || s.PerCoreInput[1] != 22 ||
		s.PerCoreOutput[0] != 33 || s.PerCoreOutput[1] != 44 {
		t.Errorf("per-core sums wrong: %+v", s)
	}
	if s.Injected != 55 || s.Emitted != 66 || s.PresortBatches != 77 {
		t.Errorf("scalar sums wrong: %+v", s)
	}
}

func TestStoreQueueOrderingIsDense(t *testing.T) {
	// The store queue must deliver strictly consecutive dense elements;
	// an internal invariant violation would surface as an error.
	rng := rand.New(rand.NewSource(4))
	n, _ := New(smallConfig(3, 16))
	for trial := 0; trial < 20; trial++ {
		dim := uint64(1 + rng.Intn(100))
		lists := randomLists(rng, 5, dim, 0.3)
		if _, _, err := n.Merge(lists, dim, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRouteStability(t *testing.T) {
	// Records within one radix class must stay key-sorted after routing
	// (the pre-sorter stability requirement). Verified via Merge on a
	// list with many same-radix records.
	n, _ := New(smallConfig(2, 4))
	var recs []types.Record
	for k := uint64(0); k < 400; k += 4 {
		recs = append(recs, types.Record{Key: k, Val: float64(k)})
	}
	got, _, err := n.Merge([][]types.Record{recs}, 400, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 400; k += 4 {
		if got[k] != float64(k) {
			t.Fatalf("key %d has value %g", k, got[k])
		}
	}
}

func TestLoadImbalanceEmpty(t *testing.T) {
	var s Stats
	if s.LoadImbalance() != 0 {
		t.Error("empty stats should report 0 imbalance")
	}
}
