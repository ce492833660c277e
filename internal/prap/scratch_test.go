package prap

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// TestScratchReuseMatchesFresh runs many merges of varying shape through
// one network and checks each against a fresh network's result and
// stats: arena recycling across calls (including shrink and regrow) must
// be invisible.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n, err := New(smallConfig(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		dim := uint64(rng.Intn(200) + 1)
		lists := randomLists(rng, rng.Intn(8), dim, 0.3)
		got, gotSt, err := n.Merge(lists, dim, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, err := New(smallConfig(2, 16))
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := ref.Merge(lists, dim, nil)
		if err != nil {
			t.Fatalf("trial %d (fresh): %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: recycled network result diverged", trial)
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("trial %d: stats diverged:\ngot  %+v\nwant %+v", trial, gotSt, wantSt)
		}
	}
}

// TestConcurrentMerges hammers one network from many goroutines at
// once. The arena is single-occupancy — concurrent callers fall back to
// fresh scratch — so every call must still be bit-identical to a fresh
// network (the oracle's naive sum associates floats differently, so the
// fresh network is the exact reference). Run under -race this is the
// aliasing proof for the TryLock acquire path.
func TestConcurrentMerges(t *testing.T) {
	n, err := New(smallConfig(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const callsEach = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for c := 0; c < callsEach; c++ {
				dim := uint64(rng.Intn(150) + 1)
				lists := randomLists(rng, rng.Intn(6), dim, 0.25)
				var yIn vector.Dense
				if rng.Intn(2) == 0 {
					yIn = vector.NewDense(int(dim))
					for i := range yIn {
						yIn[i] = rng.NormFloat64()
					}
				}
				got, gotSt, err := n.Merge(lists, dim, yIn)
				if err != nil {
					errs <- err
					return
				}
				ref, err := New(smallConfig(2, 16))
				if err != nil {
					errs <- err
					return
				}
				want, wantSt, err := ref.Merge(lists, dim, yIn)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSt, wantSt) {
					t.Errorf("goroutine %d call %d: concurrent merge diverged from fresh network", g, c)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMergeIntoWarmAllocs holds a warmed single-worker MergeInto, on
// both kernels, to the handful of allocations its contract implies —
// the returned Stats' two per-core slices and the fan-out closures (5
// measured, 6 under -race) — however many records it merges: a
// per-list or per-record allocation on the route/merge/drain path
// lands far above the bound.
func TestMergeIntoWarmAllocs(t *testing.T) {
	const dim, bound = 4096, 8
	rng := rand.New(rand.NewSource(43))
	for _, kernel := range []MergeKernel{KernelLoserTree, KernelMergePath} {
		cfg := smallConfig(2, 16)
		cfg.MergeWorkers = 1
		cfg.Kernel = kernel
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := vector.NewDense(dim)
		for _, density := range []float64{0.05, 0.4} {
			lists := randomLists(rng, 12, dim, density)
			run := func() {
				if _, err := n.MergeInto(lists, dim, nil, out, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm-up: grow the arenas to this shape
			if allocs := testing.AllocsPerRun(10, run); allocs > bound {
				t.Errorf("%s, density %g: warmed MergeInto allocates %.0f times per call, want ≤ %d", kernel, density, allocs, bound)
			}
		}
	}
}

// TestMergeIntoColdAllocsIndependentOfRecords measures the first
// MergeInto on a fresh network, on both kernels, at two input sizes 10×
// apart with the same list shape: every routing slot is a view into an
// exactly sized per-core arena, so the cold call's allocation count
// depends on lists and cores, never on how many records they carry.
func TestMergeIntoColdAllocsIndependentOfRecords(t *testing.T) {
	const lists, slack = 12, 4
	for _, kernel := range []MergeKernel{KernelLoserTree, KernelMergePath} {
		var counts [2]uint64
		for i, dim := range []uint64{4096, 40960} {
			// Density 0.4 puts records of every radix in every list at
			// both sizes, so both runs merge the same number of live runs.
			counts[i] = coldMergeIntoAllocs(t, kernel, randomLists(rand.New(rand.NewSource(45)), lists, dim, 0.4), dim)
		}
		if d := int64(counts[1]) - int64(counts[0]); d > slack || d < -slack {
			t.Errorf("%s: first MergeInto allocates %d times at 10× the records vs %d, want within %d", kernel, counts[1], counts[0], slack)
		}
	}
}

// coldMergeIntoAllocs counts the heap allocations of the first MergeInto
// on a fresh single-worker network.
func coldMergeIntoAllocs(t *testing.T, kernel MergeKernel, lists [][]types.Record, dim uint64) uint64 {
	t.Helper()
	cfg := smallConfig(2, 16)
	cfg.MergeWorkers = 1
	cfg.Kernel = kernel
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := vector.NewDense(int(dim))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = n.MergeInto(lists, dim, nil, out, 0, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}
