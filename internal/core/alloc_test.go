//go:build !race

// The steady-state allocation budget is asserted only without the race
// detector: -race instruments every allocation and inflates the counts
// the budget pins down.

package core

import (
	"runtime"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/prap"
	"mwmerge/internal/vector"
)

// steadyAllocBudget is the documented allocation ceiling for one warmed
// matrix-vector product at Workers=1/MergeWorkers=1 (DESIGN.md §9). The
// measured steady state is ~7–9 allocs per product — the returned
// result vector's bookkeeping, the per-call Stats slices, the fan-out
// closures, and (with overlap) the pipeline goroutine — against ~1800
// before the arenas landed. The ceiling leaves headroom for
// runtime/version noise while still failing loudly if a per-record,
// per-batch or per-stripe allocation ever creeps back in.
const steadyAllocBudget = 16

// TestIterateSteadyStateAllocs is the allocation-freedom guard for the
// whole steady state: it warms one engine per merge kernel, then holds
// every dense entry point — SpMV, SpMVBlock, Iterate on both schedules,
// PageRank — to the budget per matrix-vector product. Nothing else
// polices the hot path's allocations, so an entry point added to the
// engine gets a row here.
func TestIterateSteadyStateAllocs(t *testing.T) {
	const n, iters, k = 2048, 4, 4
	a, err := graph.ErdosRenyi(n, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(n, 3)
	xs := make([]vector.Dense, k)
	for c := range xs {
		xs[c] = randomX(n, int64(10+c))
	}
	iterate := func(overlap bool) func(*Engine) (int, error) {
		opt := IterateOptions{Iterations: iters, Overlap: overlap, Damping: 0.85}
		return func(e *Engine) (int, error) {
			_, err := e.Iterate(a, x, opt)
			return iters, err
		}
	}
	// Each entry point reports the products one call computed (a block
	// call one per column, an iterative call one per iteration). A row
	// with maxBytes also holds a warmed call's allocated bytes below it:
	// PageRank's normalized operand lives with the plan, so a warmed call
	// must allocate less than one 8-byte value per nonzero.
	entries := []struct {
		name     string
		call     func(*Engine) (int, error)
		maxBytes uint64
	}{
		{name: "SpMV", call: func(e *Engine) (int, error) {
			_, err := e.SpMV(a, x, nil)
			return 1, err
		}},
		{name: "SpMVBlock4", call: func(e *Engine) (int, error) {
			_, err := e.SpMVBlock(a, xs, nil)
			return k, err
		}},
		{name: "Iterate", call: iterate(false)},
		{name: "IterateOverlap", call: iterate(true)},
		{name: "PageRank", call: func(e *Engine) (int, error) {
			_, its, err := e.PageRank(a, 0.85, 0, 32, false)
			return its, err
		}, maxBytes: uint64(a.NNZ()) * 8},
	}
	for _, kernel := range []prap.MergeKernel{prap.KernelLoserTree, prap.KernelMergePath} {
		cfg := testConfig()
		cfg.Workers = 1
		cfg.Merge.MergeWorkers = 1
		cfg.Merge.Kernel = kernel
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range entries {
			// Warm-up: grow every arena to its steady-state capacity.
			products, err := en.call(e)
			if err != nil {
				t.Fatal(err)
			}
			perCall := testing.AllocsPerRun(10, func() {
				if _, err := en.call(e); err != nil {
					t.Fatal(err)
				}
			})
			perProduct := perCall / float64(products)
			t.Logf("%s/%s: %.1f allocs/call, %.2f allocs/product", kernel, en.name, perCall, perProduct)
			if perProduct > steadyAllocBudget {
				t.Errorf("%s/%s: %.2f allocs per product exceeds budget %d",
					kernel, en.name, perProduct, steadyAllocBudget)
			}
			if en.maxBytes == 0 {
				continue
			}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := en.call(e); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perCallBytes := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s/%s: %d bytes/call (ceiling %d)", kernel, en.name, perCallBytes, en.maxBytes)
			if perCallBytes >= en.maxBytes {
				t.Errorf("%s/%s: %d bytes per warmed call, want under %d",
					kernel, en.name, perCallBytes, en.maxBytes)
			}
		}
	}
}
