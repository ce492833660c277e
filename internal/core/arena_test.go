package core

import (
	"fmt"
	"reflect"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/vector"
)

// TestArenaReuseHammer drives one long-lived engine through interleaved
// SpMV, Iterate (both schedules), PageRank and SpMSpV calls — the workload the
// scratch arenas are recycled across — and checks every result, the
// traffic ledger and the statistics bit-for-bit against fresh
// single-shot engines. Results returned earlier in the sequence are
// re-verified at the end, proving arena recycling never aliases a live
// result. Run under -race this also exercises the step-1 bank and the
// step-2 scratch recycled across iterations.
func TestArenaReuseHammer(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, mergeWorkers := range []int{1, 4} {
			t.Run(fmt.Sprintf("w%d/mw%d", workers, mergeWorkers), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					hammerOnce(t, workers, mergeWorkers, seed)
				}
			})
		}
	}
}

func hammerOnce(t *testing.T, workers, mergeWorkers int, seed int64) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	cfg.Merge.MergeWorkers = mergeWorkers

	const n = 512
	a, err := graph.ErdosRenyi(n, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(n, seed+100)
	sx := sparseFrontier(t, n, 40, seed+200)

	shared, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// fresh builds a new engine per call: the allocation-heavy reference
	// the recycled engine must match exactly.
	fresh := func() *Engine {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	type step struct {
		name string
		run  func(e *Engine) (vector.Dense, error)
	}
	steps := []step{
		{"spmv", func(e *Engine) (vector.Dense, error) {
			return e.SpMV(a, x, nil)
		}},
		{"iterate-seq", func(e *Engine) (vector.Dense, error) {
			r, err := e.Iterate(a, x, IterateOptions{Iterations: 3, Damping: 0.85})
			return r.X, err
		}},
		{"iterate-overlap", func(e *Engine) (vector.Dense, error) {
			r, err := e.Iterate(a, x, IterateOptions{Iterations: 3, Overlap: true, Damping: 0.85})
			return r.X, err
		}},
		{"pagerank-seq", func(e *Engine) (vector.Dense, error) {
			y, _, err := e.PageRank(a, 0.85, 1e-9, 8, false)
			return y, err
		}},
		{"pagerank-overlap", func(e *Engine) (vector.Dense, error) {
			y, _, err := e.PageRank(a, 0.85, 1e-9, 8, true)
			return y, err
		}},
		{"spmspv", func(e *Engine) (vector.Dense, error) {
			y, _, err := e.SpMSpV(a, sx)
			return y, err
		}},
		{"spmv-again", func(e *Engine) (vector.Dense, error) {
			return e.SpMV(a, x, nil)
		}},
	}

	// Run the full sequence twice on the shared engine so every arena is
	// warm (recycled, not freshly grown) the second time around.
	type kept struct {
		name string
		got  vector.Dense
		want vector.Dense
	}
	var held []kept
	for round := 0; round < 2; round++ {
		for _, s := range steps {
			got, err := s.run(shared)
			if err != nil {
				t.Fatalf("seed %d round %d %s (shared): %v", seed, round, s.name, err)
			}
			ref := fresh()
			want, err := s.run(ref)
			if err != nil {
				t.Fatalf("seed %d round %d %s (fresh): %v", seed, round, s.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d %s: shared-engine result diverged from fresh engine", seed, round, s.name)
			}
			// Per-call ledger/stats delta must match the fresh engine's.
			sharedTraffic, refTraffic := shared.Traffic(), ref.Traffic()
			sharedStats, refStats := shared.Stats(), ref.Stats()
			shared.ResetCounters()
			if sharedTraffic != refTraffic {
				t.Fatalf("seed %d round %d %s: traffic ledger diverged:\nshared %+v\nfresh  %+v",
					seed, round, s.name, sharedTraffic, refTraffic)
			}
			if !reflect.DeepEqual(sharedStats, refStats) {
				t.Fatalf("seed %d round %d %s: stats diverged:\nshared %+v\nfresh  %+v",
					seed, round, s.name, sharedStats, refStats)
			}
			held = append(held, kept{s.name, got, want.Clone()})
		}
	}

	// Every earlier result must still equal its reference: later calls
	// recycled arenas, and none of that reuse may have scribbled on a
	// returned vector.
	for _, k := range held {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Fatalf("seed %d: result of %s was mutated by later engine calls", seed, k.name)
		}
	}
}
