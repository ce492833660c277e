package prap

import (
	"math/rand"
	"sync"
	"testing"
)

func TestConfigValidateKernel(t *testing.T) {
	cfg := smallConfig(2, 8)
	for _, k := range []MergeKernel{"", KernelLoserTree, KernelMergePath} {
		cfg.Kernel = k
		if err := cfg.Validate(); err != nil {
			t.Errorf("kernel %q rejected: %v", k, err)
		}
	}
	if k := (Config{}).kernel(); k != KernelMergePath {
		t.Errorf("default kernel = %q, want %q", k, KernelMergePath)
	}
	cfg.Kernel = "quicksort"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestMergeKernelBitIdentity is the tentpole acceptance check at the
// network level: the merge-path kernel must produce the same dense
// vector and the same stats as the loser tree, bitwise, at every
// Q × MergeWorkers combination — the kernels visit records in the same
// (key, source index) order, so float accumulation cannot differ.
func TestMergeKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, q := range []uint{0, 2, 4} {
		dim := uint64(1237) // not a multiple of p
		lists := randomLists(rng, 13, dim, 0.2)
		base := smallConfig(q, 32)
		base.MergeWorkers = 1
		base.Kernel = KernelLoserTree
		nb, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := nb.Merge(lists, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 3, 8} {
			cfg := smallConfig(q, 32)
			cfg.MergeWorkers = workers
			cfg.Kernel = KernelMergePath
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
					t.Fatalf("q=%d workers=%d: y[%d] = %v, want %v (kernel not bit-identical)",
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

// TestMergeKernelConcurrentHammer runs concurrent merge-path merges
// against the same network, so the contended-arena fallback and the
// per-core workspace reuse both get exercised under -race; every result
// must stay bit-identical to the loser-tree reference.
func TestMergeKernelConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dim := uint64(511)
	lists := randomLists(rng, 9, dim, 0.25)
	ref := smallConfig(3, 16)
	ref.MergeWorkers = 1
	ref.Kernel = KernelLoserTree
	nr, _ := New(ref)
	want, _, err := nr.Merge(lists, dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(3, 16)
	cfg.Kernel = KernelMergePath
	np, _ := New(cfg)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				got, _, err := np.Merge(lists, dim, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- "concurrent merge-path result diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
