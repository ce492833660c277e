package core

import (
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
)

// TestIterateLedgerDelta pins the transition accounting of Iterate
// against a manual sequence of SpMV calls: the non-overlap schedule adds
// exactly one x re-read per transition on top of the per-call traffic
// (the y stream-out is already charged by step 2 of every call), and the
// ITS overlap schedule adds nothing, booking the same bytes as saved.
func TestIterateLedgerDelta(t *testing.T) {
	const (
		n     = 400
		iters = 3
	)
	a, err := graph.ErdosRenyi(n, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	x0 := randomX(n, 42)

	// Baseline: the same SpMV sequence, one call at a time.
	man, _ := New(testConfig())
	x := x0.Clone()
	for i := 0; i < iters; i++ {
		x, err = man.SpMV(a, x, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	base := man.Traffic()

	transition := uint64(n) * 8 // x re-read per transition at 8B values

	seq, _ := New(testConfig())
	if _, err := seq.Iterate(a, x0, IterateOptions{Iterations: iters}); err != nil {
		t.Fatal(err)
	}
	wantSeq := base
	wantSeq.ResultBytes += (iters - 1) * transition
	if seq.Traffic() != wantSeq {
		t.Errorf("non-overlap ledger:\n got %+v\nwant %+v", seq.Traffic(), wantSeq)
	}
	if seq.Stats().TransitionBytesSaved != 0 {
		t.Errorf("non-overlap run recorded %d saved bytes", seq.Stats().TransitionBytesSaved)
	}

	ovl, _ := New(testConfig())
	res, err := ovl.Iterate(a, x0, IterateOptions{Iterations: iters, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if ovl.Traffic() != base {
		t.Errorf("ITS ledger:\n got %+v\nwant %+v", ovl.Traffic(), base)
	}
	if want := (iters - 1) * transition; res.TransitionBytesSaved != want {
		t.Errorf("TransitionBytesSaved = %d, want %d", res.TransitionBytesSaved, want)
	}
	if ovl.Stats().TransitionBytesSaved != res.TransitionBytesSaved {
		t.Errorf("engine stats saved %d != result %d",
			ovl.Stats().TransitionBytesSaved, res.TransitionBytesSaved)
	}
}

// TestPageRankLedgerAccountsTransitions asserts PageRank books the same
// transition traffic as Iterate: overlap and non-overlap runs produce
// identical ranks, differ in the ledger by exactly one x re-read per
// transition, and the overlap run records those bytes as saved.
func TestPageRankLedgerAccountsTransitions(t *testing.T) {
	const n = 500
	a, err := graph.Zipf(n, 5, 1.7, 43)
	if err != nil {
		t.Fatal(err)
	}

	seq, _ := New(testConfig())
	rSeq, itSeq, err := seq.PageRank(a, 0.85, 1e-8, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	ovl, _ := New(testConfig())
	rOvl, itOvl, err := ovl.PageRank(a, 0.85, 1e-8, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	if itSeq != itOvl {
		t.Fatalf("overlap changed convergence: %d vs %d iterations", itSeq, itOvl)
	}
	if itSeq < 2 {
		t.Fatalf("need >= 2 iterations to observe a transition, got %d", itSeq)
	}
	if d := rSeq.MaxAbsDiff(rOvl); d != 0 {
		t.Errorf("overlap changed ranks by %g", d)
	}

	transition := uint64(n) * 8
	wantSaved := uint64(itSeq-1) * transition
	if got := ovl.Stats().TransitionBytesSaved; got != wantSaved {
		t.Errorf("overlap saved %d bytes, want %d", got, wantSaved)
	}
	if got := seq.Stats().TransitionBytesSaved; got != 0 {
		t.Errorf("non-overlap run recorded %d saved bytes", got)
	}
	gotSeq, gotOvl := seq.Traffic(), ovl.Traffic()
	if gotSeq.ResultBytes != gotOvl.ResultBytes+wantSaved {
		t.Errorf("ResultBytes: non-overlap %d != overlap %d + saved %d",
			gotSeq.ResultBytes, gotOvl.ResultBytes, wantSaved)
	}
	// All other streams are schedule-independent.
	gotSeq.ResultBytes, gotOvl.ResultBytes = 0, 0
	if gotSeq != gotOvl {
		t.Errorf("non-transition streams differ:\n%+v\n%+v", gotSeq, gotOvl)
	}
}

// TestRunStatsAccumulateAcrossCalls pins the documented RunStats
// semantics: every field accumulates across calls, so running the same
// SpMV twice exactly doubles each statistic — including the previously
// overwritten Stripes, HDNFilterBytes and merge counters.
func TestRunStatsAccumulateAcrossCalls(t *testing.T) {
	cfg := testConfig()
	h := hdn.DefaultConfig()
	h.Threshold = 50
	cfg.HDN = &h
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := graph.Zipf(2000, 8, 1.8, 44)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(2000, 45)
	if _, err := e.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}
	first := e.Stats()
	if _, err := e.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}
	second := e.Stats()

	if second.Stripes != 2*first.Stripes {
		t.Errorf("Stripes = %d, want %d", second.Stripes, 2*first.Stripes)
	}
	if second.Products != 2*first.Products {
		t.Errorf("Products = %d, want %d", second.Products, 2*first.Products)
	}
	if second.IntermediateRecords != 2*first.IntermediateRecords {
		t.Errorf("IntermediateRecords = %d, want %d",
			second.IntermediateRecords, 2*first.IntermediateRecords)
	}
	if second.HDNFilterBytes != 2*first.HDNFilterBytes || first.HDNFilterBytes == 0 {
		t.Errorf("HDNFilterBytes = %d, want %d (nonzero)",
			second.HDNFilterBytes, 2*first.HDNFilterBytes)
	}
	if second.MergeEmitted != 2*first.MergeEmitted ||
		second.MergeInjected != 2*first.MergeInjected ||
		second.MergePresortBatches != 2*first.MergePresortBatches {
		t.Errorf("merge counters did not accumulate: %+v vs %+v", second, first)
	}
	e.ResetCounters()
	if s := e.Stats(); s.Stripes != 0 || s.MergeEmitted != 0 {
		t.Error("ResetCounters did not clear stats")
	}
}

// TestSpMVMergeWorkersIdentical runs the full engine with parallel step-2
// merge: result, traffic and stats must match the sequential-merge engine
// exactly (the end-to-end counterpart of the prap determinism test).
func TestSpMVMergeWorkersIdentical(t *testing.T) {
	a, err := graph.ErdosRenyi(3000, 4, 46)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(3000, 47)
	base := testConfig()
	base.Merge.MergeWorkers = 1
	ref, _ := New(base)
	want, err := ref.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		cfg := testConfig()
		cfg.Workers = 4 // step-1 and step-2 parallelism composed
		cfg.Merge.MergeWorkers = workers
		eng, _ := New(cfg)
		got, err := eng.SpMV(a, x, nil)
		if err != nil {
			t.Fatalf("merge workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("merge workers=%d: y[%d] differs", workers, i)
			}
		}
		if eng.Traffic() != ref.Traffic() {
			t.Errorf("merge workers=%d: ledger differs", workers)
		}
		gs, ws := eng.Stats(), ref.Stats()
		if gs.MergeEmitted != ws.MergeEmitted ||
			gs.MergeInjected != ws.MergeInjected {
			t.Errorf("merge workers=%d: merge stats differ", workers)
		}
	}
}
