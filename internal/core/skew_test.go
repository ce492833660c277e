package core

import (
	"math"
	"reflect"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
)

// TestSpMVStripesParallelIdentical pins SpMVStripes to the shared
// step1Compute: the layout-streamed path honors cfg.Workers, and the
// worker count (hence the LPT dispatch order) must be invisible in the
// result bits, the traffic ledger, and the stats.
func TestSpMVStripesParallelIdentical(t *testing.T) {
	a, err := graph.Zipf(2000, 4, 1.8, 71)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(2000, 72)
	yIn := randomX(2000, 73)

	run := func(workers int) (got []float64, eng *Engine) {
		cfg := testConfig()
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stripes, err := matrix.Partition1D(a, cfg.SegmentWidth())
		if err != nil {
			t.Fatal(err)
		}
		y, err := e.SpMVStripes(stripes, a.Rows, a.Cols, x, yIn)
		if err != nil {
			t.Fatal(err)
		}
		return y, e
	}
	want, e1 := run(1)
	for _, workers := range []int{2, 4} {
		got, e2 := run(workers)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("workers=%d: y[%d] differs from sequential", workers, i)
			}
		}
		if e1.Traffic() != e2.Traffic() {
			t.Errorf("workers=%d: traffic ledger differs from sequential", workers)
		}
		if !reflect.DeepEqual(e1.Stats(), e2.Stats()) {
			t.Errorf("workers=%d: run stats differ from sequential", workers)
		}
	}
}

// TestLPTPlanOrder pins the ungated dispatch order: stripes sorted by
// descending nonzero weight, ties broken toward the lower index.
func TestLPTPlanOrder(t *testing.T) {
	mk := func(nnz ...int) []runStripe {
		stripes := make([]runStripe, len(nnz))
		for k, n := range nnz {
			stripes[k].vals = make([]float64, n)
		}
		return stripes
	}
	if got, want := lptOrder(mk(3, 9, 1, 9, 0)), []int{1, 3, 0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if got := lptOrder(mk(0, 5)); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("order = %v, want [1 0]", got)
	}
}

// TestStripeSkewStats checks the new RunStats skew surface after one
// SpMV: one run, total and max stripe nonzeros, the derived imbalance,
// and the counter mapping the report/Prometheus layers consume.
func TestStripeSkewStats(t *testing.T) {
	a, err := graph.Zipf(1500, 4, 1.8, 74)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SpMV(a, randomX(1500, 75), nil); err != nil {
		t.Fatal(err)
	}
	stripes, err := matrix.Partition1D(a, cfg.SegmentWidth())
	if err != nil {
		t.Fatal(err)
	}
	var total, max uint64
	for _, s := range stripes {
		nnz := uint64(s.NNZ())
		total += nnz
		if nnz > max {
			max = nnz
		}
	}
	st := e.Stats()
	if st.Step1Runs != 1 {
		t.Errorf("Step1Runs = %d, want 1", st.Step1Runs)
	}
	if st.StripeNNZ != total {
		t.Errorf("StripeNNZ = %d, want %d", st.StripeNNZ, total)
	}
	if st.StripeNNZMax != max {
		t.Errorf("StripeNNZMax = %d, want %d", st.StripeNNZMax, max)
	}
	wantImb := float64(max) / (float64(total) / float64(len(stripes)))
	got := st.StripeImbalance()
	if math.Abs(got-wantImb) > 1e-12 {
		t.Errorf("StripeImbalance = %g, want %g", got, wantImb)
	}
	if got < 1 {
		t.Errorf("imbalance %g < 1 on a processed run", got)
	}
	c := e.Counters()
	if c.Step1Runs != st.Step1Runs || c.StripeNNZ != st.StripeNNZ || c.StripeNNZMax != st.StripeNNZMax {
		t.Errorf("counter mapping dropped skew fields: %+v", c)
	}

	// A second SpMV doubles the monotone counters.
	if _, err := e.SpMV(a, randomX(1500, 76), nil); err != nil {
		t.Fatal(err)
	}
	st2 := e.Stats()
	if st2.Step1Runs != 2 || st2.StripeNNZ != 2*total || st2.StripeNNZMax != 2*max {
		t.Errorf("after 2 runs: Step1Runs=%d StripeNNZ=%d StripeNNZMax=%d, want 2/%d/%d",
			st2.Step1Runs, st2.StripeNNZ, st2.StripeNNZMax, 2*total, 2*max)
	}
	if math.Abs(st2.StripeImbalance()-wantImb) > 1e-12 {
		t.Errorf("imbalance drifted across identical runs: %g vs %g", st2.StripeImbalance(), wantImb)
	}
}

// TestSkewRatiosZeroSafe pins the derived ratios' empty-state behavior
// and the InjectedRatio arithmetic the serve gauges render.
func TestSkewRatiosZeroSafe(t *testing.T) {
	var st RunStats
	if st.StripeImbalance() != 0 || st.InjectedRatio() != 0 {
		t.Error("zero stats must yield zero ratios")
	}
	st.MergeInjected, st.MergeEmitted = 3, 4
	if got := st.InjectedRatio(); got != 0.75 {
		t.Errorf("InjectedRatio = %g, want 0.75", got)
	}
}

// TestRunStatsAddSkewFields checks the aggregation path the serving
// layer's pool ledger uses.
func TestRunStatsAddSkewFields(t *testing.T) {
	a := RunStats{Step1Runs: 1, StripeNNZ: 10, StripeNNZMax: 6}
	b := RunStats{Step1Runs: 2, StripeNNZ: 5, StripeNNZMax: 4}
	sum := a.Add(b)
	if sum.Step1Runs != 3 || sum.StripeNNZ != 15 || sum.StripeNNZMax != 10 {
		t.Errorf("Add dropped skew fields: %+v", sum)
	}
}
