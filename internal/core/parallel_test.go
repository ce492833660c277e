package core

import (
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/vldi"
)

// TestWorkersProduceIdenticalResults runs the same SpMV with 1, 2, 4 and
// 8 step-1 workers: vectors, traffic ledger and statistics must be
// bit-identical to the sequential run.
func TestWorkersProduceIdenticalResults(t *testing.T) {
	a, err := graph.ErdosRenyi(4000, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(4000, 32)

	baseCfg := testConfig()
	ref, err := New(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTraffic := ref.Traffic()
	wantStats := ref.Stats()

	for _, workers := range []int{2, 4, 8} {
		cfg := testConfig()
		cfg.Workers = workers
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.SpMV(a, x, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("workers=%d: result differs by %g", workers, d)
		}
		if eng.Traffic() != wantTraffic {
			t.Errorf("workers=%d: traffic ledger differs:\n%v\n%v", workers, eng.Traffic(), wantTraffic)
		}
		gs := eng.Stats()
		if gs.Products != wantStats.Products ||
			gs.IntermediateRecords != wantStats.IntermediateRecords ||
			gs.VecCompressedBytes != wantStats.VecCompressedBytes {
			t.Errorf("workers=%d: stats differ", workers)
		}
	}
}

// TestWorkersWithVLDIAndHDN exercises the parallel path with every
// optimization enabled under the race detector.
func TestWorkersWithVLDIAndHDN(t *testing.T) {
	a, err := graph.Zipf(4000, 8, 1.8, 33)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(4000, 34)
	codec, _ := vldi.NewCodec(6)

	cfg := testConfig()
	cfg.Workers = 8
	cfg.VectorCodec = codec
	cfg.MatrixCodec = codec
	h := testHDNConfig()
	cfg.HDN = &h
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceSpMV(a, x, nil)
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("parallel full-featured run diff %g", d)
	}
}

// TestWorkersMoreThanStripes must clamp gracefully.
func TestWorkersMoreThanStripes(t *testing.T) {
	a := graph.Diagonal(100, 2) // one stripe at 128-wide segments
	cfg := testConfig()
	cfg.Workers = 64
	eng, _ := New(cfg)
	x := randomX(100, 35)
	got, err := eng.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceSpMV(a, x, nil)
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Errorf("diff %g", d)
	}
}

// testHDNConfig returns a small-threshold HDN configuration for tests.
func testHDNConfig() hdn.Config {
	h := hdn.DefaultConfig()
	h.Threshold = 100
	return h
}
