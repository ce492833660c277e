package core

import (
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
)

func TestSpMVStripesMatchesCOOPath(t *testing.T) {
	cfg := testConfig() // segment width 128
	e1, _ := New(cfg)
	e2, _ := New(cfg)
	a, err := graph.ErdosRenyi(2000, 4, 61)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(2000, 62)

	want, err := e1.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The stripes spmvperf hands SpMVStripes: Partition1D at the
	// engine's segment width.
	stripes, err := matrix.Partition1D(a, cfg.SegmentWidth())
	if err != nil {
		t.Fatal(err)
	}

	got, err := e2.SpMVStripes(stripes, a.Rows, a.Cols, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Errorf("stripe path differs by %g", d)
	}
	if e1.Traffic() != e2.Traffic() {
		t.Error("traffic ledgers differ between paths")
	}
}

func TestSpMVStripesValidation(t *testing.T) {
	cfg := testConfig()
	e, _ := New(cfg)
	a := graph.Diagonal(300, 1)
	stripes, _ := matrix.Partition1D(a, cfg.SegmentWidth())
	x := randomX(300, 64)

	if _, err := e.SpMVStripes(stripes, 300, 300, randomX(100, 1), nil); err == nil {
		t.Error("bad x accepted")
	}
	if _, err := e.SpMVStripes(stripes, 300, 300, x, randomX(100, 1)); err == nil {
		t.Error("bad yIn accepted")
	}
	// Gap in coverage.
	if _, err := e.SpMVStripes(stripes[1:], 300, 300, x, nil); err == nil {
		t.Error("non-contiguous stripes accepted")
	}
	// Wrong width mid-sequence.
	bad, _ := matrix.Partition1D(a, 64)
	if _, err := e.SpMVStripes(bad, 300, 300, x, nil); err == nil {
		t.Error("wrong stripe width accepted")
	}
	// Wrong row dimension.
	wrongRows, _ := matrix.Partition1D(a, cfg.SegmentWidth())
	wrongRows[0].Rows = 299
	if _, err := e.SpMVStripes(wrongRows, 300, 300, x, nil); err == nil {
		t.Error("wrong row dimension accepted")
	}
}
