package core

import (
	"reflect"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
	"mwmerge/internal/vldi"
)

// blockTestConfigs returns named engine configurations spanning the
// feature matrix block SpMV must stay bit-identical under: plain, VLDI
// on both streams, HDN routing, parallel step-1 workers, and parallel
// merge cores.
func blockTestConfigs(t *testing.T) map[string]Config {
	t.Helper()
	codec, err := vldi.NewCodec(4)
	if err != nil {
		t.Fatal(err)
	}
	plain := testConfig()
	withVLDI := testConfig()
	withVLDI.VectorCodec = codec
	withVLDI.MatrixCodec = codec
	withHDN := testConfig()
	withHDN.HDN = &hdn.Config{Threshold: 8, LoadFactor: 0.1, Hashes: 4}
	workers := testConfig()
	workers.Workers = 4
	mergeWorkers := testConfig()
	mergeWorkers.Merge.MergeWorkers = 3
	return map[string]Config{
		"plain":        plain,
		"vldi":         withVLDI,
		"hdn":          withHDN,
		"workers":      workers,
		"mergeWorkers": mergeWorkers,
	}
}

// TestSpMVBlockK1MatchesSpMV pins the degenerate batch: a k=1 block run
// must be indistinguishable from SpMV — output bits, traffic ledger,
// and statistics — and its single delta must carry the whole movement.
func TestSpMVBlockK1MatchesSpMV(t *testing.T) {
	a, err := graph.ErdosRenyi(600, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(a.Cols, 8)
	yIn := randomX(a.Rows, 9)

	for name, cfg := range blockTestConfigs(t) {
		scalar, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scalar.SpMV(a, x, yIn)
		if err != nil {
			t.Fatal(err)
		}

		blk, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := blk.SpMVBlock(a, []vector.Dense{x}, []vector.Dense{yIn})
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Ys[0].MaxAbsDiff(want); d != 0 {
			t.Errorf("%s: k=1 block output differs from SpMV by %g", name, d)
		}
		if blk.Counters() != scalar.Counters() {
			t.Errorf("%s: k=1 block ledger differs:\n got %+v\nwant %+v", name, blk.Counters(), scalar.Counters())
		}
		if !reflect.DeepEqual(blk.Stats(), scalar.Stats()) {
			t.Errorf("%s: k=1 block stats differ:\n got %+v\nwant %+v", name, blk.Stats(), scalar.Stats())
		}
		if res.Deltas[0] != blk.Counters() {
			t.Errorf("%s: k=1 delta does not carry the whole movement", name)
		}
	}
}

// TestSpMVBlockMatchesSequential checks the block invariants for k=3
// under every configuration: bit-identity of each column against a
// sequential run, the once-per-batch ledger rule (block == k sequential
// minus (k-1)x the matrix share, including the HDN filter build and
// matrix-meta VLDI footprints), and the per-column delta split.
func TestSpMVBlockMatchesSequential(t *testing.T) {
	const k = 3
	a, err := graph.ErdosRenyi(700, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]vector.Dense, k)
	yIns := make([]vector.Dense, k)
	for c := range xs {
		xs[c] = randomX(a.Cols, int64(20+c))
		yIns[c] = randomX(a.Rows, int64(30+c))
	}

	for name, cfg := range blockTestConfigs(t) {
		// Single-run ledger: the matrix share every extra column saves.
		one, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := one.SpMV(a, xs[0], yIns[0]); err != nil {
			t.Fatal(err)
		}
		single := one.Counters()
		singleStats := one.Stats()

		seq, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]vector.Dense, k)
		for c := range xs {
			if want[c], err = seq.SpMV(a, xs[c], yIns[c]); err != nil {
				t.Fatal(err)
			}
		}

		blk, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := blk.SpMVBlock(a, xs, yIns)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if d := res.Ys[c].MaxAbsDiff(want[c]); d != 0 {
				t.Errorf("%s: column %d differs from sequential SpMV by %g", name, c, d)
			}
		}

		wantLedger := seq.Counters()
		wantLedger.Traffic.MatrixBytes -= (k - 1) * single.Traffic.MatrixBytes
		wantLedger.MatCompressedBytes -= (k - 1) * single.MatCompressedBytes
		wantLedger.MatUncompressedBytes -= (k - 1) * single.MatUncompressedBytes
		wantLedger.HDNFilterBytes -= (k - 1) * single.HDNFilterBytes
		if blk.Counters() != wantLedger {
			t.Errorf("%s: block ledger violates the once-per-batch rule:\n got  %+v\n want %+v", name, blk.Counters(), wantLedger)
		}
		if got, want := blk.Stats().HDNFilterBytes, singleStats.HDNFilterBytes; got != want {
			t.Errorf("%s: HDN filter built %d bytes, want the single-run %d (once per batch)", name, got, want)
		}
		if got, want := blk.Stats().Stripes, k*singleStats.Stripes; got != want {
			t.Errorf("%s: Stripes = %d, want %d (every column commits its stripes)", name, got, want)
		}

		var split report.Counters
		for _, d := range res.Deltas {
			split = split.Add(d)
		}
		if split != blk.Counters() {
			t.Errorf("%s: per-column deltas do not sum to the batch ledger", name)
		}
		for c := 1; c < k; c++ {
			if res.Deltas[c].Traffic.MatrixBytes != 0 {
				t.Errorf("%s: column %d delta carries %d matrix bytes; the matrix stream belongs to column 0",
					name, c, res.Deltas[c].Traffic.MatrixBytes)
			}
		}
		if res.Deltas[0].Traffic.MatrixBytes != single.Traffic.MatrixBytes {
			t.Errorf("%s: column 0 delta carries %d matrix bytes, want the full stream %d",
				name, res.Deltas[0].Traffic.MatrixBytes, single.Traffic.MatrixBytes)
		}
	}
}

// TestSpMVBlockValidation exercises the block-specific error paths.
func TestSpMVBlockValidation(t *testing.T) {
	a, err := graph.ErdosRenyi(200, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(a.Cols, 1)
	if _, err := e.SpMVBlock(a, nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := e.SpMVBlock(a, []vector.Dense{x, x}, []vector.Dense{nil}); err == nil {
		t.Error("mismatched yIns length accepted")
	}
	if _, err := e.SpMVBlock(a, []vector.Dense{x, randomX(a.Cols+1, 2)}, nil); err == nil {
		t.Error("wrong-dimension column accepted")
	}
	if _, err := e.SpMVBlock(a, []vector.Dense{x}, []vector.Dense{randomX(a.Rows-1, 2)}); err == nil {
		t.Error("wrong-dimension y_in accepted")
	}
}
