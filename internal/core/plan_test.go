package core

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/report"
	"mwmerge/internal/vldi"
)

// stripeDeltas materializes an exchange-format stripe's matrix meta-data
// delta stream: per row, the row delta and then the column deltas.
func stripeDeltas(s *matrix.Stripe) []uint64 {
	var deltas []uint64
	var prevRow, prevCol uint64
	for i, ent := range s.Entries {
		if i == 0 || ent.Row != prevRow {
			deltas = append(deltas, ent.Row-prevRow, ent.Col)
		} else {
			deltas = append(deltas, ent.Col-prevCol)
		}
		prevRow, prevCol = ent.Row, ent.Col
	}
	return deltas
}

// TestPlanBooksMatchPerCallAccounting holds the plan's precomputed books
// to the per-call accounting they replaced: step 1 entry at a time over
// the exchange-format stripe, the HDN route asked per product, the
// intermediate list sized from the records that step 1 produced, and the
// matrix stream sized by encoding its deltas — under every codec and
// detector combination, on a uniform and a skewed matrix.
func TestPlanBooksMatchPerCallAccounting(t *testing.T) {
	codec, err := vldi.NewCodec(5)
	if err != nil {
		t.Fatal(err)
	}
	det := &hdn.Config{Threshold: 8, LoadFactor: 0.1, Hashes: 4}
	configs := map[string]func(*Config){
		"plain": func(*Config) {},
		"vldi":  func(c *Config) { c.VectorCodec, c.MatrixCodec = codec, codec },
		"hdn":   func(c *Config) { c.HDN = det },
		"both":  func(c *Config) { c.VectorCodec, c.MatrixCodec, c.HDN = codec, codec, det },
	}
	er, err := graph.ErdosRenyi(700, 5, 81)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := graph.Zipf(700, 6, 1.8, 82)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*matrix.COO{er, zipf, zipf.Transpose()} {
		x := randomX(a.Cols, 83)
		for name, set := range configs {
			cfg := testConfig()
			set(&cfg)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.planFor(a)
			if err != nil {
				t.Fatal(err)
			}
			stripes, err := matrix.Partition1D(a, cfg.SegmentWidth())
			if err != nil {
				t.Fatal(err)
			}
			if len(stripes) != len(p.stripes) {
				t.Fatalf("%s: %d planned stripes, want %d", name, len(p.stripes), len(stripes))
			}
			var sum stripeBooks
			for k, s := range stripes {
				recs, _ := laneStep1(t, s, x[s.ColStart:s.ColStart+s.Width], 1)
				nnz := uint64(s.NNZ())
				col := report.Counters{
					Traffic:             mem.Traffic{SourceVectorBytes: s.Width * uint64(cfg.ValueBytes)},
					Products:            nnz,
					IntermediateRecords: uint64(len(recs)),
				}
				for _, ent := range s.Entries {
					switch {
					case p.det == nil:
					case !p.det.IsHDN(ent.Row):
						col.HDNGeneralRecords++
					case p.det.IsHDNExact(ent.Row):
						col.HDNRecords++
					default:
						col.HDNRecords++
						col.HDNFalseRouted++
					}
				}
				_, meta := matrix.BestStripeFormat(s.Rows, nnz, cfg.MetaBytes)
				mat := report.Counters{MatUncompressedBytes: meta}
				if cfg.MatrixCodec != nil {
					meta = cfg.MatrixCodec.EncodeDeltas(stripeDeltas(s)).Bytes()
				}
				mat.MatCompressedBytes = meta
				mat.Traffic.MatrixBytes = nnz*uint64(cfg.ValueBytes) + meta
				want := stripeBooks{column: col.Add(e.vecBytes(recs)), matrix: mat}
				if got := p.stripes[k].books; got != want {
					t.Fatalf("%s: stripe %d books\n got  %+v\n want %+v", name, k, got, want)
				}
				sum.add(&want)
			}
			if p.books != sum {
				t.Fatalf("%s: plan books %+v, stripes summed %+v", name, p.books, sum)
			}
		}
	}
}

// TestPlanRejectsColumnOrderedRows pins the plan's input contract: row
// runs need each stripe's entries row-major, and a stream that is not is
// an error, not a silently split run.
func TestPlanRejectsColumnOrderedRows(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := &matrix.COO{Rows: 4, Cols: 4, Entries: []matrix.Entry{{Row: 2, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}}}
	if _, err := e.SpMV(a, randomX(4, 1), nil); err == nil {
		t.Fatal("a stripe whose rows descend was accepted")
	}
}

// planConfigs are the plan-relevant configurations the parallel build is
// held to the serial one under: no codec or detector, and VLDI on both
// streams with an HDN detector low enough to fire.
func planConfigs(t testing.TB) map[string]Config {
	codec, err := vldi.NewCodec(5)
	if err != nil {
		t.Fatal(err)
	}
	full := testConfig()
	full.VectorCodec, full.MatrixCodec = codec, codec
	full.HDN = &hdn.Config{Threshold: 3, LoadFactor: 0.1, Hashes: 4}
	return map[string]Config{"plain": testConfig(), "hdn+vldi": full}
}

// checkParallelPlan builds a's plan on w ranges and on one, and fails
// unless both give the same plan — stripes, books, cover, LPT order, run
// count and detector (its exact HDN set included) alike — or the same
// error.
func checkParallelPlan(t *testing.T, name string, cfg Config, a *matrix.COO, w int) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := e.buildPlan(a, 1)
	got, err := e.buildPlan(a, w)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s, %d ranges: error %v, serial build's %v", name, w, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, %d ranges: plan differs from the serial build's", name, w)
	}
}

// TestPlanParallelMatchesSerial holds the plan built from 2, 3 and 7
// ranges of the entries to the one built from a single range. The range
// count is a parameter, so these small inputs fan out on any host and
// under -race. Besides generator matrices it covers the cases the stitch
// exists for: a run cut by a range boundary (every boundary of a 1×N
// row; the one between the two entries of a two-entry run), empty
// stripes and duplicate entries, and streams that break row-major order
// at a boundary, inside a range, or hold an entry outside the matrix,
// where the error must be the serial build's.
func TestPlanParallelMatchesSerial(t *testing.T) {
	er, err := graph.ErdosRenyi(700, 5, 81)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := graph.Zipf(700, 6, 1.8, 82)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := graph.RMAT(9, 8, graph.Graph500Params(), 83)
	if err != nil {
		t.Fatal(err)
	}
	hyper, err := graph.ErdosRenyi(6000, 0.2, 84)
	if err != nil {
		t.Fatal(err)
	}
	row := &matrix.COO{Rows: 1, Cols: 1000}
	for j := range row.Cols {
		row.Entries = append(row.Entries, matrix.Entry{Row: 0, Col: j, Val: float64(j + 1)})
	}
	ent := func(row, col uint64) matrix.Entry {
		return matrix.Entry{Row: row, Col: col, Val: float64(row*7 + col + 1)}
	}
	inputs := map[string]*matrix.COO{
		"er": er, "zipf": zipf, "zipfT": zipf.Transpose(), "rmat": rmat, "hyper": hyper, "1xN": row,
		"one run, two ranges": {Rows: 3, Cols: 3, Entries: []matrix.Entry{ent(1, 0), ent(1, 2)}},
		// Stripes 1 and 2 of 5 are empty.
		"empty stripes, duplicates": {Rows: 10, Cols: 600, Entries: []matrix.Entry{
			ent(0, 5), ent(0, 5), ent(2, 400), ent(2, 400), ent(2, 401), ent(7, 5), ent(7, 5), ent(9, 599), ent(9, 599)}},
	}
	// Invalid streams, each with the serial build's error.
	invalid := map[string]struct {
		a   *matrix.COO
		err string
	}{
		// At two ranges the cut falls between rows 3 and 1 of stripe 0.
		"unordered at the boundary": {
			&matrix.COO{Rows: 4, Cols: 4, Entries: []matrix.Entry{ent(2, 0), ent(3, 1), ent(1, 0), ent(1, 1)}},
			"core: stripe 0: row 1 after row 3, entries not row-major"},
		"unordered inside a range": {
			&matrix.COO{Rows: 9, Cols: 4, Entries: []matrix.Entry{
				ent(0, 0), ent(1, 0), ent(2, 0), ent(3, 0), ent(4, 0), ent(3, 1), ent(6, 0), ent(7, 0), ent(8, 0)}},
			"core: stripe 0: row 3 after row 4, entries not row-major"},
		"row outside": {
			&matrix.COO{Rows: 4, Cols: 4, Entries: []matrix.Entry{ent(0, 0), ent(1, 1), ent(9, 1), ent(3, 3)}},
			"core: stripe 0: entry (9, 1) outside 4 rows x 4 columns"},
		"col outside": {
			&matrix.COO{Rows: 4, Cols: 4, Entries: []matrix.Entry{ent(0, 0), ent(1, 1), ent(2, 2), ent(3, 4)}},
			"core: entry (3, 4) outside 4 columns"},
	}
	for cname, cfg := range planConfigs(t) {
		for in, a := range inputs {
			for _, w := range []int{2, 3, 7} {
				checkParallelPlan(t, cname+"/"+in, cfg, a, w)
			}
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for in, c := range invalid {
			for _, w := range []int{1, 2, 3, 7} {
				if _, err := e.buildPlan(c.a, w); err == nil || err.Error() != c.err {
					t.Fatalf("%s/%s, %d ranges: error %v, want %q", cname, in, w, err, c.err)
				}
			}
		}
	}
}

// FuzzPlanBuild is TestPlanParallelMatchesSerial over fuzzed entry
// streams, valid and not, and range counts. Each entry is three bytes
// (row, column, value); the first byte picks the shape and whether the
// stream is sorted row-major first, so most inputs are valid.
func FuzzPlanBuild(f *testing.F) {
	f.Add([]byte{0x00, 1, 2, 3, 1, 2, 4, 0, 0, 5}, uint8(2))
	f.Add([]byte{0x81, 3, 0, 1, 2, 0, 1, 1, 0, 1, 0, 200, 1}, uint8(3))
	f.Add([]byte{0x7f, 0, 9, 1, 0, 130, 2, 0, 255, 3, 4, 9, 1}, uint8(7))
	configs := planConfigs(f)
	f.Fuzz(func(t *testing.T, data []byte, w uint8) {
		if len(data) == 0 {
			return
		}
		mode, data := data[0], data[1:]
		a := &matrix.COO{Rows: uint64(mode&7) + 1, Cols: uint64(mode>>3&7)*40 + 1}
		for ; len(data) >= 3; data = data[3:] {
			// One row and column past the matrix, so some streams are out
			// of bounds.
			a.Entries = append(a.Entries, matrix.Entry{
				Row: uint64(data[0]) % (a.Rows + 1),
				Col: uint64(data[1]) * 3 % (a.Cols + 1),
				Val: float64(int8(data[2])),
			})
		}
		if mode&0x80 != 0 {
			slices.SortStableFunc(a.Entries, func(x, y matrix.Entry) int { return cmp.Compare(x.Row, y.Row) })
		}
		name := "plain"
		if mode&0x40 != 0 {
			name = "hdn+vldi"
		}
		checkParallelPlan(t, name, configs[name], a, int(w)%8+1)
	})
}

// TestPlanRowOutsideMatrixWithHDN pins the partition before the
// detector: an entry whose row lies outside the matrix is the same
// error with HDN configured as without, not a panic in the degree count.
func TestPlanRowOutsideMatrixWithHDN(t *testing.T) {
	a := &matrix.COO{Rows: 4, Cols: 4, Entries: []matrix.Entry{{Row: 9, Col: 1, Val: 1}}}
	const want = "core: stripe 0: entry (9, 1) outside 4 rows x 4 columns"
	for name, cfg := range planConfigs(t) {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.SpMV(a, randomX(4, 1), nil); err == nil || err.Error() != want {
			t.Fatalf("%s: SpMV error %v, want %q", name, err, want)
		}
	}
}
