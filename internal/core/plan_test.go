package core

import (
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
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
				want := stripeBooks{
					products: nnz,
					records:  uint64(len(recs)),
					source:   s.Width * uint64(cfg.ValueBytes),
					vec:      e.vecBytes(recs),
				}
				for _, ent := range s.Entries {
					switch {
					case p.det == nil:
					case !p.det.IsHDN(ent.Row):
						want.hdn.GeneralRecords++
					case p.det.IsHDNExact(ent.Row):
						want.hdn.HDNRecords++
					default:
						want.hdn.HDNRecords++
						want.hdn.FalseRouted++
					}
				}
				_, meta := matrix.BestStripeFormat(s.Rows, nnz, cfg.MetaBytes)
				want.uncompMat = meta
				if cfg.MatrixCodec != nil {
					meta = cfg.MatrixCodec.EncodeDeltas(stripeDeltas(s)).Bytes()
				}
				want.compMat = meta
				want.matrix = nnz*uint64(cfg.ValueBytes) + meta
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
