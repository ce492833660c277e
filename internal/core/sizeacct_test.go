package core

import (
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vldi"
)

// sizeTestEngine builds an engine with VLDI codecs on both streams.
func sizeTestEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := testConfig()
	codec, err := vldi.NewCodec(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg.VectorCodec = codec
	cfg.MatrixCodec = codec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestStripeMetaBitsMatchesEncoding checks the size-only stripe-meta
// path over row runs against materializing the exchange-format stripe's
// delta stream and encoding it, bit for bit.
func TestStripeMetaBitsMatchesEncoding(t *testing.T) {
	e := sizeTestEngine(t)
	a, err := graph.ErdosRenyi(2000, 5, 21)
	if err != nil {
		t.Fatal(err)
	}
	stripes, err := matrix.Partition1D(a, e.cfg.SegmentWidth())
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.buildPlan(a, planWorkers(len(a.Entries)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stripes {
		enc := e.cfg.MatrixCodec.EncodeDeltas(stripeDeltas(s))
		rs := &p.stripes[s.Index]
		if got := e.stripeMetaBits(rs); got != enc.Bits {
			t.Fatalf("stripe %d: stripeMetaBits %d != encoded %d", s.Index, got, enc.Bits)
		}
		if rs.books.matrix.MatCompressedBytes != enc.Bytes() {
			t.Fatalf("stripe %d: booked meta %d != encoded %d", s.Index, rs.books.matrix.MatCompressedBytes, enc.Bytes())
		}
	}
}

// TestCompressedStripeMetaMemoized verifies the plan cache: a repeated
// planFor returns the same plan, whose books equal a fresh plan's, and
// whose summed books are the stripes' books added up.
func TestCompressedStripeMetaMemoized(t *testing.T) {
	e := sizeTestEngine(t)
	a, err := graph.ErdosRenyi(1000, 4, 22)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.planFor(a)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := e.planFor(a); err != nil || again != plan {
		t.Fatalf("planFor rebuilt the plan of an unchanged matrix (%v)", err)
	}
	fresh, err := e.buildPlan(a, planWorkers(len(a.Entries)))
	if err != nil {
		t.Fatal(err)
	}
	var sum stripeBooks
	for k := range plan.stripes {
		b := plan.stripes[k].books
		if b != fresh.stripes[k].books {
			t.Fatalf("stripe %d: cached books %+v != fresh %+v", k, b, fresh.stripes[k].books)
		}
		if want := (e.stripeMetaBits(&plan.stripes[k]) + 7) / 8; b.matrix.MatCompressedBytes != want {
			t.Fatalf("stripe %d: booked meta %d != direct %d", k, b.matrix.MatCompressedBytes, want)
		}
		sum.add(&b)
	}
	if sum != plan.books {
		t.Fatalf("plan books %+v != stripes summed %+v", plan.books, sum)
	}
}

// TestVecBytesMatchesEncoding checks the streaming vecBytes against the
// materialized DeltasFromKeys + EncodeDeltas reference and against the
// documented uncompressed fallbacks.
func TestVecBytesMatchesEncoding(t *testing.T) {
	e := sizeTestEngine(t)
	recs := []types.Record{{Key: 3, Val: 1}, {Key: 4, Val: 2}, {Key: 900, Val: 3}, {Key: 1 << 40, Val: 4}}
	keys := make([]uint64, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	deltas, err := vldi.DeltasFromKeys(keys)
	if err != nil {
		t.Fatal(err)
	}
	wantComp := e.cfg.VectorCodec.EncodeDeltas(deltas).Bytes() + uint64(len(recs))*uint64(e.cfg.ValueBytes)
	wantRaw := uint64(len(recs)) * uint64(e.cfg.MetaBytes+e.cfg.ValueBytes)
	// trip is a list's round trip: footprint bytes written and read back,
	// each leg counted in the compressed and uncompressed statistics.
	trip := func(footprint, raw uint64) report.Counters {
		return report.Counters{
			Traffic:              mem.Traffic{IntermediateWrite: footprint, IntermediateRead: footprint},
			VecCompressedBytes:   2 * footprint,
			VecUncompressedBytes: 2 * raw,
		}
	}

	if got, want := e.vecBytes(recs), trip(wantComp, wantRaw); got != want {
		t.Fatalf("vecBytes = %+v, want %+v", got, want)
	}

	// Empty stream: raw zero on every leg.
	if got := e.vecBytes(nil); got != (report.Counters{}) {
		t.Fatalf("vecBytes(nil) = %+v, want zeros", got)
	}

	// Unsorted stream: the sorted invariant is violated upstream, so all
	// three legs fall back to the uncompressed footprint.
	bad := []types.Record{{Key: 9}, {Key: 9}}
	badRaw := uint64(len(bad)) * uint64(e.cfg.MetaBytes+e.cfg.ValueBytes)
	if got := e.vecBytes(bad); got != trip(badRaw, badRaw) {
		t.Fatalf("vecBytes(unsorted) = %+v, want all %d", got, badRaw)
	}

	// No codec configured: footprint is raw.
	plain, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.vecBytes(recs); got != trip(wantRaw, wantRaw) {
		t.Fatalf("vecBytes(no codec) = %+v, want all %d", got, wantRaw)
	}
}
