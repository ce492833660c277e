package hdn

import (
	"reflect"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
)

func TestBuildDetectsHDNs(t *testing.T) {
	m, err := graph.Zipf(4000, 12, 1.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threshold = 100
	d, err := Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Exact) == 0 {
		t.Fatal("no HDNs in Zipf graph; fixture broken")
	}
	// No false negatives: every exact HDN must test positive.
	for r := range d.Exact {
		if !d.IsHDN(r) {
			t.Fatalf("false negative for HDN row %d", r)
		}
	}
}

func TestMeasuredFPRBounded(t *testing.T) {
	m, err := graph.Zipf(8000, 10, 1.9, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threshold = 150
	d, err := Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fpr := d.MeasureFPR(m.Rows)
	if fpr > 0.05 {
		t.Errorf("measured FPR %g exceeds budget", fpr)
	}
}

func TestRouteSplitsEdges(t *testing.T) {
	m, err := graph.Zipf(4000, 12, 1.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threshold = 100
	d, err := Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := d.Route(m)
	if st.HDNRecords+st.GeneralRecords != uint64(m.NNZ()) {
		t.Fatalf("routing lost records: %d + %d != %d", st.HDNRecords, st.GeneralRecords, m.NNZ())
	}
	if st.HDNRecords == 0 {
		t.Error("no records routed to HDN pipeline")
	}
	// Misrouted records are only ever false positives, which are rare.
	if st.FalseRouted > st.GeneralRecords/10+100 {
		t.Errorf("excessive misrouting: %d", st.FalseRouted)
	}
}

func TestUniformGraphHasFewHDNs(t *testing.T) {
	m, err := graph.ErdosRenyi(5000, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threshold = 50
	d, err := Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Exact) != 0 {
		t.Errorf("Erdős–Rényi deg-3 graph has %d nodes above degree 50", len(d.Exact))
	}
	st := d.Route(m)
	// With an empty HDN set, (almost) everything goes general.
	if st.HDNRecords > uint64(m.NNZ())/10 {
		t.Errorf("too many records misrouted: %d", st.HDNRecords)
	}
}

func TestClassicFilterVariant(t *testing.T) {
	m, err := graph.Zipf(3000, 10, 1.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threshold = 80
	cfg.OneMemWordBits = 0 // classic filter
	d, err := Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range d.Exact {
		if !d.IsHDN(r) {
			t.Fatalf("classic variant false negative for %d", r)
		}
	}
	if d.EstimatedFPR() > 0.05 {
		t.Errorf("classic FPR estimate %g", d.EstimatedFPR())
	}
}

func TestCapacityHintSizing(t *testing.T) {
	m, err := graph.Zipf(3000, 10, 1.8, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threshold = 80
	cfg.CapacityHint = 100000 // the paper's conservative Twitter sizing
	d, err := Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 100K members at load 0.1 → 1 Mbit → 128 KiB (rounded up to a
	// power-of-two word count).
	if d.SizeBytes() < 128<<10 || d.SizeBytes() > 256<<10 {
		t.Errorf("filter size %d bytes, want ~128-256 KiB", d.SizeBytes())
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	m := graph.Diagonal(10, 1)
	bad := []Config{
		{Threshold: 0, LoadFactor: 0.1, Hashes: 4},
		{Threshold: 5, LoadFactor: 0, Hashes: 4},
		{Threshold: 5, LoadFactor: 1.5, Hashes: 4},
		{Threshold: 5, LoadFactor: 0.1, Hashes: 0},
	}
	for i, cfg := range bad {
		if _, err := Build(m, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestBuildRejectsRowOutsideMatrix: Build counts degrees itself, so a
// row past the matrix is its error to report, not an index panic.
func TestBuildRejectsRowOutsideMatrix(t *testing.T) {
	m := &matrix.COO{Rows: 4, Cols: 4, Entries: []matrix.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 9, Col: 1, Val: 1}}}
	const want = "hdn: entry (9, 1) outside 4 rows"
	if _, err := Build(m, DefaultConfig()); err == nil || err.Error() != want {
		t.Fatalf("Build error %v, want %q", err, want)
	}
}

// TestFromDegreesMatchesBuild: the degree-taking constructor gives the
// detector Build does from the same matrix.
func TestFromDegreesMatchesBuild(t *testing.T) {
	m, err := graph.Zipf(4000, 12, 1.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threshold = 100
	want, err := Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromDegrees(m.RowDegrees(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("FromDegrees built another detector than Build")
	}
}
