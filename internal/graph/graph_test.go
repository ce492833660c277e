package graph

import (
	"math"
	"strings"
	"testing"
)

func TestErdosRenyiShapeAndDegree(t *testing.T) {
	m, err := ErdosRenyi(1000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 1000 || m.Cols != 1000 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if got := m.AvgDegree(); math.Abs(got-3) > 0.01 {
		t.Errorf("avg degree %g, want ~3", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a, _ := ErdosRenyi(100, 2, 42)
	b, _ := ErdosRenyi(100, 2, 42)
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed, different graphs")
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatal("same seed, different entries")
		}
	}
	c, _ := ErdosRenyi(100, 2, 43)
	same := a.NNZ() == c.NNZ()
	if same {
		for i := range a.Entries {
			if a.Entries[i] != c.Entries[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestErdosRenyiRejectsBadArgs(t *testing.T) {
	if _, err := ErdosRenyi(0, 3, 1); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := ErdosRenyi(10, 0, 1); err == nil {
		t.Error("zero degree accepted")
	}
	if _, err := ErdosRenyi(10, -1, 1); err == nil {
		t.Error("negative degree accepted")
	}
}

func TestRMATShape(t *testing.T) {
	m, err := RMAT(10, 8, Graph500Params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 1024 {
		t.Fatalf("dimension %d, want 1024", m.Rows)
	}
	// Duplicates coalesce, so nnz <= n*edgeFactor.
	if m.NNZ() > 8192 || m.NNZ() < 4000 {
		t.Errorf("nnz = %d out of plausible range", m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRMATSkew(t *testing.T) {
	// RMAT graphs are skewed: max degree far above average.
	m, err := RMAT(12, 8, Graph500Params(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if float64(m.MaxDegree()) < 5*m.AvgDegree() {
		t.Errorf("RMAT not skewed: max %d avg %g", m.MaxDegree(), m.AvgDegree())
	}
}

func TestRMATRejectsBadParams(t *testing.T) {
	if _, err := RMAT(0, 8, Graph500Params(), 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := RMAT(5, 8, RMATParams{A: 0.5, B: 0.5, C: 0.5, D: 0.5}, 1); err == nil {
		t.Error("non-normalized probabilities accepted")
	}
}

func TestZipfHDNConcentration(t *testing.T) {
	m, err := Zipf(5000, 10, 1.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := AnalyzeDegrees(m, 100)
	if st.MaxDegree < 100 {
		t.Errorf("Zipf graph lacks high-degree nodes: max %d", st.MaxDegree)
	}
	if st.HDNCount == 0 {
		t.Error("no HDNs found above threshold 100")
	}
	// A small fraction of nodes must own a large fraction of edges.
	frac := float64(st.HDNEdges) / float64(st.NNZ)
	nodesFrac := float64(st.HDNCount) / float64(st.N)
	if frac < 5*nodesFrac {
		t.Errorf("degree concentration weak: %.3f of edges on %.3f of nodes", frac, nodesFrac)
	}
}

func TestZipfRejectsBadExponent(t *testing.T) {
	if _, err := Zipf(10, 3, 1.0, 1); err == nil {
		t.Error("exponent 1 accepted")
	}
	if _, err := Zipf(0, 3, 2, 1); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestDiagonal(t *testing.T) {
	m := Diagonal(5, 2)
	if m.NNZ() != 5 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	for i, e := range m.Entries {
		if e.Row != uint64(i) || e.Col != uint64(i) || e.Val != 2 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestAnalyzeDegreesEmptyRows(t *testing.T) {
	m := Diagonal(4, 1)
	st := AnalyzeDegrees(m, 10)
	if st.EmptyRows != 0 || st.MaxDegree != 1 || st.AvgDegree != 1 {
		t.Errorf("diagonal stats: %+v", st)
	}
}

func TestDatasetRegistry(t *testing.T) {
	if len(Table4) != 11 || len(Table5) != 3 || len(Table6) != 17 {
		t.Fatalf("registry sizes %d/%d/%d", len(Table4), len(Table5), len(Table6))
	}
	d, err := Lookup("TW")
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes() != 41_600_000 {
		t.Errorf("TW nodes = %d", d.Nodes())
	}
	if d.Edges() != 1_468_400_000 {
		t.Errorf("TW edges = %d", d.Edges())
	}
	if _, err := Lookup("nonexistent"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if len(All()) != 31 {
		t.Errorf("All() = %d datasets", len(All()))
	}
}

func TestDatasetConsistency(t *testing.T) {
	// EdgesM must be consistent with NodesM * AvgDegree within rounding.
	// The paper's own tables are internally inconsistent for LJ
	// (7.80M x 14.38 != 69.0M) and road_central; we keep the published
	// values verbatim and exempt them here.
	published := map[string]bool{"LJ": true, "road_central": true}
	for _, d := range All() {
		if published[d.ID] {
			continue
		}
		want := d.NodesM * d.AvgDegree
		if d.EdgesM == 0 || math.Abs(want-d.EdgesM)/d.EdgesM > 0.05 {
			t.Errorf("%s: nodes*deg = %.1fM but edges = %.1fM", d.ID, want, d.EdgesM)
		}
	}
}

func TestInstantiateScalesDown(t *testing.T) {
	d, _ := Lookup("Sy-1B")
	m, err := d.Instantiate(10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 10000 {
		t.Errorf("instantiated %d nodes, want cap 10000", m.Rows)
	}
	if math.Abs(m.AvgDegree()-d.AvgDegree) > 0.5 {
		t.Errorf("instantiated degree %g, dataset %g", m.AvgDegree(), d.AvgDegree)
	}
}

func TestInstantiateKinds(t *testing.T) {
	for _, id := range []string{"FR", "RMAT", "rajat31"} {
		d, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.Instantiate(2048, 7)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if m.NNZ() == 0 {
			t.Errorf("%s: empty instance", id)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestGeneratorsRejectBadDegree holds every generator to one degree
// rule: NaN, zero, negative, or more than 2^40 edges is an error, never
// a makeslice panic.
func TestGeneratorsRejectBadDegree(t *testing.T) {
	gens := map[string]func(deg float64) error{
		"er":   func(deg float64) error { _, err := ErdosRenyi(1000, deg, 1); return err },
		"rmat": func(deg float64) error { _, err := RMAT(10, deg, Graph500Params(), 1); return err },
		"zipf": func(deg float64) error { _, err := Zipf(1000, deg, 1.8, 1); return err },
	}
	for name, gen := range gens {
		for _, deg := range []float64{math.NaN(), 0, -3, math.Inf(-1), math.Inf(1), 1 << 31} {
			if err := gen(deg); err == nil || !strings.HasPrefix(err.Error(), "graph: ") {
				t.Errorf("%s degree %g: err %v, want a graph: error", name, deg, err)
			}
		}
	}
}

func TestGenerate(t *testing.T) {
	for _, tc := range []struct {
		kind        string
		nodes, want uint64
	}{
		{"er", 1000, 1000},
		{"zipf", 500, 500},
		{"rmat", 1024, 1024},
		{"rmat", 1500, 1024}, // the largest power of two not above nodes
	} {
		m, err := Generate(tc.kind, tc.nodes, 3, 1)
		if err != nil {
			t.Fatalf("%s:%d: %v", tc.kind, tc.nodes, err)
		}
		if m.Rows != tc.want || m.NNZ() == 0 {
			t.Errorf("%s:%d: %d rows, %d nnz; want %d rows", tc.kind, tc.nodes, m.Rows, m.NNZ(), tc.want)
		}
	}
	for _, tc := range []struct {
		kind  string
		nodes uint64
	}{
		{"", 1000},
		{"kronecker", 1000},
		{"rmat", 0},
		{"rmat", 1},
		{"rmat", math.MaxUint64}, // scale 63: rejected, not an endless scale search
	} {
		if _, err := Generate(tc.kind, tc.nodes, 3, 1); err == nil {
			t.Errorf("%q:%d accepted", tc.kind, tc.nodes)
		}
	}
}
