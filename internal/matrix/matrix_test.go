package matrix

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomCOO(t *testing.T, rows, cols uint64, nnz int, seed int64) *COO {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	es := make([]Entry, nnz)
	for i := range es {
		es[i] = Entry{Row: rng.Uint64() % rows, Col: rng.Uint64() % cols, Val: rng.NormFloat64()}
	}
	m, err := NewCOO(rows, cols, es)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewCOOSortsAndCoalesces(t *testing.T) {
	m, err := NewCOO(3, 3, []Entry{
		{Row: 2, Col: 1, Val: 1},
		{Row: 0, Col: 2, Val: 2},
		{Row: 2, Col: 1, Val: 3}, // duplicate of first
		{Row: 0, Col: 0, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d after coalescing", m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Entries[2].Val != 4 {
		t.Errorf("duplicate not summed: %v", m.Entries)
	}
}

func TestNewCOORejectsBadShapes(t *testing.T) {
	if _, err := NewCOO(0, 3, nil); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewCOO(2, 2, []Entry{{Row: 2, Col: 0}}); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := NewCOO(2, 2, []Entry{{Row: 0, Col: 2}}); err == nil {
		t.Error("out-of-range col accepted")
	}
}

func TestHypersparse(t *testing.T) {
	m, _ := NewCOO(100, 100, []Entry{{Row: 1, Col: 1, Val: 1}})
	if !m.Hypersparse() {
		t.Error("1 nnz in 100x100 should be hypersparse")
	}
	dense := randomCOO(t, 10, 10, 200, 1)
	if dense.Hypersparse() {
		t.Error("dense-ish matrix flagged hypersparse")
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := randomCOO(t, 17, 31, 100, 2)
	tt := m.Transpose().Transpose()
	if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
		t.Fatal("transpose changed shape")
	}
	for i := range m.Entries {
		if m.Entries[i] != tt.Entries[i] {
			t.Fatalf("entry %d differs after double transpose", i)
		}
	}
}

func TestRowDegreesAndMax(t *testing.T) {
	m, _ := NewCOO(4, 4, []Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 2, Col: 3, Val: 1},
	})
	deg := m.RowDegrees()
	if deg[0] != 2 || deg[1] != 0 || deg[2] != 1 {
		t.Errorf("degrees = %v", deg)
	}
	if m.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", m.MaxDegree())
	}
	if m.AvgDegree() != 0.75 {
		t.Errorf("AvgDegree = %g", m.AvgDegree())
	}
}

func TestCSRRoundTrip(t *testing.T) {
	m := randomCOO(t, 23, 19, 150, 3)
	csr := ToCSR(m)
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	back := csr.ToCOO()
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip changed nnz: %d vs %d", back.NNZ(), m.NNZ())
	}
	for i := range m.Entries {
		if m.Entries[i] != back.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestCSRRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rows := uint64(seed%20+20)%20 + 1
		cols := uint64(seed%13+13)%13 + 1
		rng := rand.New(rand.NewSource(seed))
		nnz := rng.Intn(50)
		es := make([]Entry, nnz)
		for i := range es {
			es[i] = Entry{Row: rng.Uint64() % rows, Col: rng.Uint64() % cols, Val: 1}
		}
		m, err := NewCOO(rows, cols, es)
		if err != nil {
			return false
		}
		back := ToCSR(m).ToCOO()
		if back.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.Entries {
			if m.Entries[i] != back.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBestStripeFormat(t *testing.T) {
	// Hypersparse: nnz << rows favors RM-COO.
	name, bytes1 := BestStripeFormat(1000000, 100, 8)
	if name != "rm-coo" {
		t.Errorf("hypersparse stripe chose %s", name)
	}
	if bytes1 != MetaBytesCOO(100, 8) {
		t.Errorf("rm-coo bytes = %d", bytes1)
	}
	// Dense rows favor CSR.
	name, _ = BestStripeFormat(100, 100000, 8)
	if name != "csr" {
		t.Errorf("dense stripe chose %s", name)
	}
}

func TestPartition1D(t *testing.T) {
	m := randomCOO(t, 50, 64, 300, 4)
	stripes, err := Partition1D(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(stripes) != 4 {
		t.Fatalf("got %d stripes", len(stripes))
	}
	total := 0
	for _, s := range stripes {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if cap(s.Entries) != len(s.Entries) {
			t.Errorf("stripe %d holds %d entries in capacity %d, want an exact fit", s.Index, len(s.Entries), cap(s.Entries))
		}
		total += s.NNZ()
	}
	if total != m.NNZ() {
		t.Errorf("stripes lose entries: %d vs %d", total, m.NNZ())
	}
	// One allocation per stripe header and per entry slice, plus the
	// stripe table and the sizing histogram: nothing re-grows.
	if allocs, max := testing.AllocsPerRun(10, func() { _, _ = Partition1D(m, 16) }), float64(2*len(stripes)+2); allocs > max {
		t.Errorf("Partition1D allocates %.0f times, want ≤ %.0f", allocs, max)
	}
	// Reconstruct and compare.
	var rebuilt []Entry
	for _, s := range stripes {
		for _, e := range s.Entries {
			rebuilt = append(rebuilt, Entry{Row: e.Row, Col: e.Col + s.ColStart, Val: e.Val})
		}
	}
	back, err := NewCOO(m.Rows, m.Cols, rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Entries {
		if m.Entries[i] != back.Entries[i] {
			t.Fatalf("entry %d differs after stripe reassembly", i)
		}
	}
}

func TestPartition1DUnevenWidth(t *testing.T) {
	m := randomCOO(t, 10, 10, 30, 5)
	stripes, err := Partition1D(m, 3) // widths 3,3,3,1
	if err != nil {
		t.Fatal(err)
	}
	if len(stripes) != 4 || stripes[3].Width != 1 {
		t.Fatalf("uneven partition wrong: %d stripes, last width %d", len(stripes), stripes[3].Width)
	}
	if _, err := Partition1D(m, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestStripeNNZHistogram(t *testing.T) {
	m := randomCOO(t, 10, 40, 200, 7)
	counts := StripeNNZHistogram(m, 10)
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if sum != uint64(m.NNZ()) {
		t.Errorf("histogram sums to %d, want %d", sum, m.NNZ())
	}
	stripes, _ := Partition1D(m, 10)
	for k, s := range stripes {
		if counts[k] != uint64(s.NNZ()) {
			t.Errorf("stripe %d: histogram %d vs actual %d", k, counts[k], s.NNZ())
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := randomCOO(t, 12, 9, 40, 8)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() {
		t.Fatalf("shape changed: %dx%d nnz %d", back.Rows, back.Cols, back.NNZ())
	}
	for i := range m.Entries {
		if m.Entries[i] != back.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestMatrixMarketPatternSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern symmetric
% a comment
3 3 2
2 1
3 3
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// (2,1) expands to (1,2) as well; (3,3) is diagonal.
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	for _, e := range m.Entries {
		if e.Val != 1 {
			t.Errorf("pattern value %g != 1", e.Val)
		}
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	bad := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
	}
	for i, s := range bad {
		if _, err := ReadMatrixMarket(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}
