package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/report"
	"mwmerge/internal/vldi"
)

// pageRankSetup is the oracle for enginePlan.pageRankPlan: the
// column-normalized clone of a (columns whose values do not sum to
// exactly 0 sum to 1; the rest keep their values) and the ascending list
// of those zero-sum, dangling columns, computed by one pass over
// a.Entries.
func pageRankSetup(a *matrix.COO) (*matrix.COO, []uint64) {
	colSum := make([]float64, a.Cols)
	for _, ent := range a.Entries {
		colSum[ent.Col] += ent.Val
	}
	norm := a.Clone()
	for i, ent := range norm.Entries {
		if colSum[ent.Col] != 0 {
			norm.Entries[i].Val = ent.Val / colSum[ent.Col]
		}
	}
	var dangling []uint64
	for j, s := range colSum {
		if s == 0 {
			dangling = append(dangling, uint64(j))
		}
	}
	return norm, dangling
}

// hostileColumns is a 300×300 matrix (three stripes of testConfig's 128)
// whose columns exercise every normalization rule: a column summing to
// exactly 0 (+v, −v), a lone −0.0, duplicate (row, col) entries, sums
// that do not divide exactly, and empty columns. Entries are row-major.
func hostileColumns() *matrix.COO {
	negZero := math.Copysign(0, -1)
	return &matrix.COO{Rows: 300, Cols: 300, Entries: []matrix.Entry{
		{Row: 0, Col: 9, Val: 0.1},
		{Row: 0, Col: 130, Val: 3},
		{Row: 1, Col: 5, Val: 2.5},
		{Row: 2, Col: 140, Val: negZero},
		{Row: 3, Col: 9, Val: 0.5},
		{Row: 3, Col: 9, Val: 0.25},
		{Row: 3, Col: 299, Val: 7},
		{Row: 4, Col: 130, Val: 0.3},
		{Row: 7, Col: 5, Val: -2.5},
		{Row: 10, Col: 9, Val: 1},
		{Row: 200, Col: 130, Val: 0.7},
		{Row: 200, Col: 131, Val: 1e-300},
		{Row: 250, Col: 131, Val: 3e-300},
		{Row: 299, Col: 0, Val: 1},
	}}
}

// TestPageRankPlanMatchesNormalizedClone holds the PageRank sibling to a
// plan built from the normalized clone it replaced: the same values to
// the bit, the same runs, books, detector routing and LPT order, and the
// same dangling list — while the sibling shares its layout with the
// plain plan, whose values stay the matrix's own.
func TestPageRankPlanMatchesNormalizedClone(t *testing.T) {
	codec, err := vldi.NewCodec(5)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]func(*Config){
		"plain": func(*Config) {},
		"vldi":  func(c *Config) { c.VectorCodec, c.MatrixCodec = codec, codec },
		"hdn":   func(c *Config) { c.HDN = &hdn.Config{Threshold: 2, LoadFactor: 0.1, Hashes: 4} },
	}
	er, err := graph.ErdosRenyi(700, 5, 91)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := graph.Zipf(700, 6, 1.8, 92)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*matrix.COO{"er": er, "zipfT": zipf.Transpose(), "hostile": hostileColumns()}
	for in, a := range inputs {
		norm, wantDangling := pageRankSetup(a)
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
			pr := p.pageRankPlan(a.Rows)
			want, err := e.buildPlan(norm, planWorkers(len(norm.Entries)))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := e.buildPlan(a, planWorkers(len(a.Entries)))
			if err != nil {
				t.Fatal(err)
			}
			if pr.det != p.det || pr.runs != want.runs || pr.nnz != want.nnz || pr.maxNNZ != want.maxNNZ ||
				pr.books != want.books || !slices.Equal(pr.lpt, want.lpt) {
				t.Fatalf("%s/%s: sibling totals, books or LPT order differ from the normalized clone's plan", in, name)
			}
			if !slices.Equal(pr.dangling, wantDangling) {
				t.Fatalf("%s/%s: dangling %v, want %v", in, name, pr.dangling, wantDangling)
			}
			for k := range want.stripes {
				got, w := &pr.stripes[k], &want.stripes[k]
				if got.colStart != w.colStart || got.width != w.width || got.recOff != w.recOff || got.books != w.books ||
					!slices.Equal(got.rows, w.rows) || !slices.Equal(got.ends, w.ends) || !slices.Equal(got.cols, w.cols) {
					t.Fatalf("%s/%s: stripe %d layout or books differ from the normalized clone's plan", in, name, k)
				}
				if !sameFloatBits(got.vals, w.vals) {
					t.Fatalf("%s/%s: stripe %d values differ from the normalized clone's", in, name, k)
				}
				if !sameFloatBits(p.stripes[k].vals, plain.stripes[k].vals) {
					t.Fatalf("%s/%s: stripe %d: building the sibling changed the plain plan's values", in, name, k)
				}
				if len(got.cols) > 0 && (&got.cols[0] != &p.stripes[k].cols[0] || &got.rows[0] != &p.stripes[k].rows[0]) {
					t.Fatalf("%s/%s: stripe %d: the sibling copied the plain plan's layout instead of sharing it", in, name, k)
				}
			}
			if p.pageRankPlan(a.Rows) != pr {
				t.Fatalf("%s/%s: a second pageRankPlan rebuilt the sibling", in, name)
			}
		}
	}
}

// sameFloatBits reports whether a and b hold the same float64 bit
// patterns (so −0.0 differs from +0.0).
func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPageRankPlansOnce pins the plan's lifetime across entry points: the
// plain plan is built by the first call on a matrix, its PageRank sibling
// by the first PageRank, and no later call on the same matrix — PageRank
// on either schedule or SpMV — rebuilds or evicts either.
func TestPageRankPlansOnce(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := graph.Zipf(2000, 5, 1.7, 93)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(a.Cols, 94)
	if _, err := e.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}
	p := e.plan
	if p == nil || p.pr != nil {
		t.Fatal("SpMV left no plan, or built the PageRank sibling")
	}
	if _, _, err := e.PageRank(a, 0.85, 1e-8, 20, false); err != nil {
		t.Fatal(err)
	}
	pr := p.pr
	if e.plan != p || pr == nil {
		t.Fatal("PageRank replaced the plain plan or built no sibling")
	}
	calls := []struct {
		name string
		call func() error
	}{
		{"SpMV", func() error { _, err := e.SpMV(a, x, nil); return err }},
		{"PageRank overlap", func() error {
			_, _, err := e.PageRank(a, 0.85, 1e-8, 20, true)
			return err
		}},
		{"PageRank sequential", func() error {
			_, _, err := e.PageRank(a, 0.85, 1e-8, 20, false)
			return err
		}},
	}
	for _, c := range calls {
		if err := c.call(); err != nil {
			t.Fatal(err)
		}
		if e.plan != p || p.pr != pr {
			t.Fatalf("%s rebuilt the plain plan or its PageRank sibling", c.name)
		}
	}
}

// TestPageRankRejectsBadArgs pins PageRank's parameter contract: damping
// outside [0, 1], a negative or NaN tolerance and an iteration cap below
// one are rejected with a core error before any work — nothing planned,
// nothing booked — and the boundary values are accepted.
func TestPageRankRejectsBadArgs(t *testing.T) {
	a, err := graph.ErdosRenyi(300, 3, 95)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		damping, tol  float64
		maxIters      int
		wantRejection bool
	}{
		{"damping-negative", -0.1, 1e-9, 5, true},
		{"damping-above-one", 1.5, 1e-9, 5, true},
		{"damping-NaN", math.NaN(), 1e-9, 5, true},
		{"tol-negative", 0.85, -1, 5, true},
		{"tol-NaN", 0.85, math.NaN(), 5, true},
		{"max-iters-zero", 0.85, 1e-9, 0, true},
		{"max-iters-negative", 0.85, 1e-9, -1, true},
		{"damping-zero", 0, 1e-9, 5, false},
		{"damping-one", 1, 1e-9, 5, false},
		{"tol-zero", 0.85, 0, 5, false},
		{"tol-inf", 0.85, math.Inf(1), 5, false},
		{"max-iters-one", 0.85, 1e-9, 1, false},
	}
	for _, tc := range cases {
		e, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = e.PageRank(a, tc.damping, tc.tol, tc.maxIters, false)
		if !tc.wantRejection {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), "core: ") {
			t.Errorf("%s: error %v, want a core: rejection", tc.name, err)
			continue
		}
		if e.plan != nil || e.Counters() != (report.Counters{}) {
			t.Errorf("%s: rejected only after planning or booking work", tc.name)
		}
	}
}
