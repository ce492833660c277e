package solver

import (
	"math"
	"math/rand"
	"testing"

	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/vector"
)

// engine builds a small functional accelerator for the solves.
func engine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.New(core.Config{
		ScratchpadBytes: 8 << 10, ValueBytes: 8, MetaBytes: 8, Lanes: 8,
		Merge: prap.Config{Q: 2, Ways: 64, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16},
		HBM:   mem.DefaultHBM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCGSolvesLaplacianSystem(t *testing.T) {
	g, err := graph.ErdosRenyi(800, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SPDLaplacian(g, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := vector.NewDense(int(a.Rows))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	eng := engine(t)
	res, err := CG(eng, a, b, 1e-10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: residual %g after %d iters", res.Residual, res.Iterations)
	}
	// Verify against the dense reference.
	ax, _ := core.ReferenceSpMV(a, res.X, nil)
	var worst float64
	for i := range b {
		if d := math.Abs(ax[i] - b[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-6 {
		t.Errorf("CG solution residual component %g", worst)
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	// A negative-definite diagonal should trip the p·Ap check.
	a, _ := matrix.NewCOO(3, 3, []matrix.Entry{
		{Row: 0, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: -1}, {Row: 2, Col: 2, Val: -1},
	})
	b := vector.Dense{1, 2, 3}
	if _, err := CG(engine(t), a, b, 1e-9, 10); err == nil {
		t.Error("indefinite matrix accepted")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a, _ := matrix.NewCOO(2, 2, []matrix.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}})
	res, err := CG(engine(t), a, vector.NewDense(2), 1e-9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.X.NNZ() != 0 {
		t.Error("zero RHS should converge to zero immediately")
	}
}

func TestSPDLaplacianProperties(t *testing.T) {
	g, _ := graph.ErdosRenyi(200, 3, 4)
	l, err := SPDLaplacian(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric.
	tr := l.Transpose()
	for i := range l.Entries {
		if l.Entries[i] != tr.Entries[i] {
			t.Fatal("Laplacian not symmetric")
		}
	}
	// Row sums equal the ridge.
	sums := make([]float64, l.Rows)
	for _, e := range l.Entries {
		sums[e.Row] += e.Val
	}
	for i, s := range sums {
		if math.Abs(s-0.5) > 1e-12 {
			t.Fatalf("row %d sums to %g, want ridge 0.5", i, s)
		}
	}
}
