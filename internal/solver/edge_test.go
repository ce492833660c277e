package solver

import (
	"testing"

	"mwmerge/internal/matrix"
	"mwmerge/internal/vector"
)

func TestCGMaxItersPath(t *testing.T) {
	// An ill-conditioned SPD system with a tiny iteration budget must
	// return unconverged with a meaningful residual.
	var entries []matrix.Entry
	n := uint64(50)
	for i := uint64(0); i < n; i++ {
		entries = append(entries, matrix.Entry{Row: i, Col: i, Val: float64(i + 1)})
		if i+1 < n {
			entries = append(entries, matrix.Entry{Row: i, Col: i + 1, Val: -0.4})
			entries = append(entries, matrix.Entry{Row: i + 1, Col: i, Val: -0.4})
		}
	}
	a, _ := matrix.NewCOO(n, n, entries)
	b := vector.NewDense(int(n))
	b.Fill(1)
	res, err := CG(engine(t), a, b, 1e-15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("2-iteration CG reported converged at 1e-15")
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestSPDLaplacianRejectsRectangular(t *testing.T) {
	a, _ := matrix.NewCOO(2, 3, []matrix.Entry{{Row: 0, Col: 1, Val: 1}})
	if _, err := SPDLaplacian(a, 1); err == nil {
		t.Error("rectangular Laplacian accepted")
	}
}
