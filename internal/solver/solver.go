// Package solver builds an iterative numerical kernel of the kind the
// paper's introduction motivates ("numerous scientific applications") on
// top of the Two-Step SpMV engine: conjugate gradients, with the SPD
// graph-Laplacian system examples/laplacian solves. Every multiply goes
// through the accelerator model, so a solve carries the full traffic
// ledger of the machine it would run on.
package solver

import (
	"fmt"
	"math"

	"mwmerge/internal/matrix"
	"mwmerge/internal/vector"
)

// Multiplier is the SpMV contract the solvers need; *core.Engine
// satisfies it.
type Multiplier interface {
	SpMV(a *matrix.COO, x, yIn vector.Dense) (vector.Dense, error)
}

// Result summarizes an iterative solve.
type Result struct {
	X          vector.Dense
	Iterations int
	Residual   float64
	Converged  bool
}

// CG solves A·x = b for symmetric positive-definite A by conjugate
// gradients; every A·p product runs on the engine.
func CG(m Multiplier, a *matrix.COO, b vector.Dense, tol float64, maxIters int) (Result, error) {
	if a.Rows != a.Cols {
		return Result{}, fmt.Errorf("solver: CG needs a square matrix")
	}
	if uint64(len(b)) != a.Rows {
		return Result{}, fmt.Errorf("solver: b dimension %d != %d", len(b), a.Rows)
	}
	n := int(a.Rows)
	x := vector.NewDense(n)
	r := b.Clone() // r = b - A·0
	p := r.Clone()
	rs := dot(r, r)
	bNorm := math.Sqrt(dot(b, b))
	if bNorm == 0 {
		return Result{X: x, Iterations: 0, Converged: true}, nil
	}
	for it := 1; it <= maxIters; it++ {
		ap, err := m.SpMV(a, p, nil)
		if err != nil {
			return Result{}, fmt.Errorf("solver: iteration %d: %w", it, err)
		}
		pap := dot(p, ap)
		if pap <= 0 {
			return Result{X: x, Iterations: it}, fmt.Errorf("solver: matrix not positive definite (p·Ap = %g)", pap)
		}
		alpha := rs / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := dot(r, r)
		if math.Sqrt(rsNew) <= tol*bNorm {
			return Result{X: x, Iterations: it, Residual: math.Sqrt(rsNew) / bNorm, Converged: true}, nil
		}
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	return Result{X: x, Iterations: maxIters, Residual: math.Sqrt(rs) / bNorm, Converged: false}, nil
}

func dot(a, b vector.Dense) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// SPDLaplacian builds a symmetric positive-definite test system: the
// graph Laplacian of the symmetrized input plus a ridge, a standard CG
// fixture.
func SPDLaplacian(a *matrix.COO, ridge float64) (*matrix.COO, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("solver: Laplacian needs a square matrix")
	}
	// Symmetrize pattern with unit weights.
	sym := make(map[[2]uint64]struct{}, 2*a.NNZ())
	for _, e := range a.Entries {
		if e.Row == e.Col {
			continue
		}
		sym[[2]uint64{e.Row, e.Col}] = struct{}{}
		sym[[2]uint64{e.Col, e.Row}] = struct{}{}
	}
	deg := make([]float64, a.Rows)
	entries := make([]matrix.Entry, 0, len(sym)+int(a.Rows))
	for k := range sym {
		entries = append(entries, matrix.Entry{Row: k[0], Col: k[1], Val: -1})
		deg[k[0]]++
	}
	for i := uint64(0); i < a.Rows; i++ {
		entries = append(entries, matrix.Entry{Row: i, Col: i, Val: deg[i] + ridge})
	}
	return matrix.NewCOO(a.Rows, a.Cols, entries)
}
