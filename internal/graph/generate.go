// Package graph synthesizes the sparse graphs the paper evaluates on:
// Erdős–Rényi random graphs (the paper's Sy-* datasets and Fig. 13/14
// inputs), RMAT scale-free graphs (RMATScale23), and Zipf power-law graphs
// with High Degree Nodes (the §5.3 workload). It also carries a registry of
// the named datasets of Tables 4-6 so the benchmark harness can instantiate
// statistically faithful scaled-down stand-ins.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"mwmerge/internal/matrix"
)

// Generate builds a graph with the named generator: "er" and "zipf"
// (exponent 1.8) on nodes nodes, "rmat" (Graph500 parameters) on the
// largest power of two not above nodes.
func Generate(kind string, nodes uint64, degree float64, seed int64) (*matrix.COO, error) {
	switch kind {
	case "er":
		return ErdosRenyi(nodes, degree, seed)
	case "rmat":
		return RMAT(rmatScale(nodes), degree, Graph500Params(), seed)
	case "zipf":
		return Zipf(nodes, degree, 1.8, seed)
	}
	return nil, fmt.Errorf("graph: unknown generator %q (want er, rmat or zipf)", kind)
}

// rmatScale is floor(log2(nodes)), or 0 (which RMAT rejects) for no
// nodes.
func rmatScale(nodes uint64) uint { return uint(max(bits.Len64(nodes), 1) - 1) }

// checkDegree bounds a generator's average degree: positive (NaN fails
// too) and at most 2^40 edges over n nodes.
func checkDegree(n uint64, deg float64) error {
	if !(deg > 0) || float64(n)*deg > 1<<40 {
		return fmt.Errorf("graph: average degree %g out of range", deg)
	}
	return nil
}

// ErdosRenyi generates an n x n matrix with approximately avgDegree
// nonzeros per row placed uniformly at random (G(n, p) with p = deg/n).
// Values are drawn uniformly from (0, 1]. The generator places exactly
// round(n*avgDegree) edges, sampling without replacement per row batch,
// which matches the paper's synthetic Sy-* construction.
func ErdosRenyi(n uint64, avgDegree float64, seed int64) (*matrix.COO, error) {
	if n == 0 {
		return nil, fmt.Errorf("graph: dimension must be positive")
	}
	if err := checkDegree(n, avgDegree); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	target := uint64(math.Round(float64(n) * avgDegree))
	entries := make([]matrix.Entry, 0, target)
	seen := make(map[uint64]struct{}, target)
	for uint64(len(entries)) < target {
		r := rng.Uint64() % n
		c := rng.Uint64() % n
		key := r*n + c
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		entries = append(entries, matrix.Entry{Row: r, Col: c, Val: rng.Float64() + math.SmallestNonzeroFloat64})
	}
	return matrix.NewCOO(n, n, entries)
}

// RMATParams are the quadrant probabilities of the recursive-matrix
// generator; Graph500 uses (0.57, 0.19, 0.19, 0.05).
type RMATParams struct {
	A, B, C, D float64
}

// Graph500Params returns the standard Graph500 RMAT parameters, matching
// the RMATScale23 dataset reported by Graphicionado.
func Graph500Params() RMATParams { return RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05} }

// RMAT generates a 2^scale x 2^scale RMAT graph with edgeFactor edges per
// node. Duplicate edges are coalesced, so the final nnz can be slightly
// below 2^scale * edgeFactor.
func RMAT(scale uint, edgeFactor float64, p RMATParams, seed int64) (*matrix.COO, error) {
	if scale == 0 || scale > 40 {
		return nil, fmt.Errorf("graph: rmat scale %d out of range", scale)
	}
	n := uint64(1) << scale
	if err := checkDegree(n, edgeFactor); err != nil {
		return nil, err
	}
	sum := p.A + p.B + p.C + p.D
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("graph: rmat probabilities sum to %g, want 1", sum)
	}
	m := uint64(math.Round(float64(n) * edgeFactor))
	rng := rand.New(rand.NewSource(seed))
	entries := make([]matrix.Entry, 0, m)
	for i := uint64(0); i < m; i++ {
		var r, c uint64
		for level := uint(0); level < scale; level++ {
			u := rng.Float64()
			switch {
			case u < p.A:
				// top-left: no bits set
			case u < p.A+p.B:
				c |= 1 << level
			case u < p.A+p.B+p.C:
				r |= 1 << level
			default:
				r |= 1 << level
				c |= 1 << level
			}
		}
		entries = append(entries, matrix.Entry{Row: r, Col: c, Val: rng.Float64() + math.SmallestNonzeroFloat64})
	}
	return matrix.NewCOO(n, n, entries)
}

// Zipf generates an n x n power-law graph: row degrees follow a Zipf
// distribution with the given exponent (s > 1 concentrates edges on few
// rows), producing the High Degree Nodes of paper §5.3. Column endpoints
// are uniform. The total edge count approximates n*avgDegree.
func Zipf(n uint64, avgDegree, exponent float64, seed int64) (*matrix.COO, error) {
	if n == 0 {
		return nil, fmt.Errorf("graph: dimension must be positive")
	}
	if exponent <= 1 {
		return nil, fmt.Errorf("graph: zipf exponent must exceed 1, got %g", exponent)
	}
	if err := checkDegree(n, avgDegree); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	target := uint64(math.Round(float64(n) * avgDegree))
	// Assign degrees deg(rank) ∝ rank^-exponent over a random permutation
	// of rows, normalized to hit the target edge count.
	var norm float64
	for r := uint64(1); r <= n; r++ {
		norm += math.Pow(float64(r), -exponent)
	}
	perm := rng.Perm(int(n))
	entries := make([]matrix.Entry, 0, target)
	var assigned uint64
	for rank := uint64(1); rank <= n && assigned < target; rank++ {
		deg := uint64(math.Round(float64(target) * math.Pow(float64(rank), -exponent) / norm))
		if rank <= 4 && deg == 0 {
			deg = 1
		}
		if assigned+deg > target {
			deg = target - assigned
		}
		row := uint64(perm[rank-1])
		for j := uint64(0); j < deg; j++ {
			entries = append(entries, matrix.Entry{
				Row: row,
				Col: rng.Uint64() % n,
				Val: rng.Float64() + math.SmallestNonzeroFloat64,
			})
		}
		assigned += deg
	}
	return matrix.NewCOO(n, n, entries)
}

// Diagonal returns the n x n identity-pattern matrix with the given value,
// a convenient fixture for tests.
func Diagonal(n uint64, val float64) *matrix.COO {
	entries := make([]matrix.Entry, n)
	for i := uint64(0); i < n; i++ {
		entries[i] = matrix.Entry{Row: i, Col: i, Val: val}
	}
	m, err := matrix.NewCOO(n, n, entries)
	if err != nil {
		panic("graph: diagonal construction failed: " + err.Error())
	}
	return m
}

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	N          uint64
	NNZ        uint64
	AvgDegree  float64
	MaxDegree  uint64
	EmptyRows  uint64
	HDNCount   uint64 // rows above the HDN threshold
	HDNEdges   uint64 // edges owned by HDN rows
	Threshold  uint64
	GiniApprox float64 // crude concentration measure in [0,1]
}

// AnalyzeDegrees computes degree statistics with the given HDN threshold.
func AnalyzeDegrees(m *matrix.COO, hdnThreshold uint64) DegreeStats {
	deg := m.RowDegrees()
	st := DegreeStats{N: m.Rows, NNZ: uint64(m.NNZ()), Threshold: hdnThreshold}
	if m.Rows > 0 {
		st.AvgDegree = float64(m.NNZ()) / float64(m.Rows)
	}
	var sumAbsDiff float64
	mean := st.AvgDegree
	for _, d := range deg {
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		if d == 0 {
			st.EmptyRows++
		}
		if d > hdnThreshold {
			st.HDNCount++
			st.HDNEdges += d
		}
		sumAbsDiff += math.Abs(float64(d) - mean)
	}
	if mean > 0 && len(deg) > 0 {
		st.GiniApprox = sumAbsDiff / (2 * mean * float64(len(deg)))
	}
	return st
}
