// Package mwmerge is a library-level reproduction of "Efficient SpMV
// Operation for Large and Highly Sparse Matrices using Scalable Multi-way
// Merge Parallelization" (Sadi et al., MICRO-52, 2019).
//
// It provides:
//
//   - a functional model of the Two-Step SpMV accelerator — 1D
//     column-blocked step-1 partial SpMV, PRaP radix-pre-sorted parallel
//     multi-way merge with missing-key injection (step 2), VLDI meta-data
//     compression, Bloom-filter High-Degree-Node routing, and
//     iteration-overlapped execution — that computes real results and is
//     validated against a dense reference;
//   - an off-chip traffic ledger and calibrated analytic performance/energy
//     models for the paper's ASIC and FPGA design points;
//   - synthetic graph generators matching the paper's datasets; and
//   - a conjugate-gradient solver that runs its multiplies on the engine.
//
// The programs are the commands under cmd/: cmd/spmvbench regenerates
// every table and figure of the paper's evaluation, and cmd/spmvd serves
// the engine over HTTP.
//
// Quick start:
//
//	a, _ := mwmerge.ErdosRenyi(100000, 3, 1)     // 100K-node degree-3 graph
//	eng, _ := mwmerge.NewEngine(mwmerge.DefaultEngineConfig())
//	x := mwmerge.NewDense(int(a.Cols))
//	y, err := eng.SpMV(a, x, nil)                // y = A·x
//
// The heavy lifting lives in internal packages; this facade re-exports the
// stable surface.
package mwmerge

import (
	"io"

	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/perfmodel"
	"mwmerge/internal/prap"
	"mwmerge/internal/report"
	"mwmerge/internal/serve"
	"mwmerge/internal/solver"
	"mwmerge/internal/vector"
	"mwmerge/internal/vldi"
)

// Matrix and vector types.
type (
	// Matrix is a row-major coordinate sparse matrix.
	Matrix = matrix.COO
	// Entry is one nonzero of a Matrix.
	Entry = matrix.Entry
	// Dense is a dense float64 vector.
	Dense = vector.Dense
	// SparseVec is a sorted sparse vector (the intermediate-vector shape).
	SparseVec = vector.Sparse
)

// Engine types.
type (
	// Engine executes Two-Step SpMV.
	Engine = core.Engine
	// EngineConfig parameterizes an Engine.
	EngineConfig = core.Config
	// IterateOptions controls iterative SpMV (ITS).
	IterateOptions = core.IterateOptions
	// Traffic is the off-chip byte ledger.
	Traffic = mem.Traffic
	// PRaPConfig parameterizes the step-2 merge network.
	PRaPConfig = prap.Config
)

// Block (multi-vector) SpMV (DESIGN.md §11): one matrix pass applied to
// k right-hand sides, charging the matrix stream once per batch while
// vector-side traffic scales with k.
type (
	// BlockResult reports Engine.SpMVBlock: the k outputs and the
	// per-column ledger deltas the batch splits into.
	BlockResult = core.BlockResult
)

// Observability types (see DESIGN.md §8). Attach a RunRecorder via
// EngineConfig.Recorder to collect wall-clock span lanes and per-iteration
// ledger counters, then Build a RunReport and render it as JSON,
// Prometheus text exposition, or an ASCII Gantt chart.
type (
	// RunRecorder collects spans and counter snapshots during a run.
	RunRecorder = report.Recorder
	// RunReport is the assembled observability surface of one run.
	RunReport = report.Report
	// ReportMeta labels a RunReport with its workload and knobs.
	ReportMeta = report.Meta
)

// NewRunRecorder starts a run recorder; its wall clock begins now.
func NewRunRecorder() *RunRecorder { return report.NewRecorder() }

// Serving types (see DESIGN.md §10): a warmed per-matrix engine pool,
// the unit cmd/spmvd serves over HTTP with capacity/deadline/queue
// admission control and the aggregated pool ledger live on /metrics.
type (
	// EnginePool is a warmed, fixed-size set of engines serving one matrix.
	EnginePool = serve.Pool
	// EnginePoolConfig describes one matrix pool.
	EnginePoolConfig = serve.PoolConfig
)

// NewEnginePool builds and warms a fixed-size engine pool for one matrix.
// A member built from DefaultEngineConfig uses every core, so a pool
// whose members serve at once should set Workers and Merge.MergeWorkers
// to a share of GOMAXPROCS, as cmd/spmvd does.
func NewEnginePool(cfg EnginePoolConfig) (*EnginePool, error) { return serve.NewPool(cfg) }

// Model types.
type (
	// DesignPoint is one hardware implementation (Table 2 row).
	DesignPoint = perfmodel.DesignPoint
	// GraphStats is the analytic model's graph summary.
	GraphStats = perfmodel.GraphStats
	// Dataset is a named evaluation graph (Tables 4-6).
	Dataset = graph.Dataset
)

// Variant selectors for design points.
const (
	TS    = perfmodel.TS
	ITS   = perfmodel.ITS
	ITSVC = perfmodel.ITSVC
)

// NewMatrix builds a row-major sparse matrix, sorting and coalescing
// duplicate entries.
func NewMatrix(rows, cols uint64, entries []Entry) (*Matrix, error) {
	return matrix.NewCOO(rows, cols, entries)
}

// NewDense returns a zeroed dense vector of dimension n.
func NewDense(n int) Dense { return vector.NewDense(n) }

// SparseFromDense gathers the nonzeros of a dense vector into the sorted
// sparse form Engine.SpMSpV consumes (frontier-style workloads).
func SparseFromDense(d Dense) *SparseVec { return vector.FromDense(d) }

// NewEngine builds a Two-Step SpMV engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.New(cfg) }

// DefaultEngineConfig returns the TS_ASIC-shaped configuration scaled for
// functional (in-memory) execution: 256 KiB segments, 1024-way PRaP merge
// with 16 cores, handling matrices up to ~33M rows. Both steps take every
// core by default, with bit-identical results at any count: Workers = 0
// runs step 1's stripes on GOMAXPROCS goroutines, and Merge.MergeWorkers
// = 0 splits step 2's output keys into contiguous block ranges for up to
// GOMAXPROCS goroutines. Set both to 1 for a sequential engine, or to a
// share of the cores when several engines run at once.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		ScratchpadBytes: 256 << 10,
		ValueBytes:      8,
		MetaBytes:       8,
		Lanes:           8,
		Merge:           PRaPConfig{Q: 4, Ways: 1024, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16},
		HBM:             mem.DefaultHBM(),
	}
}

// NewVLDICodec returns a VLDI codec with the given block width for
// EngineConfig.VectorCodec / MatrixCodec.
func NewVLDICodec(blockBits int) (*vldi.Codec, error) { return vldi.NewCodec(blockBits) }

// ReferenceSpMV computes y = A·x + y densely — the validation oracle.
func ReferenceSpMV(a *Matrix, x, y Dense) (Dense, error) { return core.ReferenceSpMV(a, x, y) }

// Graph generators.
var (
	// ErdosRenyi generates a uniform random graph.
	ErdosRenyi = graph.ErdosRenyi
	// RMAT generates a recursive-matrix scale-free graph.
	RMAT = graph.RMAT
	// Zipf generates a power-law graph with High Degree Nodes.
	Zipf = graph.Zipf
	// LookupDataset finds a named paper dataset (Tables 4-6).
	LookupDataset = graph.Lookup
)

// Design points of the paper's Table 2.
var (
	// ASICDesign returns the 16nm ASIC design point.
	ASICDesign = perfmodel.ASICDesign
	// FPGA1Design returns the large-problem Stratix-10 point.
	FPGA1Design = perfmodel.FPGA1Design
	// FPGA2Design returns the high-throughput Stratix-10 point.
	FPGA2Design = perfmodel.FPGA2Design
)

// An iterative solver on the engine (the "scientific applications" of
// §1; examples/laplacian runs it).
var (
	// CG solves symmetric positive-definite systems.
	CG = solver.CG
	// SPDLaplacian builds an SPD graph-Laplacian test system.
	SPDLaplacian = solver.SPDLaplacian
)

// ReadMatrixMarket parses a MatrixMarket coordinate stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return matrix.ReadMatrixMarket(r) }

// WriteMatrixMarket emits a matrix in MatrixMarket format.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return matrix.WriteMatrixMarket(w, m) }
