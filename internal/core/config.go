// Package core implements the Two-Step SpMV engine (paper §2-§5): 1D
// column-blocked step-1 partial SpMV with P parallel multiply/accumulate
// lanes, the step-2 PRaP multi-way merge's result computed into the
// dense output by an ordered segment accumulator, optional VLDI
// meta-data compression, optional Bloom-filter HDN routing, and
// iteration-overlapped execution (ITS). The engine is functional —
// it computes real results validated against a dense reference — while
// simultaneously keeping the off-chip traffic ledger the paper's
// evaluation is built on.
package core

import (
	"fmt"

	"mwmerge/internal/hdn"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vldi"
)

// Config parameterizes a Two-Step engine.
type Config struct {
	// ScratchpadBytes is the on-chip buffer for one source-vector
	// segment (8 MiB on the ASIC). It dictates the stripe width:
	// width = ScratchpadBytes / ValueBytes.
	ScratchpadBytes uint64
	// ValueBytes is the stored precision of vector elements (4 on the
	// ASIC: single precision).
	ValueBytes int
	// MetaBytes is the uncompressed index width for traffic accounting.
	MetaBytes int
	// Lanes is P, the number of parallel multiplier + adder-chain lanes
	// in step 1.
	Lanes int
	// Merge configures step 2: the PRaP network's shape (Q, Ways, page
	// and record sizes) behind the capacity bound, the ledger and the
	// merge statistics, and MergeWorkers, the host step 2's worker
	// count. The host computes the network's result with an ordered
	// segment accumulator (step2.go), so Kernel and Drain, which pick
	// how prap.Network merges, do not reach the engine.
	Merge prap.Config
	// HBM is the main-memory model used for traffic/time accounting.
	HBM mem.HBMConfig
	// VectorCodec, when non-nil, VLDI-compresses the intermediate
	// vectors' meta-data on their DRAM round trip (ITS_VC).
	VectorCodec *vldi.Codec
	// MatrixCodec, when non-nil, VLDI-compresses the matrix stripes'
	// column indices.
	MatrixCodec *vldi.Codec
	// HDN, when non-nil, enables the Bloom-filter High Degree Node
	// routing of §5.3.
	HDN *hdn.Config
	// Workers bounds the goroutines running step 1 over independent
	// stripes in parallel (the host-side analogue of the hardware's
	// parallel fabric). 0 means runtime.GOMAXPROCS, as for
	// Merge.MergeWorkers; 1 runs sequentially. Results and traffic
	// accounting are identical at any count. Step-2 parallelism is the
	// separate Merge.MergeWorkers knob, which splits the output keys
	// into contiguous block ranges, one per goroutine, with
	// bit-identical results. Callers that share the host with other
	// engines (spmvd's pool) set both. Workers does not bound the plan
	// build, which runs once per matrix on runtime.GOMAXPROCS goroutines
	// (DESIGN.md §9).
	Workers int
	// Recorder, when non-nil, collects the observability run report:
	// wall-clock spans for step-1 stripe workers, the step-2 key-range
	// workers, and ITS overlap windows, plus per-iteration
	// ledger-counter snapshots (see internal/report and DESIGN.md §8).
	// Recording never changes results or the ledger; nil (the default)
	// disables every instrumentation hook.
	Recorder *report.Recorder
}

// DefaultConfig returns the TS_ASIC design point: 8 MiB scratchpad,
// single-precision values, 16×2048-way PRaP network.
func DefaultConfig() Config {
	return Config{
		ScratchpadBytes: 8 << 20,
		ValueBytes:      types.ValBytes32,
		MetaBytes:       types.KeyBytes,
		Lanes:           8,
		Merge:           prap.DefaultConfig(),
		HBM:             mem.DefaultHBM(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ScratchpadBytes == 0 {
		return fmt.Errorf("core: scratchpad size must be positive")
	}
	if c.ValueBytes != 1 && c.ValueBytes != 2 && c.ValueBytes != 4 && c.ValueBytes != 8 && c.ValueBytes != 16 {
		return fmt.Errorf("core: value precision %d bytes unsupported", c.ValueBytes)
	}
	if c.MetaBytes < 1 || c.MetaBytes > 8 {
		return fmt.Errorf("core: meta width %d bytes out of range", c.MetaBytes)
	}
	if c.Lanes < 1 {
		return fmt.Errorf("core: lane count must be positive")
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: workers must be non-negative")
	}
	if err := c.Merge.Validate(); err != nil {
		return err
	}
	return c.HBM.Validate()
}

// SegmentWidth returns the source-vector segment width in elements
// (ScratchpadBytes / ValueBytes). With iteration overlap the caller
// halves ScratchpadBytes first.
func (c Config) SegmentWidth() uint64 {
	return c.ScratchpadBytes / uint64(c.ValueBytes)
}

// MaxDimension returns the largest matrix dimension the engine accepts:
// Ways × SegmentWidth, the capacity model behind the paper's Table 1/2.
func (c Config) MaxDimension() uint64 {
	return uint64(c.Merge.Ways) * c.SegmentWidth()
}

// CheckIterativeCapacity enforces the iterative-run capacity bound: ITS
// overlap keeps two source-segment buffers resident, halving the maximum
// dimension (paper Table 2). Iterate, PageRank, and the serving layer's
// admission control all share this check, so an over-capacity request is
// rejected with the same error before any work starts.
func (c Config) CheckIterativeCapacity(dim uint64, overlap bool) error {
	capacity := c.MaxDimension()
	qualifier := ""
	if overlap {
		capacity /= 2
		qualifier = "ITS "
	}
	if dim > capacity {
		return fmt.Errorf("core: dimension %d exceeds %scapacity %d", dim, qualifier, capacity)
	}
	return nil
}
