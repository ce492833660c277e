package perfmodel

import (
	"fmt"

	"mwmerge/internal/bitonic"
)

// AreaModel estimates the silicon area of the computation core in a
// given technology, itemized per block, calibrated so the TS_ASIC point
// reproduces the fabricated chip's 7.5 mm² (paper Fig. 2). Only the
// computation logic is on the die — the HBM stacks and eDRAM scratchpad
// sit beside it on the interposer.
type AreaModel struct {
	// GateAreaUM2 is the area of one gate-equivalent in µm²
	// (~0.3 µm²/GE in a 16nm process including wiring overhead).
	GateAreaUM2 float64
	// SRAMBitUM2 is the area of one on-die SRAM bit including
	// peripherals.
	SRAMBitUM2 float64
	// FPLaneGE is the gate count of one FP multiplier + adder-chain
	// lane.
	FPLaneGE float64
	// SorterCellGE is the gate count of one merge-tree sorter cell
	// (full-key comparator + steering).
	SorterCellGE float64
	// ComparatorBitGE is the per-bit cost of a pre-sorter comparator.
	ComparatorBitGE float64
	// ControlGE is fixed control/NoC overhead per merge core.
	ControlGE float64
}

// Area16nm returns coefficients CALIBRATED so the TS_ASIC design point's
// computation core lands on the fabricated 7.5 mm².
func Area16nm() AreaModel {
	return AreaModel{
		GateAreaUM2:     0.3,
		SRAMBitUM2:      0.14,
		FPLaneGE:        60_000,
		SorterCellGE:    2_000,
		ComparatorBitGE: 12,
		ControlGE:       300_000,
	}
}

// AreaBreakdown itemizes the die area in mm².
type AreaBreakdown struct {
	Step1LanesMM2  float64
	SorterCellsMM2 float64
	FIFOSRAMMM2    float64
	PreSorterMM2   float64
	ControlMM2     float64
}

// Total returns the summed core area.
func (a AreaBreakdown) Total() float64 {
	return a.Step1LanesMM2 + a.SorterCellsMM2 + a.FIFOSRAMMM2 + a.PreSorterMM2 + a.ControlMM2
}

func (a AreaBreakdown) String() string {
	return fmt.Sprintf("area{lanes=%.2f sorters=%.2f fifos=%.2f presort=%.2f ctl=%.2f total=%.2f mm2}",
		a.Step1LanesMM2, a.SorterCellsMM2, a.FIFOSRAMMM2, a.PreSorterMM2, a.ControlMM2, a.Total())
}

// CoreArea estimates the computation-core die area of a design point.
func (m AreaModel) CoreArea(d DesignPoint) (AreaBreakdown, error) {
	var br AreaBreakdown
	ge2mm2 := m.GateAreaUM2 / 1e6

	// Step-1 FP lanes.
	br.Step1LanesMM2 = float64(d.Lanes) * m.FPLaneGE * ge2mm2

	// Merge-tree sorter cells: the SRAM-packed activated-path design
	// (Fig. 6) shares ONE sorter cell per tree stage — per cycle only a
	// single path is active — so each core needs log2(K)+1 cells, not
	// K-1. This sharing is what makes a 2048-way tree feasible.
	cells := float64(d.MergeCores) * float64(log2i(d.Ways)+1)
	br.SorterCellsMM2 = cells * m.SorterCellGE * ge2mm2

	// Pipeline FIFO SRAM: 2K-1 FIFOs per core, 4 records deep, packed.
	fifoBits := float64(d.MergeCores) * float64(2*d.Ways-1) * 4 * 16 * 8
	br.FIFOSRAMMM2 = fifoBits * m.SRAMBitUM2 / 1e6

	// Radix pre-sorter: bitonic network of width p comparing
	// q + log2(p) bits per comparator.
	ps, err := bitonic.NewPreSorter(d.MergeCores, uint(log2i(d.MergeCores)))
	if err != nil {
		return br, err
	}
	compBits := float64(ps.Comparators()) * float64(ps.ComparatorBits())
	br.PreSorterMM2 = compBits * m.ComparatorBitGE * ge2mm2

	// Per-core control and interconnect.
	br.ControlMM2 = float64(d.MergeCores) * m.ControlGE * ge2mm2
	return br, nil
}

func log2i(v int) int {
	l := 0
	for v > 1 {
		l++
		v >>= 1
	}
	return l
}
