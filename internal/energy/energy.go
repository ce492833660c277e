// Package energy models the accelerator's energy consumption: core
// dynamic + leakage power (the fabricated ASIC reports 3.01 W dynamic,
// 0.10 W leakage — paper Fig. 2), scratchpad access energy, and DRAM
// transfer energy. Everything reduces to the paper's efficiency metric,
// energy per traversed edge (nJ/edge, Figs. 19-22).
package energy

import (
	"fmt"

	"mwmerge/internal/mem"
)

// Model holds the power/energy parameters of one compute platform.
type Model struct {
	// Name identifies the platform.
	Name string
	// CoreDynamicW and CoreLeakageW are the compute-fabric power draws.
	CoreDynamicW, CoreLeakageW float64
	// ScratchpadW is the on-chip memory power (eDRAM/BRAM).
	ScratchpadW float64
	// DRAMPJPerByte is the main-memory transfer energy.
	DRAMPJPerByte float64
}

// ASIC16nm returns the fabricated ASIC's model: 3.11 W total core power at
// 1.4 GHz plus an eDRAM scratchpad estimate and HBM access energy.
func ASIC16nm() Model {
	return Model{
		Name:          "16nm ASIC",
		CoreDynamicW:  3.01,
		CoreLeakageW:  0.10,
		ScratchpadW:   0.9, // 11 MiB eDRAM active power (Destiny-class estimate)
		DRAMPJPerByte: 7.0, // HBM2-class ~0.9 pJ/bit
	}
}

// FPGA returns a Stratix-10 estimate: higher static power, same HBM.
func FPGA() Model {
	return Model{
		Name:          "Stratix 10 FPGA",
		CoreDynamicW:  18.0,
		CoreLeakageW:  7.0,
		ScratchpadW:   2.0,
		DRAMPJPerByte: 7.0,
	}
}

// CPU returns a dual-socket Xeon E5-2620 class model (22nm, 12 threads).
func CPU() Model {
	return Model{
		Name:          "Xeon E5 dual socket",
		CoreDynamicW:  130.0,
		CoreLeakageW:  30.0,
		ScratchpadW:   0,
		DRAMPJPerByte: 20.0, // DDR3/4 access energy
	}
}

// XeonPhi returns a Xeon Phi 5110P class model (60 cores, 225 W TDP).
func XeonPhi() Model {
	return Model{
		Name:          "Xeon Phi 5110P",
		CoreDynamicW:  190.0,
		CoreLeakageW:  35.0,
		ScratchpadW:   0,
		DRAMPJPerByte: 12.0, // GDDR5
	}
}

// GPUCluster returns the 8-node Tesla M2050 cluster of the paper's GPU
// benchmark (Rungsawang & Manaskasemsak).
func GPUCluster() Model {
	return Model{
		Name:          "8x Tesla M2050 cluster",
		CoreDynamicW:  8 * (225 + 120), // GPU TDP + host share per node
		CoreLeakageW:  0,
		ScratchpadW:   0,
		DRAMPJPerByte: 15.0,
	}
}

// TotalPowerW returns the platform's compute power draw.
func (m Model) TotalPowerW() float64 {
	return m.CoreDynamicW + m.CoreLeakageW + m.ScratchpadW
}

// Energy returns total joules for an execution of the given duration
// moving the given off-chip traffic.
func (m Model) Energy(t mem.Traffic, seconds float64) float64 {
	if seconds < 0 {
		seconds = 0
	}
	dram := float64(t.Total()) * m.DRAMPJPerByte * 1e-12
	return m.TotalPowerW()*seconds + dram
}

// NJPerEdge converts a run's energy to the paper's efficiency metric.
func (m Model) NJPerEdge(t mem.Traffic, seconds float64, edges uint64) (float64, error) {
	if edges == 0 {
		return 0, fmt.Errorf("energy: edge count must be positive")
	}
	return m.Energy(t, seconds) * 1e9 / float64(edges), nil
}
