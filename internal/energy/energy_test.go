package energy

import (
	"math"
	"testing"

	"mwmerge/internal/mem"
)

func TestASICPowerMatchesFabricatedChip(t *testing.T) {
	m := ASIC16nm()
	// Paper Fig. 2: 3.01 W dynamic + 0.10 W leakage = 3.11 W core.
	if m.CoreDynamicW+m.CoreLeakageW != 3.11 {
		t.Errorf("core power %g, want 3.11", m.CoreDynamicW+m.CoreLeakageW)
	}
	if m.TotalPowerW() <= 3.11 {
		t.Error("total power must include the scratchpad")
	}
}

func TestEnergyComposition(t *testing.T) {
	m := Model{CoreDynamicW: 2, CoreLeakageW: 1, ScratchpadW: 1, DRAMPJPerByte: 10}
	tr := mem.Traffic{MatrixBytes: 1e9}
	// 1 s at 4 W + 1 GB at 10 pJ/B = 4 + 0.01 J.
	got := m.Energy(tr, 1.0)
	if math.Abs(got-4.01) > 1e-9 {
		t.Errorf("Energy = %g, want 4.01", got)
	}
	// Negative time clamps to zero.
	if got := m.Energy(tr, -5); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("negative-time energy = %g", got)
	}
}

func TestNJPerEdge(t *testing.T) {
	m := ASIC16nm()
	tr := mem.Traffic{MatrixBytes: 100e6}
	nj, err := m.NJPerEdge(tr, 1e-3, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	// (4.01 W x 1 ms + 100 MB x 7 pJ/B) / 10M edges
	want := (m.TotalPowerW()*1e-3 + 100e6*7e-12) * 1e9 / 10e6
	if math.Abs(nj-want) > 1e-9 {
		t.Errorf("NJPerEdge = %g, want %g", nj, want)
	}
	if _, err := m.NJPerEdge(tr, 1, 0); err == nil {
		t.Error("zero edges accepted")
	}
}

func TestPlatformOrdering(t *testing.T) {
	// The efficiency story of Figs. 19-22 requires the platform power
	// ordering ASIC < FPGA < CPU-class < GPU cluster.
	asic, fpga, cpu, phi, gpu := ASIC16nm(), FPGA(), CPU(), XeonPhi(), GPUCluster()
	if !(asic.TotalPowerW() < fpga.TotalPowerW() &&
		fpga.TotalPowerW() < cpu.TotalPowerW() &&
		cpu.TotalPowerW() < gpu.TotalPowerW()) {
		t.Errorf("power ordering violated: %g %g %g %g",
			asic.TotalPowerW(), fpga.TotalPowerW(), cpu.TotalPowerW(), gpu.TotalPowerW())
	}
	if phi.TotalPowerW() < cpu.TotalPowerW() {
		t.Error("Xeon Phi should draw at least CPU power")
	}
}
