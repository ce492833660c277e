package bench

import (
	"fmt"
	"io"

	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/mem"
	"mwmerge/internal/merge"
	"mwmerge/internal/perfmodel"
	"mwmerge/internal/prap"
	"mwmerge/internal/sim"
	"mwmerge/internal/vldi"
)

// noTrafficYet seeds traffic minimum searches; no real run can reach it.
// The name keeps it distinct from the merge network's padding sentinel,
// which shares the all-ones bit pattern.
const noTrafficYet = ^uint64(0)

// RunAblationITS exercises the cycle-level simulator on an iterative
// workload and reports the measured ITS-vs-TS schedule speedup (§5.2,
// Fig. 15) plus the eliminated transition traffic.
func RunAblationITS(w io.Writer, opt Options) error {
	dim := opt.Scale
	if dim > 1<<15 {
		dim = 1 << 15
	}
	t := newTable("Avg degree", "Iterations", "TS cycles", "ITS cycles", "Speedup", "Transitions saved (cycles)")
	for _, deg := range []float64{1.5, 3, 8} {
		a, err := graph.ErdosRenyi(dim, deg, opt.Seed)
		if err != nil {
			return err
		}
		machine, err := sim.New(sim.DefaultConfig())
		if err != nil {
			return err
		}
		x := randomDense(a.Cols, opt.Seed+1)
		const iters = 4
		_, rep, err := machine.RunIterative(a, x, iters, 0.85)
		if err != nil {
			return err
		}
		t.add(fmt.Sprintf("%.1f", deg),
			fmt.Sprintf("%d", iters),
			fmt.Sprintf("%d", rep.SequentialCycles),
			fmt.Sprintf("%d", rep.OverlappedCycles),
			fmt.Sprintf("%.2fx", rep.Speedup()),
			fmt.Sprintf("%d", uint64(iters-1)*rep.TransitionCycles))
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nITS hides the shorter phase behind the longer one and removes the y->x DRAM round trip (Fig. 15).")

	// Render one schedule pair as a Gantt chart (deg-3 case).
	a, err := graph.ErdosRenyi(dim, 3, opt.Seed)
	if err != nil {
		return err
	}
	machine, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return err
	}
	_, rep, err := machine.RunIterative(a, randomDense(a.Cols, opt.Seed+1), 4, 0.85)
	if err != nil {
		return err
	}
	tsTL, itsTL, err := sim.Timeline(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nSchedules (1=step1, 2=step2, x=transition):")
	if err := tsTL.Gantt(w, 72); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return itsTL.Gantt(w, 72)
}

// RunAblationVLDIMeasured sweeps VLDI block widths on a materialized
// graph through the real engine, reporting measured meta compression —
// the functional counterpart of Fig. 13's analytic optimum.
func RunAblationVLDIMeasured(w io.Writer, opt Options) error {
	dim := opt.Scale
	if dim > 1<<16 {
		dim = 1 << 16
	}
	a, err := graph.ErdosRenyi(dim, 3, opt.Seed)
	if err != nil {
		return err
	}
	x := randomDense(a.Cols, opt.Seed+2)
	t := newTable("Block bits", "Vector meta vs raw", "Matrix meta vs raw", "Total traffic (MB)")
	bestBlock, bestTraffic := 0, noTrafficYet
	for _, b := range []int{2, 3, 4, 6, 8, 12, 16} {
		codec, err := vldi.NewCodec(b)
		if err != nil {
			return err
		}
		cfg := core.Config{
			ScratchpadBytes: 8 << 10, ValueBytes: 8, MetaBytes: 8, Lanes: 8,
			Merge:       prap.Config{Q: 2, Ways: 128, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16},
			HBM:         mem.DefaultHBM(),
			VectorCodec: codec,
			MatrixCodec: codec,
			Recorder:    opt.Recorder,
		}
		eng, err := core.New(cfg)
		if err != nil {
			return err
		}
		if _, err := eng.SpMV(a, x, nil); err != nil {
			return err
		}
		st := eng.Stats()
		tr := eng.Traffic().Total()
		if tr < bestTraffic {
			bestBlock, bestTraffic = b, tr
		}
		t.add(fmt.Sprintf("%d", b),
			fmt.Sprintf("%.1f%%", 100*float64(st.VecCompressedBytes)/float64(st.VecUncompressedBytes)),
			fmt.Sprintf("%.1f%%", 100*float64(st.MatCompressedBytes)/float64(st.MatUncompressedBytes)),
			fmt.Sprintf("%.2f", float64(tr)/1e6))
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nMeasured optimum on this graph: %d-bit blocks (%.2f MB total traffic).\n",
		bestBlock, float64(bestTraffic)/1e6)
	return nil
}

// RunOnChipSweep reproduces the §6 scaling argument: doubling the source
// vector buffer doubles the maximum dimension (8 MiB → 4B nodes TS,
// 16 MiB → 8B), and the same lever governs the FPGA points.
func RunOnChipSweep(w io.Writer, opt Options) error {
	t := newTable("Vector buffer (MiB)", "TS max nodes (B)", "ITS max nodes (B)", "On-chip total (MiB)")
	for _, mib := range []uint64{4, 8, 16, 32} {
		ts := perfmodel.ASICDesign(perfmodel.TS)
		ts.VectorBufBytes = mib << 20
		its := perfmodel.ASICDesign(perfmodel.ITS)
		its.VectorBufBytes = mib << 20
		t.add(fmt.Sprintf("%d", mib),
			fmt.Sprintf("%.1f", float64(ts.MaxNodes())/1e9),
			fmt.Sprintf("%.1f", float64(its.MaxNodes())/1e9),
			fmt.Sprintf("%.1f", float64(ts.OnChip().Total())/float64(1<<20)))
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nCapacity scales linearly with the vector buffer (§6): 16 MiB reaches 8B nodes.")

	// The merge-network side of the same trade-off: FIFO SRAM packing
	// vs registers across tree widths.
	cost := merge.DefaultFIFOCostModel()
	t2 := newTable("Merge ways K", "Register FIFOs (MGE)", "SRAM-packed (MGE)", "SRAM advantage")
	for _, k := range []int{32, 256, 2048} {
		reg := cost.RegisterFIFOCost(k, 4, 16) / 1e6
		sram := cost.SRAMFIFOCost(k, 4, 16) / 1e6
		t2.add(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.2f", reg),
			fmt.Sprintf("%.2f", sram),
			fmt.Sprintf("%.1fx", cost.SRAMAdvantage(k, 4, 16)))
	}
	fmt.Fprintln(w)
	return t2.write(w)
}
