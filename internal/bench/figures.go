package bench

import (
	"fmt"
	"io"

	"mwmerge/internal/baseline"
	"mwmerge/internal/graph"
	"mwmerge/internal/perfmodel"
)

// statsOf converts a dataset registry entry to model input.
func statsOf(d graph.Dataset) perfmodel.GraphStats {
	return perfmodel.GraphStats{Nodes: d.Nodes(), Edges: d.Edges()}
}

// fmtRes formats a GTEPS cell, blank when the platform cannot run the
// graph (as the paper's figures leave bars out).
func fmtRes(r perfmodel.Result, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f", r.GTEPS)
}

func fmtNJ(r perfmodel.Result, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.2f", r.NJPerEdge)
}

// runGTEPSFigure prints one GTEPS comparison figure: published benchmark
// bars plus the given design points on the given datasets.
func runGTEPSFigure(w io.Writer, sets []graph.Dataset, points []perfmodel.DesignPoint) error {
	header := []string{"Graph", "Benchmark", "Bench GTEPS"}
	for _, p := range points {
		header = append(header, p.ID)
	}
	t := newTable(header...)
	var best, bench []float64
	for _, d := range sets {
		g := statsOf(d)
		pub := baseline.PublishedFor(d.ID)
		pubName, pubVal := "-", "-"
		if len(pub) > 0 {
			pubName = pub[0].Benchmark
			pubVal = fmt.Sprintf("%.2f", pub[0].GTEPS)
		}
		row := []string{d.ID, pubName, pubVal}
		var rowBest float64
		for _, p := range points {
			r, ok := p.EvaluateOrCap(g)
			row = append(row, fmtRes(r, ok))
			if ok && r.GTEPS > rowBest {
				rowBest = r.GTEPS
			}
		}
		t.add(row...)
		if len(pub) > 0 && rowBest > 0 {
			best = append(best, rowBest)
			bench = append(bench, pub[0].GTEPS)
		}
	}
	if err := t.write(w); err != nil {
		return err
	}
	if len(best) > 0 {
		lo, hi := best[0]/bench[0], best[0]/bench[0]
		for i := range best {
			r := best[i] / bench[i]
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		fmt.Fprintf(w, "\nImprovement over published benchmarks: %.0fx - %.0fx\n", lo, hi)
	}
	return nil
}

// RunFig17 reproduces Figure 17: GTEPS of the three ASIC variants against
// the custom hardware benchmarks on the Table 4 graphs (paper: 5x-90x).
func RunFig17(w io.Writer, opt Options) error {
	return runGTEPSFigure(w, graph.Table4, []perfmodel.DesignPoint{
		perfmodel.ASICDesign(perfmodel.TS),
		perfmodel.ASICDesign(perfmodel.ITS),
		perfmodel.ASICDesign(perfmodel.ITSVC),
	})
}

// RunFig18 reproduces Figure 18: GTEPS of the four FPGA variants against
// the custom hardware benchmarks (paper: 3x-60x).
func RunFig18(w io.Writer, opt Options) error {
	return runGTEPSFigure(w, graph.Table4, []perfmodel.DesignPoint{
		perfmodel.FPGA1Design(perfmodel.TS),
		perfmodel.FPGA1Design(perfmodel.ITS),
		perfmodel.FPGA2Design(perfmodel.TS),
		perfmodel.FPGA2Design(perfmodel.ITS),
	})
}

// runGTEPSEnergyFigure prints paired GTEPS and nJ/edge panels, the (a)/(b)
// layout of Figures 19-22.
func runGTEPSEnergyFigure(w io.Writer, sets []graph.Dataset, points []perfmodel.DesignPoint, cots []perfmodel.CPUModelConfig) error {
	header := []string{"Graph"}
	for _, c := range cots {
		header = append(header, c.Name)
	}
	for _, p := range points {
		header = append(header, p.ID)
	}
	gt := newTable(header...)
	et := newTable(header...)
	for _, d := range sets {
		g := statsOf(d)
		grow := []string{d.ID}
		erow := []string{d.ID}
		for _, c := range cots {
			r, ok := c.EvaluateCOTS(g, 8, 8)
			if !ok {
				grow = append(grow, "-")
				erow = append(erow, "-")
				continue
			}
			grow = append(grow, fmt.Sprintf("%.3f", r.GTEPS))
			erow = append(erow, fmt.Sprintf("%.1f", r.NJPerEdge))
		}
		for _, p := range points {
			r, ok := p.EvaluateOrCap(g)
			grow = append(grow, fmtRes(r, ok))
			erow = append(erow, fmtNJ(r, ok))
		}
		gt.add(grow...)
		et.add(erow...)
	}
	fmt.Fprintln(w, "(a) GTEPS")
	if err := gt.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n(b) Energy per edge traversal (nJ)")
	return et.write(w)
}

// RunFig19 reproduces Figure 19: ASIC vs the 8-node GPU cluster on the
// Table 5 graphs (paper: 22x-100x GTEPS, 150x-1000x energy).
func RunFig19(w io.Writer, opt Options) error {
	points := []perfmodel.DesignPoint{
		perfmodel.ASICDesign(perfmodel.TS),
		perfmodel.ASICDesign(perfmodel.ITS),
		perfmodel.ASICDesign(perfmodel.ITSVC),
	}
	if err := runGTEPSEnergyFigure(w, graph.Table5, points, []perfmodel.CPUModelConfig{perfmodel.GPUM2050()}); err != nil {
		return err
	}
	// Published GPU reference values for context.
	fmt.Fprintln(w, "\nPublished BM1_GPU series (digitized):")
	for _, p := range baseline.GPUBenchmark {
		fmt.Fprintf(w, "  %-8s %.2f GTEPS  %.0f nJ/edge\n", p.GraphID, p.GTEPS, p.NJPerEdge)
	}
	return nil
}

// RunFig20 reproduces Figure 20: FPGA vs the GPU cluster (paper: 3x-70x
// GTEPS, 13x-400x energy).
func RunFig20(w io.Writer, opt Options) error {
	points := []perfmodel.DesignPoint{
		perfmodel.FPGA1Design(perfmodel.TS),
		perfmodel.FPGA1Design(perfmodel.ITS),
		perfmodel.FPGA2Design(perfmodel.TS),
		perfmodel.FPGA2Design(perfmodel.ITS),
	}
	return runGTEPSEnergyFigure(w, graph.Table5, points, []perfmodel.CPUModelConfig{perfmodel.GPUM2050()})
}

// RunFig21 reproduces Figure 21: ASIC vs Intel MKL on Xeon E5 and Xeon Phi
// on the Table 6 graphs, in increasing dimension order, including the
// billion-node synthetic graphs only the accelerator can run (paper:
// 16x-800x GTEPS, 170x-1500x energy).
func RunFig21(w io.Writer, opt Options) error {
	points := []perfmodel.DesignPoint{
		perfmodel.ASICDesign(perfmodel.TS),
		perfmodel.ASICDesign(perfmodel.ITS),
		perfmodel.ASICDesign(perfmodel.ITSVC),
	}
	return runGTEPSEnergyFigure(w, graph.Table6, points,
		[]perfmodel.CPUModelConfig{perfmodel.XeonE5(), perfmodel.XeonPhi5110()})
}

// RunFig22 reproduces Figure 22: FPGA vs CPU and co-processor (paper:
// 10x-260x GTEPS, 20x-300x energy).
func RunFig22(w io.Writer, opt Options) error {
	points := []perfmodel.DesignPoint{
		perfmodel.FPGA1Design(perfmodel.TS),
		perfmodel.FPGA1Design(perfmodel.ITS),
		perfmodel.FPGA2Design(perfmodel.TS),
		perfmodel.FPGA2Design(perfmodel.ITS),
	}
	return runGTEPSEnergyFigure(w, graph.Table6, points,
		[]perfmodel.CPUModelConfig{perfmodel.XeonE5(), perfmodel.XeonPhi5110()})
}
