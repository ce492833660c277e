// Command spmvrun executes Two-Step SpMV on a MatrixMarket file (or a
// generated graph) through the functional accelerator model, validates the
// result against a dense reference, and prints the off-chip traffic ledger
// and execution statistics. With -report/-trace/-prom it also captures the
// observability run report (DESIGN.md §8): per-worker span lanes and
// per-iteration ledger counters rendered as JSON, an ASCII Gantt chart, or
// Prometheus text exposition.
//
// Usage:
//
//	spmvrun -m graph.mtx
//	spmvrun -gen er -nodes 100000 -degree 3 -vldi 8 -hdn 1000
//	spmvrun -gen zipf -nodes 50000 -degree 20 -iters 5 -overlap
//	spmvrun -gen rmat -nodes 65536 -iters 10 -damping 0.85 -report run.json -trace -
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mwmerge"
	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
	"mwmerge/internal/vldi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spmvrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mtx        = fs.String("m", "", "MatrixMarket input file")
		gen        = fs.String("gen", "", "generate instead: er, rmat, zipf")
		nodes      = fs.Uint64("nodes", 100000, "generated node count")
		degree     = fs.Float64("degree", 3, "generated average degree")
		seed       = fs.Int64("seed", 1, "random seed")
		scratchKiB = fs.Uint64("scratch", 256, "scratchpad KiB for the vector segment")
		ways       = fs.Int("ways", 1024, "merge core ways K")
		radix      = fs.Uint("q", 4, "PRaP radix bits (2^q merge cores)")
		vldiBits   = fs.Int("vldi", 0, "VLDI block bits (0 = no compression)")
		hdnThresh  = fs.Uint64("hdn", 0, "HDN degree threshold (0 = disabled)")
		iters      = fs.Int("iters", 1, "SpMV iterations")
		overlap    = fs.Bool("overlap", false, "iteration-overlapped Two-Step (ITS): pipeline each step 2 with the next iteration's step 1 over a bounded segment handoff (halved capacity, bit-identical result)")
		damping    = fs.Float64("damping", 0, "PageRank damping applied after each iteration (0 = plain)")
		reportPath = fs.String("report", "", `write the JSON run report to FILE ("-" = stdout)`)
		tracePath  = fs.String("trace", "", `write the span-lane Gantt chart to FILE ("-" = stdout)`)
		promPath   = fs.String("prom", "", `write Prometheus text-exposition metrics to FILE ("-" = stdout)`)
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to FILE")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *iters < 1 {
		fmt.Fprintf(stderr, "spmvrun: -iters %d: need at least one iteration\n", *iters)
		return 2
	}
	if *vldiBits < 0 {
		fmt.Fprintf(stderr, "spmvrun: -vldi %d: block bits must be 0 (off) or positive\n", *vldiBits)
		return 2
	}
	if *scratchKiB > math.MaxUint64>>10 {
		fmt.Fprintf(stderr, "spmvrun: -scratch %d: more KiB than a 64-bit byte count holds\n", *scratchKiB)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "spmvrun:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "spmvrun:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	m, err := loadMatrix(*mtx, *gen, *nodes, *degree, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "spmvrun:", err)
		return 1
	}
	fmt.Fprintf(stdout, "Matrix: %dx%d, %d nonzeros, avg degree %.2f, hypersparse=%v\n",
		m.Rows, m.Cols, m.NNZ(), m.AvgDegree(), m.Hypersparse())

	var rec *report.Recorder
	if *reportPath != "" || *tracePath != "" || *promPath != "" {
		rec = report.NewRecorder()
	}
	// The library's host config with the flags' overrides.
	cfg := mwmerge.DefaultEngineConfig()
	cfg.ScratchpadBytes = *scratchKiB << 10
	cfg.Merge.Q = *radix
	cfg.Merge.Ways = *ways
	cfg.Recorder = rec
	if *vldiBits > 0 {
		codec, err := vldi.NewCodec(*vldiBits)
		if err != nil {
			fmt.Fprintln(stderr, "spmvrun:", err)
			return 1
		}
		cfg.VectorCodec = codec
		cfg.MatrixCodec = codec
	}
	if *hdnThresh > 0 {
		h := hdn.DefaultConfig()
		h.Threshold = *hdnThresh
		cfg.HDN = &h
	}
	eng, err := core.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "spmvrun:", err)
		return 1
	}

	rng := rand.New(rand.NewSource(*seed + 1))
	x := vector.NewDense(int(m.Cols))
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	var result vector.Dense
	if *iters > 1 || *damping != 0 || *overlap {
		opt := core.IterateOptions{Iterations: *iters, Overlap: *overlap, Damping: *damping}
		res, err := eng.Iterate(m, x, opt)
		if err != nil {
			fmt.Fprintln(stderr, "spmvrun:", err)
			return 1
		}
		result = res.X
		fmt.Fprintf(stdout, "Ran %d iterations (overlap=%v, damping=%g), transition bytes saved: %d\n",
			res.Iterations, *overlap, *damping, res.TransitionBytesSaved)
		// Reference check over the same iteration count and update rule.
		want := x.Clone()
		n := float64(m.Rows)
		for i := 0; i < *iters; i++ {
			want, _ = core.ReferenceSpMV(m, want, nil)
			if *damping != 0 {
				want.Scale(*damping)
				base := (1 - *damping) / n
				for j := range want {
					want[j] += base
				}
			}
		}
		fmt.Fprintf(stdout, "Max |error| vs reference: %.3g\n", result.MaxAbsDiff(want))
	} else {
		y, err := eng.SpMV(m, x, nil)
		if err != nil {
			fmt.Fprintln(stderr, "spmvrun:", err)
			return 1
		}
		result = y
		want, _ := core.ReferenceSpMV(m, x, nil)
		fmt.Fprintf(stdout, "Max |error| vs reference: %.3g\n", result.MaxAbsDiff(want))
	}

	st := eng.Stats()
	tr := eng.Traffic()
	fmt.Fprintf(stdout, "\nStripes: %d   Products: %d   Intermediate records: %d\n",
		st.Stripes, st.Products, st.IntermediateRecords)
	fmt.Fprintf(stdout, "Merge cores: %d   Injected keys: %d   Injected ratio: %.3f\n",
		cfg.Merge.Cores(), st.MergeInjected, st.InjectedRatio())
	if cfg.VectorCodec != nil && st.VecUncompressedBytes > 0 {
		fmt.Fprintf(stdout, "VLDI: vector meta %.1f%% of raw, matrix meta %.1f%% of raw\n",
			100*float64(st.VecCompressedBytes)/float64(st.VecUncompressedBytes),
			100*float64(st.MatCompressedBytes)/float64(st.MatUncompressedBytes))
	}
	if cfg.HDN != nil {
		fmt.Fprintf(stdout, "HDN pipeline: %d records (%d false-routed), filter %d bytes\n",
			st.HDNRecords, st.HDNFalseRouted, st.HDNFilterBytes)
	}
	fmt.Fprintf(stdout, "\nOff-chip traffic: %s\n", tr)
	fmt.Fprintf(stdout, "  payload %s, wastage %s\n", mem.FormatBytes(tr.Payload()), mem.FormatBytes(tr.WastageBytes))

	if rec != nil {
		rep := rec.Build(report.Meta{
			Workload:     "spmvrun " + strings.Join(args, " "),
			Rows:         m.Rows,
			Cols:         m.Cols,
			NNZ:          uint64(m.NNZ()),
			Workers:      cfg.Workers,
			MergeWorkers: cfg.Merge.MergeWorkers,
			MergeCores:   cfg.Merge.Cores(),
			Overlap:      *overlap,
		})
		outputs := []struct {
			path string
			emit func(io.Writer) error
		}{
			{*reportPath, rep.WriteJSON},
			{*promPath, rep.WritePrometheus},
			{*tracePath, func(w io.Writer) error { return rec.Gantt(w, 64) }},
		}
		for _, o := range outputs {
			if o.path == "" {
				continue
			}
			if err := writeTo(o.path, stdout, o.emit); err != nil {
				fmt.Fprintln(stderr, "spmvrun:", err)
				return 1
			}
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, "spmvrun:", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "spmvrun:", err)
			return 1
		}
	}
	return 0
}

// writeTo renders with fn into path, where "-" means the command's
// standard output.
func writeTo(path string, stdout io.Writer, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadMatrix reads the -m file or builds the -gen graph.
func loadMatrix(path, gen string, nodes uint64, degree float64, seed int64) (*matrix.COO, error) {
	switch {
	case path != "":
		return matrix.ReadFile(path)
	case gen != "":
		return graph.Generate(gen, nodes, degree, seed)
	}
	return nil, fmt.Errorf("provide -m FILE or -gen {er,rmat,zipf}")
}
