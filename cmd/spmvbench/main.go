// Command spmvbench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	spmvbench -list
//	spmvbench -exp fig17
//	spmvbench -exp all -scale 65536 -seed 7
//	spmvbench -exp functional -report out/   # + out/functional.report.json, .gantt.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"mwmerge/internal/bench"
	"mwmerge/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spmvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment ID (see -list) or 'all'")
		list       = fs.Bool("list", false, "list available experiments")
		scale      = fs.Uint64("scale", 1<<17, "node cap for functional (materialized) runs")
		seed       = fs.Int64("seed", 1, "random seed for synthetic workloads")
		outDir     = fs.String("o", "", "also write each experiment's output to <dir>/<id>.txt")
		reportDir  = fs.String("report", "", "write per-experiment run reports to <dir>/<id>.report.json and <dir>/<id>.gantt.txt")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to FILE")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "spmvbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "spmvbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	opt := bench.Options{Scale: *scale, Seed: *seed}
	for _, dir := range []string{*outDir, *reportDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(stderr, "spmvbench:", err)
				return 1
			}
		}
	}
	runExp := func(e bench.Experiment) error {
		fmt.Fprintf(stdout, "=== %s: %s ===\n", e.ID, e.Title)
		w := stdout
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(filepath.Join(*outDir, e.ID+".txt"))
			if err != nil {
				return err
			}
			defer f.Close()
			w = io.MultiWriter(stdout, f)
		}
		expOpt := opt
		if *reportDir != "" {
			// A fresh recorder per experiment keeps each report's wall
			// clock and iteration list scoped to that experiment alone.
			expOpt.Recorder = report.NewRecorder()
		}
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		if err := e.Run(w, expOpt); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		if expOpt.Recorder != nil {
			alloc := allocDelta(msBefore, msAfter)
			if err := writeReports(*reportDir, e.ID, expOpt.Recorder, alloc); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		fmt.Fprintln(stdout)
		return nil
	}

	code := 0
	if *exp == "all" {
		for _, e := range bench.Registry() {
			if err := runExp(e); err != nil {
				fmt.Fprintln(stderr, "spmvbench:", err)
				code = 1
				break
			}
		}
	} else {
		e, err := bench.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(stderr, "spmvbench:", err)
			return 2
		}
		if err := runExp(e); err != nil {
			fmt.Fprintln(stderr, "spmvbench:", err)
			code = 1
		}
	}

	if code == 0 && *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, "spmvbench:", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "spmvbench:", err)
			return 1
		}
	}
	return code
}

// allocDelta reduces two MemStats snapshots to the report's host
// allocation fields: malloc count and bytes allocated between them. The
// counters are monotone, so the subtraction cannot underflow.
type hostAlloc struct {
	allocs, bytes uint64
}

func allocDelta(before, after runtime.MemStats) hostAlloc {
	return hostAlloc{
		allocs: after.Mallocs - before.Mallocs,
		bytes:  after.TotalAlloc - before.TotalAlloc,
	}
}

// writeReports renders one experiment's recorder as <dir>/<id>.report.json
// and <dir>/<id>.gantt.txt. Analytic-only experiments build no engines, so
// their reports are legitimately empty. The host allocation deltas
// measured around the run land in the report's meta block.
func writeReports(dir, id string, rec *report.Recorder, alloc hostAlloc) error {
	rep := rec.Build(report.Meta{
		Workload:       "spmvbench -exp " + id,
		HostAllocs:     alloc.allocs,
		HostAllocBytes: alloc.bytes,
	})
	jf, err := os.Create(filepath.Join(dir, id+".report.json"))
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	gf, err := os.Create(filepath.Join(dir, id+".gantt.txt"))
	if err != nil {
		return err
	}
	if err := rec.Gantt(gf, 64); err != nil {
		gf.Close()
		return err
	}
	return gf.Close()
}
