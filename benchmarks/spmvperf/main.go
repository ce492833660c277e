// Command spmvperf is the repository's benchmark. It generates a
// workload's inputs from a seed, runs the library entry points and the
// serving daemon on them for a fixed time, checks every output against
// an oracle, and prints every metric by name with its unit, sample
// count, median and quartiles, followed by one machine-readable JSON
// line. An untraced run (-trace 0) yields the end-to-end metrics; a
// traced run (-trace 1) attaches the engine's Recorder, wraps every call
// into a layer in a span, and yields the per-layer metrics. BENCHMARK.json
// at the root of the repository describes both sets; see README.md in
// this directory's parent for how to run and compare.
//
//	bash benchmarks/run.sh --workload er_merge --seed 1 --seconds 20 --trace 0
//	bash benchmarks/run.sh --workload all --out A.json
//	bash benchmarks/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// resultLine is the last line of standard output, the contract with
// the driver.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spmvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "all", "workload to run: er_merge, zipf_step1, hyper_dim, serve_rmat, or all")
		seed         = fs.Int64("seed", 1, "seed every input is generated from")
		seconds      = fs.Float64("seconds", runSeconds, "measuring time per workload, after input generation and set-up")
		traced       = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out          = fs.String("out", "", "append the full report (quartiles, hashes, host) to this JSON file")
		traceOut     = fs.String("trace-out", "", "where a traced run writes its spans (default benchmarks/out/spans-<workload>.json)")
		compare      = fs.Bool("compare", false, "compare two -out files given as arguments instead of running")
		printSchema  = fs.Bool("schema", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSchema:
		data, _ := json.MarshalIndent(benchmarkSchema(), "", "  ")
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "spmvperf: -compare needs two report files")
			return 2
		}
		good, err := compareReports(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "spmvperf:", err)
			return 1
		}
		if !good {
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "spmvperf: -seconds must be positive, -trace 0 or 1, and no arguments may follow the flags")
		return 2
	}
	selected := workloads
	if *workloadName != "all" {
		w, ok := lookupWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "spmvperf: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{w}
	}

	host := readHostInfo()
	fmt.Fprintln(stdout, host)
	code := 0
	var results []*runResult
	for _, w := range selected {
		opt := options{seed: *seed, seconds: *seconds, traced: *traced == 1}
		if opt.traced {
			opt.traceOut = *traceOut
			if opt.traceOut == "" {
				opt.traceOut = filepath.Join("benchmarks", "out", "spans-"+w.name+".json")
			}
		}
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(stderr, "spmvperf: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, res)
		res.print(stdout)
		if res.Failed > 0 {
			code = 1
		}
		line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]lineMetric)}
		for name, m := range res.Metrics {
			line.Metrics[name] = lineMetric{Value: m.Median, Unit: m.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "spmvperf: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if *out != "" {
		if err := appendReport(*out, host, results); err != nil {
			fmt.Fprintln(stderr, "spmvperf:", err)
			return 1
		}
	}
	return code
}
