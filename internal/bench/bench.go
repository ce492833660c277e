// Package bench regenerates every table and figure of the paper's
// evaluation. Each experiment is a named runner that prints the same rows
// or series the paper reports; cmd/spmvbench dispatches to them and
// bench_test.go wraps each in a testing.B benchmark. Full-scale series use
// the analytic models; *-functional experiments run the real datapath on
// scaled-down instances.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mwmerge/internal/report"
)

// Options tunes experiment execution.
type Options struct {
	// Scale caps the node count of functional (materialized) runs.
	Scale uint64
	// Seed drives all synthetic generation.
	Seed int64
	// Recorder, when non-nil, is attached to every functional engine the
	// experiment builds, collecting the observability run report
	// (DESIGN.md §8). Analytic-model experiments build no engines and
	// record nothing.
	Recorder *report.Recorder
}

// DefaultOptions returns sizes suitable for a laptop-scale run.
func DefaultOptions() Options { return Options{Scale: 1 << 17, Seed: 1} }

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, opt Options) error
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "Fig 2: fabricated ASIC specifications from the calibrated models", Run: RunFig2},
		{ID: "fig4", Title: "Fig 4: off-chip traffic, latency-bound vs Two-Step (1B nodes, deg 3)", Run: RunFig4},
		{ID: "fig13", Title: "Fig 13: delta-index width distribution and optimal VLDI block", Run: RunFig13},
		{ID: "fig14", Title: "Fig 14: off-chip traffic reduction using VLDI vs precision", Run: RunFig14},
		{ID: "tab1", Title: "Table 1: on-chip memory vs max graph dimension", Run: RunTable1},
		{ID: "tab2", Title: "Table 2: design points, max nodes and sustained throughput", Run: RunTable2},
		{ID: "tab3", Title: "Table 3: custom hardware and GPU benchmarks", Run: RunTable3},
		{ID: "tab4", Title: "Table 4: graphs vs custom benchmarks", Run: RunTable4},
		{ID: "tab5", Title: "Table 5: graphs vs GPU benchmark", Run: RunTable5},
		{ID: "tab6", Title: "Table 6: graphs vs CPU and co-processor", Run: RunTable6},
		{ID: "fig17", Title: "Fig 17: GTEPS, proposed ASIC vs custom hardware", Run: RunFig17},
		{ID: "fig18", Title: "Fig 18: GTEPS, proposed FPGA vs custom hardware", Run: RunFig18},
		{ID: "fig19", Title: "Fig 19: GTEPS and nJ/edge, ASIC vs GPU", Run: RunFig19},
		{ID: "fig20", Title: "Fig 20: GTEPS and nJ/edge, FPGA vs GPU", Run: RunFig20},
		{ID: "fig21", Title: "Fig 21: GTEPS and nJ/edge, ASIC vs CPU/Xeon Phi", Run: RunFig21},
		{ID: "fig22", Title: "Fig 22: GTEPS and nJ/edge, FPGA vs CPU/Xeon Phi", Run: RunFig22},
		{ID: "ablation-prefetch", Title: "Ablation §4.1: prefetch buffer, partitioning vs PRaP", Run: RunAblationPrefetch},
		{ID: "ablation-mergeways", Title: "Ablation §3.2: single MC cycle behaviour vs ways", Run: RunAblationMergeWays},
		{ID: "ablation-prap", Title: "Ablation §4.2: PRaP scaling vs radix width", Run: RunAblationPRaP},
		{ID: "ablation-hdn", Title: "Ablation §5.3: Bloom HDN detection on power-law graphs", Run: RunAblationHDN},
		{ID: "ablation-its", Title: "Ablation §5.2: cycle-simulated ITS overlap vs sequential schedule", Run: RunAblationITS},
		{ID: "ablation-vldi", Title: "Ablation §5.1: measured VLDI block-width sweep on a real graph", Run: RunAblationVLDIMeasured},
		{ID: "mc-scaling", Title: "§2.2/§4.2: merge cores needed to saturate HBM generations", Run: RunMCScaling},
		{ID: "onchip-sweep", Title: "§6 scaling: vector buffer vs max dimension; FIFO SRAM packing", Run: RunOnChipSweep},
		{ID: "rowbuffer", Title: "§2.1: row-buffer hit rates, Two-Step streams vs latency-bound gathers", Run: RunRowBuffer},
		{ID: "interface-sweep", Title: "§4.2.1: shared DRAM interface width vs merge-network throughput", Run: RunInterfaceSweep},
		{ID: "capacity-beyond", Title: "Beyond capacity: multi-pass merge degradation past 4.3B nodes", Run: RunCapacityBeyond},
		{ID: "stack-scaling", Title: "§3: GTEPS vs HBM stack count (multi-stack scalability)", Run: RunStackScaling},
		{ID: "skew-model", Title: "Model refinement: degree-aware intermediate-record estimate vs uniform", Run: RunSkewModel},
		{ID: "designspace", Title: "Co-design: (p, K, lanes) sweep under the 7.5 mm2 / 11 MiB budget", Run: RunDesignSpace},
		{ID: "host-baseline", Title: "Grounding: measured host-CPU SpMV vs modeled COTS and accelerator", Run: RunHostBaseline},
		{ID: "functional", Title: "Functional cross-check: Two-Step vs reference on scaled datasets", Run: RunFunctional},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have: %s)", id, strings.Join(ids, ", "))
}

// table is a minimal fixed-width text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(widths))
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, r := range t.rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}

func fmtGB(bytes uint64) string {
	return fmt.Sprintf("%.2f", float64(bytes)/1e9)
}
