// PageRank on a power-law graph: the iterative-SpMV workload of the
// paper's §5.2-§5.3. Demonstrates Iteration-overlapped Two-Step (ITS),
// which removes the y→x DRAM round trip between iterations, the
// Bloom-filter High-Degree-Node pipeline for the graph's hubs, and the
// observability run report (DESIGN.md §8) capturing the whole run.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"mwmerge"
	"mwmerge/internal/hdn"
)

func main() {
	// A 50K-node power-law graph: few hubs own a large share of edges.
	a, err := mwmerge.Zipf(50_000, 12, 1.8, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Graph: %d nodes, %d edges, max degree %d\n",
		a.Rows, a.NNZ(), a.MaxDegree())

	// Enable the HDN pipeline: nodes above degree 500 route to the
	// dedicated accumulator, detected by a one-memory-access Bloom
	// filter. A run recorder collects span lanes and per-iteration
	// ledger snapshots; it costs nothing when left nil.
	rec := mwmerge.NewRunRecorder()
	cfg := mwmerge.DefaultEngineConfig()
	h := hdn.DefaultConfig()
	h.Threshold = 500
	cfg.HDN = &h
	cfg.Recorder = rec
	eng, err := mwmerge.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ranks, iters, err := eng.PageRank(a, 0.85, 1e-9, 200, true /* ITS overlap */)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PageRank converged in %d iterations\n", iters)

	st := eng.Stats()
	fmt.Printf("HDN pipeline handled %d of %d products (filter: %d bytes, %d false-routed)\n",
		st.HDNRecords, st.Products, st.HDNFilterBytes, st.HDNFalseRouted)

	// Top-5 ranked nodes.
	type nodeRank struct {
		node int
		rank float64
	}
	top := make([]nodeRank, len(ranks))
	for i, r := range ranks {
		top[i] = nodeRank{i, r}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
	fmt.Println("Top ranked nodes:")
	for _, nr := range top[:5] {
		fmt.Printf("  node %6d  rank %.6f\n", nr.node, nr.rank)
	}

	// The run report: per-iteration traffic and the ITS overlap windows,
	// written as a JSON document plus an ASCII Gantt of the span lanes.
	rep := rec.Build(mwmerge.ReportMeta{
		Workload: "examples/pagerank",
		Rows:     a.Rows, Cols: a.Cols, NNZ: uint64(a.NNZ()),
		Overlap: true,
	})
	fmt.Printf("\nRun report: %d iterations, %d span lanes, %s of traffic\n",
		len(rep.Iterations), len(rep.Lanes), fmt.Sprintf("%.1f MiB", float64(rep.Totals.Traffic.Total())/(1<<20)))
	if err := rep.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := rec.Gantt(os.Stdout, 64); err != nil {
		log.Fatal(err)
	}
}
