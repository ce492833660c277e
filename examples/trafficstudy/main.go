// Traffic study: quantifies the paper's two central traffic arguments on
// real data. First, Two-Step vs the cache-based latency-bound algorithm
// (Fig. 4): Two-Step carries more payload but eliminates cache-line
// wastage. Second, VLDI meta-data compression across block widths
// (Figs. 12-14): the optimal block width shifts with stripe density.
package main

import (
	"fmt"
	"log"

	"mwmerge"
	"mwmerge/internal/baseline"
	"mwmerge/internal/cache"
	"mwmerge/internal/matrix"
	"mwmerge/internal/vldi"
)

func main() {
	const n = 300_000
	a, err := mwmerge.ErdosRenyi(n, 3, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Graph: %d nodes, %d edges\n\n", a.Rows, a.NNZ())

	// --- Part 1: Two-Step vs latency-bound (cache-simulated). ---
	x := mwmerge.NewDense(n)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	llc, err := cache.New(cache.Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8})
	if err != nil {
		log.Fatal(err)
	}
	lb, err := baseline.LatencyBoundSpMV(matrix.ToCSR(a), x, nil, llc, 8, 8)
	if err != nil {
		log.Fatal(err)
	}
	ts, err := baseline.TrafficTwoStepExact(a, 32_768, 8, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Off-chip traffic (MB):        latency-bound    Two-Step")
	fmt.Printf("  payload                     %9.2f     %9.2f\n",
		mb(lb.Traffic.Payload()), mb(ts.Payload()))
	fmt.Printf("  cache-line wastage          %9.2f     %9.2f\n",
		mb(lb.Traffic.WastageBytes), mb(ts.WastageBytes))
	fmt.Printf("  TOTAL                       %9.2f     %9.2f\n\n",
		mb(lb.Traffic.Total()), mb(ts.Total()))
	fmt.Printf("Cache: %.1f%% miss rate on x/y gathers\n\n", 100*lb.CacheStats.MissRate())

	// --- Part 2: VLDI block-width sweep on real intermediate vectors. ---
	eng, err := mwmerge.NewEngine(mwmerge.DefaultEngineConfig())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.SpMV(a, x, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("VLDI block sweep (matrix meta bytes on this graph):")
	raw := uint64(a.NNZ()) * 8
	for _, b := range []int{2, 4, 6, 8, 12, 16} {
		codec, err := vldi.NewCodec(b)
		if err != nil {
			log.Fatal(err)
		}
		cfg := mwmerge.DefaultEngineConfig()
		cfg.VectorCodec = codec
		cfg.MatrixCodec = codec
		e2, err := mwmerge.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := e2.SpMV(a, x, nil); err != nil {
			log.Fatal(err)
		}
		st := e2.Stats()
		fmt.Printf("  block %2d bits: vector meta %5.1f%%  matrix meta %5.1f%% of %d raw bytes\n",
			b,
			100*float64(st.VecCompressedBytes)/float64(st.VecUncompressedBytes),
			100*float64(st.MatCompressedBytes)/float64(st.MatUncompressedBytes),
			raw)
	}
}

func mb(b uint64) float64 { return float64(b) / 1e6 }
