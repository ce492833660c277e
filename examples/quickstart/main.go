// Quickstart: run Two-Step SpMV on a synthetic sparse graph through the
// accelerator model, validate the result against a dense reference, and
// inspect the off-chip traffic ledger.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mwmerge"
)

func main() {
	// A 200K-node, average-degree-3 Erdős–Rényi graph — the "highly
	// sparse, no locality" regime the accelerator targets.
	a, err := mwmerge.ErdosRenyi(200_000, 3, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Graph: %d nodes, %d edges (avg degree %.2f)\n",
		a.Rows, a.NNZ(), a.AvgDegree())

	// The engine with default (TS_ASIC-shaped) configuration.
	eng, err := mwmerge.NewEngine(mwmerge.DefaultEngineConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A random source vector.
	rng := rand.New(rand.NewSource(7))
	x := mwmerge.NewDense(int(a.Cols))
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	// y = A·x through the Two-Step datapath: step-1 partial SpMV per
	// column stripe, step-2 PRaP multi-way merge.
	y, err := eng.SpMV(a, x, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Validate against the dense reference.
	want, err := mwmerge.ReferenceSpMV(a, x, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Max |error| vs dense reference: %.3g\n", y.MaxAbsDiff(want))

	// The traffic ledger the paper's evaluation is built on: all
	// streaming, zero cache-line wastage.
	st := eng.Stats()
	fmt.Printf("Stripes: %d, intermediate records: %d, injected keys: %d\n",
		st.Stripes, st.IntermediateRecords, st.MergeInjected)
	fmt.Printf("Off-chip traffic: %v\n", eng.Traffic())
}
