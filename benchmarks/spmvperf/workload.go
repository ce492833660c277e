package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mwmerge"
	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// shrink divides every workload's node count. It is 1 in every real
// run; only the self-test raises it, to finish inside the unit-test
// budget, and it is deliberately not a flag.
var shrink uint64 = 1

// rmatScale is the serving fixture's RMAT scale (131 K rows).
const rmatScale = 17

// workload is one regime: how its matrix is generated from the seed and
// which engine configuration the library half runs it with.
type workload struct {
	name   string
	gen    func(seed int64) (*matrix.COO, error)
	config func() (core.Config, error)
}

// shrunkScale lowers an RMAT scale by log2(shrink).
func shrunkScale(scale uint) uint {
	for s := shrink; s > 1; s >>= 1 {
		scale--
	}
	return scale
}

func defaultConfig() (core.Config, error) { return mwmerge.DefaultEngineConfig(), nil }

// fullFeatureConfig is the paper's ITS_VC feature set as `make report`
// runs it: VLDI(8) on vectors and matrix, HDN routing at degree 500, and
// two step-1 workers.
func fullFeatureConfig() (core.Config, error) {
	cfg := mwmerge.DefaultEngineConfig()
	codec, err := mwmerge.NewVLDICodec(8)
	if err != nil {
		return cfg, err
	}
	cfg.VectorCodec, cfg.MatrixCodec = codec, codec
	h := hdnConfig()
	cfg.HDN = &h
	cfg.Workers = 2
	return cfg, nil
}

// hdnConfig is the HDN detector every workload's hdn.* layer metrics
// are taken with, and the one zipf_step1's engine runs.
func hdnConfig() hdn.Config {
	h := hdn.DefaultConfig()
	h.Threshold = 500
	return h
}

// daemonConfig is the engine configuration spmvd builds from its flag
// defaults (scratch 256 KiB, ways 1024, q 4, workers 1, merge-workers
// 1, losertree, drain auto).
func daemonConfig() core.Config {
	return core.Config{
		ScratchpadBytes: 256 << 10,
		ValueBytes:      8,
		MetaBytes:       8,
		Lanes:           8,
		Merge: prap.Config{Q: 4, Ways: 1024, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16,
			MergeWorkers: 1, Kernel: prap.KernelLoserTree, Drain: prap.DrainAuto},
		HBM:     mem.DefaultHBM(),
		Workers: 1,
	}
}

func genRMAT(seed int64) (*matrix.COO, error) {
	return graph.RMAT(shrunkScale(rmatScale), 8, graph.Graph500Params(), seed)
}

var workloads = []workload{
	{
		name:   "er_merge",
		gen:    func(seed int64) (*matrix.COO, error) { return graph.ErdosRenyi(1_000_000/shrink, 3, seed) },
		config: defaultConfig,
	},
	{
		name:   "zipf_step1",
		gen:    func(seed int64) (*matrix.COO, error) { return graph.Zipf(1_000_000/shrink, 8, 1.8, seed) },
		config: fullFeatureConfig,
	},
	{
		name:   "hyper_dim",
		gen:    func(seed int64) (*matrix.COO, error) { return graph.ErdosRenyi(8_000_000/shrink, 0.125, seed) },
		config: defaultConfig,
	},
	{
		name:   "serve_rmat",
		gen:    genRMAT,
		config: defaultConfig,
	},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything a run derives from the seed before the program
// under test sees anything: the workload's matrix and vectors, and the
// serving fixture with its request vectors.
type inputs struct {
	a        *matrix.COO
	cfg      core.Config
	x        vector.Dense   // SpMV source
	xs4      []vector.Dense // SpMVBlock right-hand sides; xs4[0] is x
	x0       vector.Dense   // Iterate start vector, uniform 1/N
	frontier *vector.Sparse // SpMSpV source

	served        *matrix.COO    // the daemon's resident matrix
	serveXs       []vector.Dense // the distinct /v1/spmv request vectors
	serveFrontier *vector.Sparse // the /v1/spmspv request vector

	generateS float64 // time spent in the graph generators
}

// distinctServeXs is how many different request vectors the load
// generator rotates through.
const distinctServeXs = 8

// randomDense draws a vector of n values uniform in [0.5, 1.5): no
// zeros, so step 1 never drops a product, and no cancellation.
func randomDense(rng *rand.Rand, n uint64) vector.Dense {
	x := vector.NewDense(int(n))
	for i := range x {
		x[i] = 0.5 + rng.Float64()
	}
	return x
}

// randomFrontier draws 1 % of the columns from the first tenth of the
// column range, so about nine in ten segments stay inactive.
func randomFrontier(rng *rand.Rand, cols uint64) (*vector.Sparse, error) {
	span := cols / 10
	if span == 0 {
		span = cols
	}
	want := int(cols / 100)
	if want < 1 {
		want = 1
	}
	seen := make(map[uint64]bool, want)
	keys := make([]uint64, 0, want)
	for len(keys) < want {
		k := rng.Uint64() % span
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	f := vector.NewSparse(int(cols), want)
	for _, k := range keys {
		if err := f.Append(types.Record{Key: k, Val: 0.5 + rng.Float64()}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// makeInputs generates a run's inputs from the seed. The same seed
// gives the same inputs.
func makeInputs(w workload, seed int64) (*inputs, error) {
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	in := &inputs{cfg: cfg}
	start := time.Now()
	if in.a, err = w.gen(seed); err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	if w.name == "serve_rmat" {
		in.served = in.a
	} else if in.served, err = genRMAT(seed); err != nil {
		return nil, fmt.Errorf("generate serving fixture: %w", err)
	}
	in.generateS = time.Since(start).Seconds()

	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < 4; c++ {
		in.xs4 = append(in.xs4, randomDense(rng, in.a.Cols))
	}
	in.x = in.xs4[0]
	in.x0 = vector.NewDense(int(in.a.Cols))
	in.x0.Fill(1 / float64(in.a.Cols))
	if in.frontier, err = randomFrontier(rng, in.a.Cols); err != nil {
		return nil, err
	}
	for i := 0; i < distinctServeXs; i++ {
		in.serveXs = append(in.serveXs, randomDense(rng, in.served.Cols))
	}
	if in.serveFrontier, err = randomFrontier(rng, in.served.Cols); err != nil {
		return nil, err
	}
	return in, nil
}
