package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mwmerge/internal/bitonic"
	"mwmerge/internal/core"
	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/merge"
	"mwmerge/internal/prap"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
	"mwmerge/internal/vldi"
)

// Layer timings taken from outside: each layer's public functions are
// called alone, warm, on the workload's real data. Because they run in
// isolation their sum need not equal the in-context Recorder lanes.

// layerRun is the shared state of one pass over the layers.
type layerRun struct {
	b    *bench
	root int // the enclosing "layers" span
}

// time repeats fn inside spans named name until the deadline (at least
// minReps times) and returns the milliseconds of each repetition. prep,
// when non-nil, runs untimed before every repetition.
func (l layerRun) time(name string, deadline time.Time, minReps int, prep, fn func()) []float64 {
	return repeatUntil(deadline, minReps, func(int) float64 {
		if prep != nil {
			prep()
		}
		id := l.b.tr.begin(name, l.root, l.b.tr.newOp())
		start := time.Now()
		fn()
		d := time.Since(start)
		l.b.tr.end(id)
		return ms(d)
	})
}

// referenceStep1 is the benchmark's own step 1: per stripe, multiply
// each nonzero by its x element and fold consecutive products of one
// row, which leaves every list sorted by row. It produces the
// intermediate lists the vldi, bitonic, merge and prap layers are
// measured on, without touching the engine.
func referenceStep1(stripes []*matrix.Stripe, x vector.Dense) [][]types.Record {
	lists := make([][]types.Record, len(stripes))
	for k, s := range stripes {
		seg := x[s.ColStart : s.ColStart+s.Width]
		recs := make([]types.Record, 0, s.NNZ())
		for _, e := range s.Entries {
			p := e.Val * seg[e.Col]
			if n := len(recs); n > 0 && recs[n-1].Key == e.Row {
				recs[n-1].Val += p
			} else {
				recs = append(recs, types.Record{Key: e.Row, Val: p})
			}
		}
		lists[k] = recs
	}
	return lists
}

// hashRecords fingerprints a record stream, keys and value bits.
func hashRecords(h uint64, recs []types.Record) uint64 {
	for _, r := range recs {
		h = (h ^ r.Key) * fnvPrime
		h = (h ^ math.Float64bits(r.Val)) * fnvPrime
	}
	return h
}

// measureLayers records the matrix, hdn, vldi, bitonic, merge and prap
// metrics plus core.spmv_stripes_ms. The time up to the deadline is
// split evenly over the layers.
func (b *bench) measureLayers(deadline time.Time) error {
	in, res := b.in, b.res
	l := layerRun{b: b, root: b.tr.begin("layers", -1, b.tr.newOp())}
	defer b.tr.end(l.root)
	const groups = 7
	slice := time.Until(deadline) / groups
	if slice < 0 {
		slice = 0
	}
	next := func() time.Time { return time.Now().Add(slice) }

	// matrix: the 1D partition every plan starts with, and the CSR
	// conversion the host baselines pay.
	width := in.cfg.SegmentWidth()
	var stripes []*matrix.Stripe
	var err error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if stripes, err = matrix.Partition1D(in.a, width); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	res.value("matrix.partition1d_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	res.value("matrix.stripes", float64(len(stripes)))
	half := time.Now().Add(slice / 2)
	part := l.time("matrix.Partition1D", half, 3, nil, func() { _, err = matrix.Partition1D(in.a, width) })
	res.samples("matrix.partition1d_ms", part)
	res.value("matrix.partition1d_ns_per_nnz", median(part)*1e6/float64(in.a.NNZ()))
	res.samples("matrix.to_csr_ms", l.time("matrix.ToCSR", time.Now().Add(slice/2), 3, nil, func() { matrix.ToCSR(in.a) }))

	// hdn: detector build (row-degree scan + Bloom filter) and routing.
	var det *hdn.Detector
	res.samples("hdn.build_ms", l.time("hdn.Build", next(), 3, nil, func() { det, err = hdn.Build(in.a, hdnConfig()) }))
	if err != nil {
		return err
	}
	res.value("hdn.routed_records", float64(det.Route(in.a).HDNRecords))
	res.value("hdn.filter_kb", float64(det.SizeBytes())/1024)

	// core.SpMVStripes: the engine on pre-built stripes, i.e. a warm
	// SpMV with planning taken out from the caller's side.
	eng, err := core.New(in.cfg)
	if err != nil {
		return err
	}
	if _, err := eng.SpMVStripes(stripes, in.a.Rows, in.a.Cols, in.x, nil); err != nil {
		return err
	}
	var y vector.Dense
	res.samples("core.spmv_stripes_ms", l.time("core.SpMVStripes", next(), 3, nil, func() {
		y, err = eng.SpMVStripes(stripes, in.a.Rows, in.a.Cols, in.x, nil)
	}))
	b.check("spmv", 1, err, y, b.spmvOracle(in.x))

	lists := referenceStep1(stripes, in.x)
	var total int
	for _, recs := range lists {
		total += len(recs)
	}
	if total == 0 {
		return fmt.Errorf("workload produced no intermediate records")
	}
	b.measureVLDI(l, lists, total, next())
	b.measureBitonic(l, lists, total, next())
	b.measureMergeKernels(l, lists, total, next())
	return b.measurePRaP(l, lists, total, next())
}

// measureVLDI times the block-8 codec on the key deltas of the
// intermediate lists: encode, decode, the streaming sizer, and the
// in-place round trip step 1 makes per stripe.
func (b *bench) measureVLDI(l layerRun, lists [][]types.Record, total int, deadline time.Time) {
	res := b.res
	codec, err := vldi.NewCodec(8)
	if err != nil {
		res.op(false, "vldi: %v", err)
		return
	}
	deltas := make([]uint64, 0, total)
	keys := make([]uint64, 0, total)
	for _, recs := range lists {
		keys = keys[:0]
		for _, r := range recs {
			keys = append(keys, r.Key)
		}
		d, err := vldi.DeltasFromKeys(keys)
		if err != nil {
			res.op(false, "vldi: %v", err)
			return
		}
		deltas = append(deltas, d...)
	}
	quarter := time.Until(deadline) / 4
	perDelta := func(samples []float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = s * 1e6 / float64(total)
		}
		return out
	}
	var enc vldi.EncodedDeltas
	res.samples("vldi.encode_ns_per_delta", perDelta(l.time("vldi.EncodeDeltas", time.Now().Add(quarter), 3, nil, func() { enc = codec.EncodeDeltas(deltas) })))
	var dec []uint64
	res.samples("vldi.decode_ns_per_delta", perDelta(l.time("vldi.DecodeDeltas", time.Now().Add(quarter), 3, nil, func() { dec, err = codec.DecodeDeltas(enc) })))
	same := err == nil && len(dec) == len(deltas)
	for i := 0; same && i < len(dec); i++ {
		same = dec[i] == deltas[i]
	}
	res.op(same, "vldi: decode(encode(deltas)) differs from deltas (%v)", err)
	var size uint64
	res.samples("vldi.size_ns_per_delta", perDelta(l.time("vldi.SizeDeltas", time.Now().Add(quarter), 3, nil, func() { size = codec.SizeDeltas(deltas) })))
	res.op(size == enc.Bytes(), "vldi: sizer says %d bytes, encoder wrote %d", size, enc.Bytes())
	res.value("vldi.bits_per_delta", float64(enc.Bits)/float64(total))
	var bw vldi.BitWriter
	res.samples("vldi.roundtrip_ns_per_rec", perDelta(l.time("vldi.RoundTripRecords", time.Now().Add(quarter), 3, nil, func() {
		for _, recs := range lists {
			if e := codec.RoundTripRecords(recs, &bw); e != nil {
				err = e
			}
		}
	})))
	res.op(err == nil, "vldi: round trip: %v", err)
}

// paddingKey is the reserved all-ones key the router pads a partial
// pre-sort batch with (prap's invalidKey).
const paddingKey = ^uint64(0)

// measureBitonic times the radix pre-sorter (width 16, q 4) on batches
// cut from the intermediate records.
func (b *bench) measureBitonic(l layerRun, lists [][]types.Record, total int, deadline time.Time) {
	res := b.res
	const width = 16
	sorter, err := bitonic.NewPreSorter(width, 4)
	if err != nil {
		res.op(false, "bitonic: %v", err)
		return
	}
	res.value("bitonic.comparators", float64(sorter.Comparators()))
	all := make([]types.Record, 0, total+width)
	for _, recs := range lists {
		all = append(all, recs...)
	}
	for len(all)%width != 0 { // pad the last batch like the router does
		all = append(all, types.Record{Key: paddingKey})
	}
	work := make([]types.Record, len(all))
	var buf bitonic.SortBuf
	samples := l.time("bitonic.SortWith", deadline, 3, func() { copy(work, all) }, func() {
		for off := 0; off < len(work); off += width {
			if e := sorter.SortWith(&buf, work[off:off+width]); e != nil {
				err = e
			}
		}
	})
	sorted := err == nil
	for off := 0; sorted && off < len(work); off += width {
		for i := off + 1; i < off+width; i++ {
			if work[i-1].Radix(4) > work[i].Radix(4) {
				sorted = false
			}
		}
	}
	res.op(sorted, "bitonic: a batch left SortWith out of radix order (%v)", err)
	for i := range samples {
		samples[i] *= 1e6 / float64(len(work))
	}
	res.samples("bitonic.sortwith_ns_per_rec", samples)
}

// measureMergeKernels times the three K-way merge-accumulate kernels on
// the workload's lists, one residue class of the low four key bits at a
// time, exactly the shape a PRaP merge core receives.
func (b *bench) measureMergeKernels(l layerRun, lists [][]types.Record, total int, deadline time.Time) {
	res := b.res
	const q = 4
	slots := make([][][]types.Record, 1<<q) // slots[residue][list], order-preserving
	ways := 0
	for r := range slots {
		slots[r] = make([][]types.Record, len(lists))
	}
	for li, recs := range lists {
		if len(recs) > 0 {
			ways++
		}
		for _, rec := range recs {
			r := rec.Radix(q)
			slots[r][li] = append(slots[r][li], rec)
		}
	}
	res.value("merge.ways", float64(ways))

	var lt merge.Workspace
	var mp merge.MergePathWorkspace
	var dst []types.Record
	var out int
	var h uint64
	kernels := []struct {
		metric string
		run    func(class [][]types.Record)
	}{
		{"merge.losertree_ns_per_rec", func(class [][]types.Record) {
			dst = lt.MergeAccumulateInto(dst, class)
			out += len(dst)
			h = hashRecords(h, dst)
		}},
		{"merge.mergepath_ns_per_rec", func(class [][]types.Record) {
			dst = mp.MergeAccumulateInto(dst, class)
			out += len(dst)
			h = hashRecords(h, dst)
		}},
		{"merge.heap_ns_per_rec", func(class [][]types.Record) {
			srcs := make([]merge.Source, len(class))
			for i, recs := range class {
				srcs[i] = merge.NewSliceSource(recs)
			}
			acc := merge.NewAccumulator(merge.NewMerged(srcs))
			dst = dst[:0]
			for rec, ok := acc.Next(); ok; rec, ok = acc.Next() {
				dst = append(dst, rec)
			}
			out += len(dst)
			h = hashRecords(h, dst)
		}},
	}
	third := time.Until(deadline) / time.Duration(len(kernels))
	var firstHash uint64
	for i, k := range kernels {
		k := k
		samples := l.time(k.metric, time.Now().Add(third), 3, func() { out, h = 0, fnvOffset }, func() {
			for _, class := range slots {
				k.run(class)
			}
		})
		for j := range samples {
			samples[j] *= 1e6 / float64(total)
		}
		res.samples(k.metric, samples)
		if i == 0 {
			firstHash = h
			res.hash("merge.accumulate", h)
			res.value("merge.accumulate_ratio", float64(out)/float64(total))
		}
		res.op(h == firstHash, "%s: merged records differ from the loser tree's", k.metric)
	}
}

// measurePRaP times Network.MergeInto on the intermediate lists under
// the workload's merge configuration and under each drain, the other
// kernel and a single merge worker.
func (b *bench) measurePRaP(l layerRun, lists [][]types.Record, total int, deadline time.Time) error {
	in, res := b.in, b.res
	dim := in.a.Rows
	out := vector.NewDense(int(dim))
	variants := []struct {
		metric string
		mut    func(c *prap.Config)
	}{
		{"prap.merge_into_ms", func(*prap.Config) {}},
		{"prap.merge_into_dense_ms", func(c *prap.Config) { c.Drain = prap.DrainDense }},
		{"prap.merge_into_sparse_ms", func(c *prap.Config) { c.Drain = prap.DrainSparse }},
		{"prap.merge_into_mergepath_ms", func(c *prap.Config) { c.Kernel = prap.KernelMergePath }},
		{"", func(c *prap.Config) { c.MergeWorkers = 1 }}, // only feeds the speedup ratio
	}
	share := time.Until(deadline) / time.Duration(len(variants))
	medians := make([]float64, len(variants))
	for i, v := range variants {
		cfg := in.cfg.Merge
		v.mut(&cfg)
		net, err := prap.New(cfg)
		if err != nil {
			return err
		}
		var st prap.Stats
		if st, err = net.MergeInto(lists, dim, nil, out, 0, nil); err != nil {
			return err
		}
		name := "prap.MergeInto/" + v.metric
		samples := l.time(name, time.Now().Add(share), 3, nil, func() { st, err = net.MergeInto(lists, dim, nil, out, 0, nil) })
		// The merged lists are the reference step 1's, so the result has
		// to be the engine's SpMV bit for bit.
		b.check("spmv", 1, err, out, b.spmvOracle(in.x))
		medians[i] = median(samples)
		if v.metric != "" {
			res.samples(v.metric, samples)
		}
		if i == 0 {
			res.value("prap.merge_into_ns_per_rec", medians[0]*1e6/float64(total))
			res.value("prap.load_imbalance", st.LoadImbalance())
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err = net.MergeInto(lists, dim, nil, out, 0, nil)
			runtime.ReadMemStats(&m1)
			res.op(err == nil, "prap.MergeInto: %v", err)
			res.value("prap.merge_into_allocs", float64(m1.Mallocs-m0.Mallocs))
		}
	}
	res.value("prap.merge_workers_speedup", medians[len(medians)-1]/medians[0])
	return nil
}
