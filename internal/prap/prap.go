// Package prap implements the paper's central contribution:
// Parallelization by Radix Pre-sorter (§4.2). Records streamed from DRAM
// are routed stably on the q LSBs of their keys into per-radix slots of a
// shared prefetch buffer; p = 2^q independent Merge Cores each merge only
// the records of their residue class. The hardware routes with a bitonic
// pre-sorter (modelled by internal/bitonic and internal/sim); on the host
// the same stable routing is a two-pass counting scatter, which places
// every record exactly where the pre-sorter would. Because
// the final output is a *dense* vector, missing-key injection makes every
// MC emit exactly one record per key of its class, which hides load
// imbalance and lets a simple store queue interleave the p outputs into
// consecutive dense-vector elements with no extra sorting (§4.2.2).
//
// The decisive property: the prefetch buffer is K×dpage bytes regardless
// of p, whereas the partition-based alternative of §4.1 needs m×K×dpage
// and so cannot scale (mem.HBMConfig.PartitionedPrefetchBytes, which the
// ablation-prefetch experiment tabulates).
package prap

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// invalidKey is the reserved padding key: the hardware pre-sorter (and
// internal/sim, which models it) pads the final, partially filled batch of
// a list with it. The host scatter needs no padding, but the key stays
// reserved and routeLists rejects genuine records carrying it, so host and
// hardware models accept exactly the same inputs.
const invalidKey = ^uint64(0)

// MergeKernel selects the intra-core K-way merge-accumulate
// implementation. Both kernels visit records in the identical
// (key, source index, position) order, so the choice can never change a
// result — only the wall clock (DESIGN.md §12).
type MergeKernel string

const (
	// KernelLoserTree is the tournament-tree kernel (merge.Workspace):
	// one comparison path replayed per record.
	KernelLoserTree MergeKernel = "losertree"
	// KernelMergePath is the default Merge-Path kernel
	// (merge.MergePathWorkspace): diagonal-search partitioning into
	// cache-sized, branch-free pairwise leaf merges.
	KernelMergePath MergeKernel = "mergepath"
)

// DrainMode selects how the store queue drains each merge core's
// residue class into the dense output (DESIGN.md §13). The dense walk
// visits every key of the class and executes the injected zero-add for
// missing keys; the sparse drain visits only the merged records. The
// sparse drain is applied only when it is bit-safe (yIn is nil, or a
// one-pass scan proves every yIn element is unchanged by adding +0.0 —
// a -0.0 element would flip to +0.0 under the dense walk), so the mode
// can never change a result, a ledger, or a statistic.
type DrainMode string

const (
	// DrainAuto picks the sparse drain when it is bit-safe and the
	// routed record count makes it profitable, the dense walk otherwise.
	DrainAuto DrainMode = "auto"
	// DrainDense always walks the full residue class (the hardware
	// store-queue model of §4.2.2).
	DrainDense DrainMode = "dense"
	// DrainSparse requests the record-proportional drain; a yIn that is
	// not bit-safe to skip still falls back to the dense walk.
	DrainSparse DrainMode = "sparse"
)

// Config parameterizes a PRaP merge network.
type Config struct {
	// Q is the radix width; the network instantiates p = 2^Q merge cores.
	Q uint
	// Ways is K, the per-core input list capacity (power of two).
	Ways int
	// FIFODepth is the per-stage FIFO capacity of each merge core.
	FIFODepth int
	// DPage is the DRAM page size for prefetch-buffer accounting.
	DPage uint64
	// RecordBytes is the record width for buffer accounting.
	RecordBytes int
	// MergeWorkers bounds the goroutines step 2 runs. In core's host
	// step 2 (the ordered segment accumulator, DESIGN.md §12) that many
	// workers take contiguous ranges of key blocks; in Network.Merge the
	// radix routing shards over input lists and the p merge cores run
	// one goroutine per residue class, both capped at this bound (the
	// host-side analogue of the MC-level independence of §4.2). 0
	// defaults to runtime.GOMAXPROCS; 1 runs fully sequentially. Every
	// output key is owned by exactly one worker, so the result is
	// bit-identical at any setting — no float reassociation occurs.
	MergeWorkers int
	// Kernel selects the intra-core merge-accumulate implementation of
	// Network.Merge — the hardware model and the oracle step 2 is tested
	// against; core's host step 2 merges nothing and ignores it. Empty
	// defaults to KernelMergePath; results are bit-identical either way.
	Kernel MergeKernel
	// Drain selects Network.Merge's store-queue drain strategy (the
	// hardware model and oracle; core's host step 2 ignores it). Empty
	// defaults to DrainAuto; results are bit-identical at any setting.
	Drain DrainMode
}

// DefaultConfig returns the ASIC step-2 network: 16 MCs (q=4) of 2048
// ways each.
func DefaultConfig() Config {
	return Config{Q: 4, Ways: 2048, FIFODepth: 4, DPage: 2 * types.KiB, RecordBytes: types.RecordBytes}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Q > 16 {
		return fmt.Errorf("prap: radix width %d too large", c.Q)
	}
	if c.Ways < 2 || c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("prap: ways %d not a power of two >= 2", c.Ways)
	}
	if c.FIFODepth < 1 {
		return fmt.Errorf("prap: FIFO depth must be positive")
	}
	if c.DPage == 0 {
		return fmt.Errorf("prap: dpage must be positive")
	}
	if c.MergeWorkers < 0 {
		return fmt.Errorf("prap: merge workers must be non-negative")
	}
	switch c.Kernel {
	case "", KernelLoserTree, KernelMergePath:
	default:
		return fmt.Errorf("prap: unknown merge kernel %q", c.Kernel)
	}
	switch c.Drain {
	case "", DrainAuto, DrainDense, DrainSparse:
	default:
		return fmt.Errorf("prap: unknown drain mode %q", c.Drain)
	}
	return nil
}

// kernel resolves the configured merge kernel, defaulting to Merge Path.
func (c Config) kernel() MergeKernel {
	if c.Kernel == "" {
		return KernelMergePath
	}
	return c.Kernel
}

// drain resolves the configured drain mode, defaulting to auto.
func (c Config) drain() DrainMode {
	if c.Drain == "" {
		return DrainAuto
	}
	return c.Drain
}

// Cores returns p = 2^Q.
func (c Config) Cores() int { return 1 << c.Q }

// workers resolves the effective goroutine bound for n independent work
// items: MergeWorkers (GOMAXPROCS when 0) capped at n.
func (c Config) workers(n int) int {
	w := c.MergeWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach runs fn(i) for every i in [0, n) across at most w goroutines;
// w <= 1 runs inline. Callers guarantee fn touches only i-indexed
// state, so the parallel schedule cannot perturb results.
func forEach(w, n int, fn func(i int)) {
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// PrefetchBufferBytes returns the shared prefetch buffer size, K×dpage —
// independent of the core count (the PRaP scaling property).
func (c Config) PrefetchBufferBytes() uint64 {
	return uint64(c.Ways) * c.DPage
}

// Stats describes one PRaP merge run.
type Stats struct {
	PerCoreInput   []uint64 // records routed to each MC (load imbalance)
	PerCoreOutput  []uint64 // records emitted by each MC incl. injections
	Injected       uint64   // missing keys injected across all MCs
	Emitted        uint64   // dense elements streamed out by the store queue
	PresortBatches uint64   // p-record batches the hardware pre-sorter would take: Σ ⌈len/p⌉ per list
}

// Clone returns a deep copy of s, per-core slices included, so callers
// can snapshot accumulating statistics without aliasing later updates.
func (s Stats) Clone() Stats {
	c := s
	c.PerCoreInput = append([]uint64(nil), s.PerCoreInput...)
	c.PerCoreOutput = append([]uint64(nil), s.PerCoreOutput...)
	return c
}

// Accumulate adds o into s, growing the per-core slices if needed, so
// engine-level statistics can aggregate merge runs across calls.
func (s *Stats) Accumulate(o Stats) {
	s.PerCoreInput = addCounts(s.PerCoreInput, o.PerCoreInput)
	s.PerCoreOutput = addCounts(s.PerCoreOutput, o.PerCoreOutput)
	s.Injected += o.Injected
	s.Emitted += o.Emitted
	s.PresortBatches += o.PresortBatches
}

func addCounts(dst, src []uint64) []uint64 {
	if len(dst) < len(src) {
		// Grow-once per-core counters; the steady state accumulates into already-sized slices.
		grown := make([]uint64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Network is a PRaP step-2 merge network instance.
type Network struct {
	cfg     Config
	scratch mergeScratch
}

// New builds a PRaP network.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{cfg: cfg}, nil
}

// routeOutcome is one list's share of the routing: its per-core record
// counts (pass 1), its write cursors into the core arenas (pass 2), and
// its rejection. Each list owns its outcome, so both parallel passes stay
// side-effect free and the stats merge is deterministic in list order.
type routeOutcome struct {
	perCore []uint64
	cursor  []int
	err     error
}

// countList is routing pass 1 for list li: it histograms the list's
// records by radix (mask = p-1) and rejects a genuine record carrying the
// reserved padding key rather than silently routing it.
func countList(li int, list []types.Record, mask uint64, out *routeOutcome) {
	for i, rec := range list {
		if rec.Key == invalidKey {
			out.err = fmt.Errorf("prap: list %d record %d carries the reserved padding key %#x", li, i, invalidKey)
			return
		}
		out.perCore[rec.Key&mask]++
	}
}

// scatterList is routing pass 2: it writes each record of one list at
// that list's cursor in its core's arena, in arrival order. The cursors
// start at the list's offset inside each arena, so distinct lists write
// disjoint ranges and concurrent scatters never share an element.
func scatterList(list []types.Record, mask uint64, cores []coreScratch, cursor []int) {
	for _, rec := range list {
		r := rec.Key & mask
		cores[r].routed[cursor[r]] = rec
		cursor[r]++
	}
}

// routeLists distributes every input list into per-(radix, list) slots,
// exactly as the prefetch buffer of Fig. 10 is organized, by a stable
// counting scatter: pass 1 counts each list's records per radix, a
// sequential prefix step gives each merge core one exactly sized arena
// with a per-list offset, and pass 2 writes every record at its list's
// cursor. Slot [r][li] is therefore list li's radix-r records in arrival
// order — the same (key, list index, position) order the hardware's
// stable bitonic pre-sorter delivers (TestRouteMatchesPreSorter) — so
// each slot stays key-sorted. Both passes shard lists across
// MergeWorkers goroutines on the presort lane; stats merge in list
// order. Slots are views into the arenas, so routing never grows a slot.
func (n *Network) routeLists(lists [][]types.Record, st *Stats, scr *mergeScratch) ([][][]types.Record, error) {
	p := n.cfg.Cores()
	mask := uint64(p - 1)
	w := n.cfg.workers(len(lists))
	outcomes := scr.outcomesFor(len(lists), p)
	forEach(w, len(lists), func(li int) {
		countList(li, lists[li], mask, &outcomes[li])
	})
	for li, out := range outcomes {
		if out.err != nil {
			return nil, out.err
		}
		st.PresortBatches += uint64((len(lists[li]) + p - 1) / p)
	}
	slots := scr.slotsFor(p, len(lists)) // slots[radix][list]
	cores := scr.coresFor(p)
	for r := range cores {
		total := 0
		for _, out := range outcomes {
			total += int(out.perCore[r])
		}
		st.PerCoreInput[r] += uint64(total)
		arena := resized(cores[r].routed, total)
		cores[r].routed = arena
		off := 0
		for li, out := range outcomes {
			end := off + int(out.perCore[r])
			out.cursor[r] = off
			slots[r][li] = arena[off:end:end]
			off = end
		}
	}
	forEach(w, len(lists), func(li int) {
		scatterList(lists[li], mask, cores, outcomes[li].cursor)
	})
	return slots, nil
}

// Merge merges the sorted input lists into a dense vector of the given
// dimension, adding yIn when non-nil (the +y of y = Ax + y). Input lists
// must each be sorted by strictly-or-equal ascending key; duplicate keys
// across or within lists are accumulated. The number of lists must not
// exceed cfg.Ways. With MergeWorkers != 1 the routing and the merge
// cores run concurrently; the output is bit-identical to the sequential
// path at any worker count.
func (n *Network) Merge(lists [][]types.Record, dim uint64, yIn vector.Dense) (vector.Dense, Stats, error) {
	st := n.newStats()
	if err := n.validateMerge(lists, dim, yIn); err != nil {
		return nil, st, err
	}
	out := vector.NewDense(int(dim))
	scr, release := n.acquire()
	defer release()
	if err := n.mergeInto(lists, dim, yIn, out, &st, nil, scr); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// MergeInto merges exactly as Merge but into the caller-provided dense
// vector out (overwritten; its length must equal dim) and optionally
// streams segment completions: with a non-nil publish and a positive
// segWidth, the store queue invokes publish(s) exactly once per
// segWidth-wide key segment, in strictly ascending segment order, as
// soon as every merge core has drained past it. A published segment's
// elements are final — all writes to out[s*segWidth : (s+1)*segWidth]
// happen before publish(s) is entered. This is the hook the ITS
// pipeline (core) uses to hand finished x-segments of iteration i+1's
// source vector to its step 1 while this step 2 is still draining
// higher keys. publish may block (a bounded handoff); blocking only
// stalls the drain, never reorders it, so results stay bit-identical at
// any MergeWorkers setting.
func (n *Network) MergeInto(lists [][]types.Record, dim uint64, yIn, out vector.Dense, segWidth uint64, publish func(seg int)) (Stats, error) {
	st := n.newStats()
	if err := n.validateMerge(lists, dim, yIn); err != nil {
		return st, err
	}
	if uint64(len(out)) != dim {
		return st, fmt.Errorf("prap: out dimension %d != %d", len(out), dim)
	}
	if publish != nil && segWidth == 0 {
		return st, fmt.Errorf("prap: segment publishing needs a positive segment width")
	}
	scr, release := n.acquire()
	defer release()
	var plan *segmentPlan
	if publish != nil {
		plan = scr.planFor(dim, segWidth, n.cfg.Cores(), publish)
	}
	return st, n.mergeInto(lists, dim, yIn, out, &st, plan, scr)
}

// newStats returns a Stats with per-core slices sized for this network.
func (n *Network) newStats() Stats {
	p := n.cfg.Cores()
	return Stats{PerCoreInput: make([]uint64, p), PerCoreOutput: make([]uint64, p)}
}

// validateMerge checks the shared merge preconditions.
func (n *Network) validateMerge(lists [][]types.Record, dim uint64, yIn vector.Dense) error {
	if len(lists) > n.cfg.Ways {
		return fmt.Errorf("prap: %d lists exceed %d ways", len(lists), n.cfg.Ways)
	}
	if yIn != nil && uint64(len(yIn)) != dim {
		return fmt.Errorf("prap: yIn dimension %d != %d", len(yIn), dim)
	}
	if dim == invalidKey {
		return fmt.Errorf("prap: dimension too large")
	}
	return nil
}

// mergeInto routes the lists and drains the merge cores into out. This
// is the one place goroutines write the shared dense result: each core
// owns one residue class of keys, so no two goroutines touch an element
// and the per-element sums keep one order. `go test -race` over the
// MergeWorkers rows of the prap and core tests detects any other writer.
func (n *Network) mergeInto(lists [][]types.Record, dim uint64, yIn, out vector.Dense, st *Stats, plan *segmentPlan, scr *mergeScratch) error {
	p := n.cfg.Cores()
	slots, err := n.routeLists(lists, st, scr)
	if err != nil {
		return err
	}

	// Each MC merge-accumulates its residue class, then the store queue
	// drains it into out. The dense walk visits the full key sequence
	// {r, r+p, r+2p, ...} — the missing-key injection of Fig. 11 fused
	// with the drain, so injected records add 0.0 to out[key] without
	// ever being materialized (the add still executes: skipping it would
	// turn a -0.0 element into +0.0 and break bit-identity with the
	// reference). When skipping those zero-adds is provably bit-safe,
	// the sparse drain instead touches only the merged records, making
	// the drain cost proportional to the output nonzeros (DESIGN.md
	// §13); sparseDrainOK decides per call. Either way no two cores
	// touch the same output element and each element receives exactly
	// one effective float64 add, so running the cores on MergeWorkers
	// goroutines is bit-identical to the sequential drain.
	sparse := n.sparseDrainOK(dim, yIn, st)
	if yIn != nil {
		copy(out, yIn)
	} else {
		out.Fill(0)
	}
	injected, emitted := scr.countersFor(p)
	cores := scr.coresFor(p)
	kernel := n.cfg.kernel()
	forEach(n.cfg.workers(p), p, func(r int) {
		cs := &cores[r]
		// Kernel dispatch cannot perturb results: both kernels emit the
		// same (key, source index) sequence, so float accumulation order
		// is identical (proven bitwise in TestMergeKernelBitIdentity and
		// FuzzMergeKernels).
		if kernel == KernelMergePath {
			cs.merged = cs.mp.MergeAccumulateInto(cs.merged, slots[r])
		} else {
			cs.merged = cs.ws.MergeAccumulateInto(cs.merged, slots[r])
		}
		// nKeys is the size of core r's residue class below dim — the
		// dense walk's trip count, and both drains' Emitted charge.
		nKeys := uint64(0)
		if dim > uint64(r) {
			nKeys = (dim - uint64(r) + uint64(p) - 1) / uint64(p)
		}
		done := 0
		if sparse {
			// Sparse drain: only merged records are visited. Segment
			// credits move with the record keys (still ascending), and
			// creditRest flushes the all-injected tail, so publish(s)
			// keeps its happens-before edge from every write into
			// segment s and still fires in ascending segment order.
			matched := uint64(0)
			for _, rec := range cs.merged {
				if rec.Key >= dim {
					break
				}
				if plan != nil {
					plan.credit(&done, rec.Key)
				}
				out[rec.Key] += rec.Val
				matched++
			}
			injected[r] = nKeys - matched
			emitted[r] = nKeys
		} else {
			i := 0
			for key := uint64(r); key < dim; key += uint64(p) {
				var val float64
				if i < len(cs.merged) && cs.merged[i].Key == key {
					val = cs.merged[i].Val
					i++
				} else {
					injected[r]++
				}
				if plan != nil {
					plan.credit(&done, key)
				}
				out[key] += val
				emitted[r]++
			}
		}
		st.PerCoreOutput[r] = emitted[r]
		if plan != nil {
			plan.creditRest(&done)
		}
	})
	for r := 0; r < p; r++ {
		st.Injected += injected[r]
		st.Emitted += emitted[r]
	}
	return nil
}

// sparseDrainOK decides, per merge call, whether the store queue may
// drain only the merged records instead of walking every key of each
// residue class. Two conditions gate it (DESIGN.md §13):
//
//   - Bit-safety: skipping a missing key skips its injected `+= 0.0`,
//     which is only invisible when the element it would have landed on
//     is unchanged by adding +0.0. negZeroSafe proves that for the
//     whole yIn in one read pass (yIn == nil is trivially safe: the
//     drain starts from +0.0). A dirty yIn forces the dense walk even
//     under DrainSparse — the mode requests a strategy, never a
//     different result.
//   - Profitability (DrainAuto only): the routed record count must be
//     at most half the output dimension, so the records the sparse
//     drain visits are guaranteed fewer than the keys the dense walk
//     would. DrainSparse skips this check for benchmarking.
//
// The decision consumes only the already-collected routing stats, so it
// costs one scan of yIn at most and never perturbs results, ledgers, or
// merge statistics.
func (n *Network) sparseDrainOK(dim uint64, yIn vector.Dense, st *Stats) bool {
	mode := n.cfg.drain()
	if mode == DrainDense {
		return false
	}
	if mode == DrainAuto {
		var routed uint64
		for _, c := range st.PerCoreInput {
			routed += c
		}
		if 2*routed > dim {
			return false
		}
	}
	return negZeroSafe(yIn)
}

// negZeroSafe reports whether every element of y is bitwise unchanged
// by adding +0.0 — exactly the property the sparse drain needs, since
// it skips the injected zero-add the dense walk would execute on y's
// copy. -0.0 fails (-0.0 + 0.0 = +0.0 flips the sign bit); signaling
// NaN payloads that quiet under arithmetic fail likewise. A nil y is
// safe: the output starts from +0.0, and +0.0 + 0.0 is bitwise +0.0.
func negZeroSafe(y vector.Dense) bool {
	for _, v := range y {
		if math.Float64bits(v+0) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// segmentPlan is the segment-granular store queue: a per-segment
// countdown, initialized to the core count, that each merge core
// decrements once when its drain passes the segment's upper key
// boundary. The core that takes a countdown to zero fires publish.
// Because every core drains its residue class in ascending key order,
// countdowns complete in ascending segment order, and the fetch-add
// chain gives publish(s) a happens-before edge from every write any
// core made into segment s. The plan header and pending array live in
// the run's arena (mergeScratch.planFor); a run owns them until its
// drain completes, so recycling cannot race a live publish.
type segmentPlan struct {
	width   uint64
	segs    int
	pending []int32 // cores yet to drain past each segment
	publish func(seg int)
}

// credit marks, for the calling core, every segment that lies entirely
// below key as drained; *done tracks the core's crediting watermark so
// each segment is credited exactly once per core.
func (q *segmentPlan) credit(done *int, key uint64) {
	for *done < q.segs && uint64(*done+1)*q.width <= key {
		if atomic.AddInt32(&q.pending[*done], -1) == 0 {
			q.publish(*done)
		}
		*done++
	}
}

// creditRest credits every segment the core has not credited yet — the
// end-of-stream flush covering segments with no keys in the core's
// residue class (and the final, partially filled segment).
func (q *segmentPlan) creditRest(done *int) {
	q.credit(done, uint64(q.segs)*q.width)
}

// InjectMissingKeys densifies an ascending record stream over the residue
// class {radix, radix+p, radix+2p, ...} below dim, inserting zero-valued
// records for absent keys (paper Fig. 11). It returns the dense stream and
// the injection count.
func InjectMissingKeys(in []types.Record, radix, p, dim uint64) ([]types.Record, uint64) {
	if p == 0 || radix >= p {
		return nil, 0
	}
	count := uint64(0)
	if dim > radix {
		count = (dim - radix + p - 1) / p
	}
	out := make([]types.Record, 0, count)
	var injected uint64
	i := 0
	for key := radix; key < dim; key += p {
		if i < len(in) && in[i].Key == key {
			out = append(out, in[i])
			i++
			continue
		}
		out = append(out, types.Record{Key: key, Val: 0})
		injected++
	}
	return out, injected
}

// LoadImbalance returns max/mean per-core input records, the imbalance
// that missing-key injection hides at the output.
func (s Stats) LoadImbalance() float64 {
	if len(s.PerCoreInput) == 0 {
		return 0
	}
	var sum, max uint64
	for _, v := range s.PerCoreInput {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.PerCoreInput))
	return float64(max) / mean
}
