package main

import (
	"runtime"
	"sync"
	"time"

	"mwmerge/internal/core"
	"mwmerge/internal/matrix"
	"mwmerge/internal/vector"
)

// Host baselines: what a plain shared-memory SpMV does with the same
// matrix and the same x on this machine. They follow the baseline set of
// Bergmans et al. (PAPERS.md) — serial CSR, row-parallel CSR, merge-based
// CSR — and exist so the engine's numbers stand next to an honest
// reference, not only next to its own previous kernel.

// csrSerial computes y = A·x over CSR on one goroutine.
func csrSerial(m *matrix.CSR, x, y vector.Dense) {
	csrRows(m, x, y, 0, int(m.Rows))
}

// csrRows computes rows [lo, hi) of y = A·x.
func csrRows(m *matrix.CSR, x, y vector.Dense, lo, hi int) {
	for r := lo; r < hi; r++ {
		sum := 0.0
		for j := m.RowPtr[r]; j < m.RowPtr[r+1]; j++ {
			sum += m.Vals[j] * x[m.ColIdx[j]]
		}
		y[r] = sum
	}
}

// csrRowParallel computes y = A·x with the rows cut into one contiguous,
// equally long block per goroutine — the static row split whose load
// imbalance on skewed matrices merge-based SpMV removes.
func csrRowParallel(m *matrix.CSR, x, y vector.Dense, threads int) {
	rows := int(m.Rows)
	per := (rows + threads - 1) / threads
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += per {
		hi := lo + per
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			csrRows(m, x, y, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// mergePathSearch returns how many row ends (i) and nonzeros (j) lie
// before diagonal d of the merge of the row-end offsets with the
// natural numbers 0..nnz-1, i + j = d.
func mergePathSearch(d int, rowEnd []uint64, nnz int) (i, j int) {
	lo, hi := d-nnz, d
	if lo < 0 {
		lo = 0
	}
	if hi > len(rowEnd) {
		hi = len(rowEnd)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if rowEnd[mid] <= uint64(d-mid-1) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, d - lo
}

// csrMergeBased is Merrill and Garland's merge-based SpMV (SNIPPETS.md):
// the rows + nnz items of the merge path are split evenly over the
// goroutines, so a share is the same amount of work whether it holds
// many short rows or part of one long one. A goroutine whose share ends
// inside a row hands its partial sum to a serial fix-up.
func csrMergeBased(m *matrix.CSR, x, y vector.Dense, threads int) {
	rowEnd := m.RowPtr[1:]
	rows, nnz := len(rowEnd), len(m.Vals)
	total := rows + nnz
	per := (total + threads - 1) / threads
	carryRow := make([]int, threads)
	carryVal := make([]float64, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			d0, d1 := t*per, (t+1)*per
			if d0 > total {
				d0 = total
			}
			if d1 > total {
				d1 = total
			}
			i, j := mergePathSearch(d0, rowEnd, nnz)
			iEnd, jEnd := mergePathSearch(d1, rowEnd, nnz)
			sum := 0.0
			for ; i < iEnd; i++ {
				for ; j < int(rowEnd[i]); j++ {
					sum += m.Vals[j] * x[m.ColIdx[j]]
				}
				y[i] = sum
				sum = 0
			}
			for ; j < jEnd; j++ {
				sum += m.Vals[j] * x[m.ColIdx[j]]
			}
			carryRow[t], carryVal[t] = iEnd, sum
		}(t)
	}
	wg.Wait()
	for t := 0; t < threads-1; t++ {
		if carryRow[t] < rows {
			y[carryRow[t]] += carryVal[t]
		}
	}
}

// measureBaselines times the reference and the three CSR baselines on
// the workload's matrix and x, checks each against the reference, and
// records the baseline.* metrics that need no engine number.
func (b *bench) measureBaselines(deadline time.Time) error {
	res, tr, in := b.res, b.tr, b.in
	root := tr.begin("baseline", -1, tr.newOp())
	defer tr.end(root)

	ref, err := core.ReferenceSpMV(in.a, in.x, nil)
	if err != nil {
		return err
	}
	csr := matrix.ToCSR(in.a)
	threads := runtime.GOMAXPROCS(0)
	y := vector.NewDense(int(in.a.Rows))

	kernels := []struct {
		metric string
		run    func()
	}{
		{"baseline.reference_ms", func() { y, _ = core.ReferenceSpMV(in.a, in.x, nil) }},
		{"baseline.csr_ms", func() { csrSerial(csr, in.x, y) }},
		{"baseline.csr_par_ms", func() { csrRowParallel(csr, in.x, y, threads) }},
		{"baseline.mergecsr_ms", func() { csrMergeBased(csr, in.x, y, threads) }},
	}
	share := time.Until(deadline) / time.Duration(len(kernels))
	for _, k := range kernels {
		k := k
		samples := repeatUntil(time.Now().Add(share), 5, func(rep int) float64 {
			id := tr.begin(k.metric, root, tr.newOp())
			start := time.Now()
			k.run()
			d := time.Since(start)
			tr.end(id)
			if rep == 0 {
				res.op(closeTo(y, ref), "%s differs from ReferenceSpMV by %g", k.metric, y.MaxAbsDiff(ref))
			}
			return ms(d)
		})
		res.samples(k.metric, samples)
	}
	return nil
}
