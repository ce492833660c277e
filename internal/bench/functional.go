package bench

import (
	"fmt"
	"io"

	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/vldi"
)

// RunFunctional executes the real Two-Step datapath (and its VLDI
// variant) on scaled-down instances of representative datasets and checks
// the result against the dense reference — the end-to-end validation the
// analytic figures rest on.
func RunFunctional(w io.Writer, opt Options) error {
	scale := opt.Scale
	if scale > 1<<17 {
		scale = 1 << 17
	}
	codec, err := vldi.NewCodec(8)
	if err != nil {
		return err
	}
	mkEngine := func(withVLDI bool) (*core.Engine, error) {
		cfg := core.Config{
			ScratchpadBytes: 64 << 10, // 8K-element segments at 8B
			ValueBytes:      8,
			MetaBytes:       8,
			Lanes:           8,
			Merge:           prap.Config{Q: 3, Ways: 256, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16},
			HBM:             mem.DefaultHBM(),
			Recorder:        opt.Recorder,
		}
		if withVLDI {
			cfg.VectorCodec = codec
			cfg.MatrixCodec = codec
		}
		return core.New(cfg)
	}

	t := newTable("Dataset", "Nodes", "Edges", "Max |err|", "Traffic (MB)", "VLDI traffic (MB)", "Meta saved")
	for _, id := range []string{"FR", "TW", "Sy-1B", "road_central", "RMAT"} {
		d, err := graph.Lookup(id)
		if err != nil {
			return err
		}
		m, err := d.Instantiate(scale, opt.Seed)
		if err != nil {
			return err
		}
		x := randomDense(m.Cols, opt.Seed+1)

		eng, err := mkEngine(false)
		if err != nil {
			return err
		}
		got, err := eng.SpMV(m, x, nil)
		if err != nil {
			return err
		}
		want, err := core.ReferenceSpMV(m, x, nil)
		if err != nil {
			return err
		}
		diff := got.MaxAbsDiff(want)

		engVC, err := mkEngine(true)
		if err != nil {
			return err
		}
		gotVC, err := engVC.SpMV(m, x, nil)
		if err != nil {
			return err
		}
		if d := gotVC.MaxAbsDiff(want); d > diff {
			diff = d
		}
		st := engVC.Stats()
		saved := "-"
		if st.VecUncompressedBytes > 0 {
			saved = fmt.Sprintf("%.0f%%", 100*(1-float64(st.VecCompressedBytes)/float64(st.VecUncompressedBytes)))
		}
		t.add(id,
			fmt.Sprintf("%d", m.Rows),
			fmt.Sprintf("%d", m.NNZ()),
			fmt.Sprintf("%.2g", diff),
			fmt.Sprintf("%.2f", float64(eng.Traffic().Total())/1e6),
			fmt.Sprintf("%.2f", float64(engVC.Traffic().Total())/1e6),
			saved)
	}
	return t.write(w)
}
