package core

import (
	"fmt"

	"mwmerge/internal/matrix"
	"mwmerge/internal/vector"
)

// SpMVStripes computes y = A·x + yIn directly from a prebuilt stripe
// layout (e.g. matrix.Partition1D at the engine's segment width),
// skipping the in-memory COO partition. The stripes must be exactly the
// engine's segment width (except the last), contiguous from column 0 —
// the layout the accelerator keeps resident in DRAM.
func (e *Engine) SpMVStripes(stripes []*matrix.Stripe, rows, cols uint64, x, yIn vector.Dense) (vector.Dense, error) {
	if err := e.cfg.checkOperands(rows, cols, uint64(len(x)), yIn); err != nil {
		return nil, err
	}
	if len(stripes) > e.cfg.Merge.Ways {
		return nil, fmt.Errorf("core: %d stripes exceed %d merge ways", len(stripes), e.cfg.Merge.Ways)
	}
	width := e.cfg.SegmentWidth()
	var covered uint64
	for k, s := range stripes {
		if s.ColStart != covered {
			return nil, fmt.Errorf("core: stripe %d starts at column %d, want %d", k, s.ColStart, covered)
		}
		if s.Width == 0 || (s.Width != width && k != len(stripes)-1) {
			return nil, fmt.Errorf("core: stripe %d width %d != segment width %d", k, s.Width, width)
		}
		if s.Rows != rows {
			return nil, fmt.Errorf("core: stripe %d row dimension %d != %d", k, s.Rows, rows)
		}
		covered += s.Width
	}
	if covered != cols {
		return nil, fmt.Errorf("core: stripes cover %d of %d columns", covered, cols)
	}

	// The layout-streamed path is runPlan at k=1 on a plan built from the
	// prebuilt stripes for this call only: the same Workers fan-out, LPT
	// dispatch, recycled stripe bank, recorder spans and skew statistics
	// as SpMV.
	p, err := e.planStripes(stripes, rows, cols)
	if err != nil {
		return nil, err
	}
	y := vector.NewDense(int(rows))
	defer e.dropCols()
	e.runPlan(p, rows, col(&e.one.x, x), col(&e.one.yIn, yIn), col(&e.one.y, y), nil)
	e.snapshot("stripes")
	return y, nil
}
