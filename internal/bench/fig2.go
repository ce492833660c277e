package bench

import (
	"fmt"
	"io"

	"mwmerge/internal/perfmodel"
)

// RunFig2 reproduces the fabricated-ASIC specification table of the
// paper's Fig. 2 from our calibrated models: frequency, die area (with
// the per-block breakdown behind it), and power.
func RunFig2(w io.Writer, opt Options) error {
	d := perfmodel.ASICDesign(perfmodel.TS)
	area, err := perfmodel.Area16nm().CoreArea(d)
	if err != nil {
		return err
	}
	t := newTable("Specification", "Paper (Fig. 2)", "Model")
	t.add("Technology", "16nm FinFET", "16nm coefficients")
	t.add("Frequency", "1.4 GHz", fmt.Sprintf("%.1f GHz", d.FreqHz/1e9))
	t.add("Occupied area", "7.5 mm2", fmt.Sprintf("%.1f mm2", area.Total()))
	t.add("Leakage power", "0.10 W", fmt.Sprintf("%.2f W", d.Energy.CoreLeakageW))
	t.add("Dynamic power", "3.01 W", fmt.Sprintf("%.2f W", d.Energy.CoreDynamicW))
	t.add("Total power", "3.11 W", fmt.Sprintf("%.2f W", d.Energy.CoreDynamicW+d.Energy.CoreLeakageW))
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nArea breakdown: %v\n", area)
	fmt.Fprintln(w, "FIFO SRAM dominates logic thanks to the activated-path sorter sharing (Fig. 6).")
	return nil
}
