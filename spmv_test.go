package mwmerge

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestFacadeQuickstartPath(t *testing.T) {
	a, err := ErdosRenyi(50_000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := NewDense(int(a.Cols))
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y, err := eng.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceSpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := y.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("facade SpMV max diff %g", d)
	}
	if eng.Traffic().Total() == 0 {
		t.Error("traffic ledger empty")
	}
}

func TestFacadeNewMatrix(t *testing.T) {
	m, err := NewMatrix(3, 3, []Entry{{Row: 0, Col: 1, Val: 2}, {Row: 2, Col: 0, Val: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d", m.NNZ())
	}
	if _, err := NewMatrix(0, 0, nil); err == nil {
		t.Error("empty shape accepted")
	}
}

func TestFacadeVLDIEngine(t *testing.T) {
	codec, err := NewVLDICodec(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEngineConfig()
	cfg.VectorCodec = codec
	cfg.MatrixCodec = codec
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ErdosRenyi(30_000, 3, 3)
	x := NewDense(int(a.Cols))
	x.Fill(1)
	y, err := eng.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ReferenceSpMV(a, x, nil)
	if d := y.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("VLDI facade max diff %g", d)
	}
}

func TestFacadeMatrixMarketRoundTrip(t *testing.T) {
	a, _ := Zipf(1000, 5, 1.8, 4)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Errorf("round trip changed nnz")
	}
}

func TestFacadeDesignPoints(t *testing.T) {
	for _, v := range []struct {
		variant interface{}
	}{{TS}, {ITS}, {ITSVC}} {
		_ = v
	}
	asic := ASICDesign(TS)
	if asic.MaxNodes() != 1<<32 {
		t.Errorf("TS_ASIC capacity %d, want 2^32", asic.MaxNodes())
	}
	f1, f2 := FPGA1Design(ITS), FPGA2Design(ITS)
	if f1.MaxNodes() <= f2.MaxNodes() {
		t.Error("FPGA1 must handle larger problems than FPGA2")
	}
	if f2.SustainedThroughput() <= f1.SustainedThroughput() {
		t.Error("FPGA2 must sustain more throughput than FPGA1")
	}
}

func TestFacadeDatasetLookup(t *testing.T) {
	d, err := LookupDataset("Sy-2B")
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes() != 2_000_000_000 {
		t.Errorf("Sy-2B nodes = %d", d.Nodes())
	}
	// The flagship capacity claim: only TS_ASIC runs the 4B-node regime;
	// Sy-2B fits both ASIC variants but no FPGA point.
	if uint64(d.Nodes()) > ASICDesign(TS).MaxNodes() {
		t.Error("Sy-2B must fit TS_ASIC")
	}
	if uint64(d.Nodes()) <= FPGA1Design(TS).MaxNodes() {
		t.Error("Sy-2B must exceed FPGA capacity")
	}
}

func TestFacadeIterateOverlap(t *testing.T) {
	a, _ := ErdosRenyi(20_000, 3, 5)
	eng, _ := NewEngine(DefaultEngineConfig())
	x := NewDense(int(a.Cols))
	x.Fill(1.0 / float64(a.Cols))
	res, err := eng.Iterate(a, x, IterateOptions{Iterations: 3, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TransitionBytesSaved == 0 {
		t.Error("ITS saved no transition traffic")
	}
}

// TestFacadeRunRecorder drives the observability surface through the
// facade alone: attach a RunRecorder, run, build a RunReport, render all
// three formats.
func TestFacadeRunRecorder(t *testing.T) {
	a, err := ErdosRenyi(20_000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRunRecorder()
	cfg := DefaultEngineConfig()
	cfg.Recorder = rec
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := NewDense(int(a.Cols))
	x.Fill(1)
	if _, err := eng.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}

	rep := rec.Build(ReportMeta{Workload: "facade-test", Rows: a.Rows, Cols: a.Cols})
	if got := rep.Totals.Traffic; got != eng.Traffic() {
		t.Errorf("report traffic %+v != ledger %+v", got, eng.Traffic())
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"workload": "facade-test"`) {
		t.Errorf("JSON report:\n%s", buf.String())
	}
	buf.Reset()
	if err := rep.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mwmerge_traffic_bytes_total") {
		t.Errorf("prometheus report:\n%s", buf.String())
	}
	buf.Reset()
	if err := rec.Gantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "phase") {
		t.Errorf("gantt report:\n%s", buf.String())
	}
}
