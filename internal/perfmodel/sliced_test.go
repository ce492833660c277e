package perfmodel

import "testing"

func TestEvaluateSlicedWithinCapacity(t *testing.T) {
	d := ASICDesign(TS)
	g := GraphStats{Nodes: 1e9, Edges: 3e9}
	sliced, err := d.EvaluateSliced(g)
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Passes != 0 {
		t.Errorf("in-capacity run took %d passes", sliced.Passes)
	}
	plain, _ := d.Evaluate(g)
	if sliced.GTEPS != plain.GTEPS {
		t.Errorf("in-capacity sliced GTEPS %.2f != plain %.2f", sliced.GTEPS, plain.GTEPS)
	}
}

func TestEvaluateSlicedBeyondCapacity(t *testing.T) {
	d := ASICDesign(TS) // capacity 4.3B
	within, err := d.EvaluateSliced(GraphStats{Nodes: 4e9, Edges: 12e9})
	if err != nil {
		t.Fatal(err)
	}
	beyond, err := d.EvaluateSliced(GraphStats{Nodes: 16e9, Edges: 48e9})
	if err != nil {
		t.Fatal(err)
	}
	if beyond.Passes == 0 {
		t.Fatal("16B nodes should need extra passes on a 4.3B-capacity design")
	}
	// Per-edge performance degrades but does not collapse.
	if beyond.GTEPS >= within.GTEPS {
		t.Errorf("beyond-capacity GTEPS %.2f not below within-capacity %.2f", beyond.GTEPS, within.GTEPS)
	}
	if beyond.GTEPS < within.GTEPS/10 {
		t.Errorf("degradation too steep: %.2f vs %.2f", beyond.GTEPS, within.GTEPS)
	}
	// Plain Evaluate rejects what sliced handles.
	if _, err := d.Evaluate(GraphStats{Nodes: 16e9, Edges: 48e9}); err == nil {
		t.Error("plain Evaluate accepted 16B nodes")
	}
}

func TestEvaluateSlicedRejectsEmpty(t *testing.T) {
	if _, err := ASICDesign(TS).EvaluateSliced(GraphStats{}); err == nil {
		t.Error("empty graph accepted")
	}
}

// TestSlicedPassCountsAgree pins the model's pass count on a small
// geometry — 4 ways, 64-element segments (a 512-byte vector buffer at
// 8-byte values) — to the counts the functional engine's batch-merge
// route measured on ErdosRenyi(n, 3) graphs before that route was
// retired: the count is a pure function of the stripe count and the
// ways, ceil(n/64) lists merged K at a time until at most K remain.
func TestSlicedPassCountsAgree(t *testing.T) {
	d := ASICDesign(TS)
	d.Ways = 4
	d.ValueBytes = 8
	d.VectorBufBytes = 512
	if w := d.SegmentWidth(); w != 64 {
		t.Fatalf("segment width %d, want 64", w)
	}
	for _, c := range []struct {
		nodes  uint64
		passes int
	}{
		{200, 0},  // 4 stripes fit 4 ways
		{800, 1},  // 13 → 4
		{3000, 2}, // 47 → 12 → 3
	} {
		r, err := d.EvaluateSliced(GraphStats{Nodes: c.nodes, Edges: 3 * c.nodes})
		if err != nil {
			t.Fatal(err)
		}
		if r.Passes != c.passes {
			t.Errorf("n=%d: model predicts %d passes, the engine measured %d", c.nodes, r.Passes, c.passes)
		}
	}
}
