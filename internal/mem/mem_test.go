package mem

import (
	"strings"
	"testing"

	"mwmerge/internal/types"
)

func TestTrafficAccounting(t *testing.T) {
	a := Traffic{MatrixBytes: 100, SourceVectorBytes: 10, IntermediateWrite: 20,
		IntermediateRead: 20, ResultBytes: 5, WastageBytes: 7}
	if a.Payload() != 155 {
		t.Errorf("Payload = %d", a.Payload())
	}
	if a.Total() != 162 {
		t.Errorf("Total = %d", a.Total())
	}
	b := a.Add(a)
	if b.Total() != 2*a.Total() {
		t.Errorf("Add total = %d", b.Total())
	}
	if !strings.Contains(a.String(), "total=") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		b    uint64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KiB"},
		{3 * types.MiB, "3.00MiB"},
		{5 * types.GiB, "5.00GiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.b); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestDefaultHBMValid(t *testing.T) {
	h := DefaultHBM()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.StreamBandwidth != 512e9 {
		t.Errorf("stream bandwidth = %g", h.StreamBandwidth)
	}
}

func TestHBMValidation(t *testing.T) {
	bad := []HBMConfig{
		{StreamBandwidth: 0, RandomBandwidth: 1, PageBytes: 1024, Channels: 1},
		{StreamBandwidth: 10, RandomBandwidth: 20, PageBytes: 1024, Channels: 1},
		{StreamBandwidth: 10, RandomBandwidth: 1, PageBytes: 1000, Channels: 1},
		{StreamBandwidth: 10, RandomBandwidth: 1, PageBytes: 1024, Channels: 0},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestPrefetchBufferSizing(t *testing.T) {
	h := DefaultHBM()
	// Paper §4.1 example: 1024 lists × 2 KiB pages = 2 MiB.
	if got := h.PrefetchBufferBytes(1024); got != 2*types.MiB {
		t.Errorf("PrefetchBufferBytes = %d", got)
	}
	// 16 partitions → 32 MiB, the unscalable case.
	if got := h.PartitionedPrefetchBytes(16, 1024); got != 32*types.MiB {
		t.Errorf("PartitionedPrefetchBytes = %d", got)
	}
}
