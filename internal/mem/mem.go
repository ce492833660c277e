// Package mem models the memory system of the accelerator: a parameterized
// HBM main-memory model (streaming vs random bandwidth, row-buffer page
// size, prefetch-buffer sizing), and the off-chip traffic accounting that
// drives every performance number in the evaluation (Fig. 4, 14, 17-22).
package mem

import (
	"encoding/json"
	"fmt"

	"mwmerge/internal/types"
)

// Traffic is an off-chip byte ledger broken down into the categories of the
// paper's Fig. 4. Payload is data that participates in computation;
// Wastage is bytes moved because of cache-line granularity but never used
// (the latency-bound algorithm's overhead Two-Step eliminates).
type Traffic struct {
	MatrixBytes       uint64 `json:"matrix_bytes"`             // streaming reads of A's stripes
	SourceVectorBytes uint64 `json:"source_vector_bytes"`      // streaming reads of x segments
	IntermediateWrite uint64 `json:"intermediate_write_bytes"` // v_k round trip: store to DRAM
	IntermediateRead  uint64 `json:"intermediate_read_bytes"`  // v_k round trip: load for merge
	ResultBytes       uint64 `json:"result_bytes"`             // y writes (and y-in reads)
	WastageBytes      uint64 `json:"wastage_bytes"`            // fetched-but-unused cache-line bytes
}

// MarshalJSON renders the ledger's categories followed by their total,
// total_bytes. Decoding ignores total_bytes, which is derived.
func (t Traffic) MarshalJSON() ([]byte, error) {
	type categories Traffic // drops this method, so Marshal does not recurse
	return json.Marshal(struct {
		categories
		TotalBytes uint64 `json:"total_bytes"`
	}{categories(t), t.Total()})
}

// Payload returns bytes that take part in actual computation.
func (t Traffic) Payload() uint64 {
	return t.MatrixBytes + t.SourceVectorBytes + t.IntermediateWrite +
		t.IntermediateRead + t.ResultBytes
}

// Total returns all off-chip bytes moved, payload plus wastage.
func (t Traffic) Total() uint64 { return t.Payload() + t.WastageBytes }

// Add returns the component-wise sum of two ledgers.
func (t Traffic) Add(o Traffic) Traffic {
	return Traffic{
		MatrixBytes:       t.MatrixBytes + o.MatrixBytes,
		SourceVectorBytes: t.SourceVectorBytes + o.SourceVectorBytes,
		IntermediateWrite: t.IntermediateWrite + o.IntermediateWrite,
		IntermediateRead:  t.IntermediateRead + o.IntermediateRead,
		ResultBytes:       t.ResultBytes + o.ResultBytes,
		WastageBytes:      t.WastageBytes + o.WastageBytes,
	}
}

// Sub returns the component-wise difference t - o. It underflows if o
// exceeds t in any component; callers subtract an earlier snapshot of
// the same monotone ledger, where that cannot happen.
func (t Traffic) Sub(o Traffic) Traffic {
	return Traffic{
		MatrixBytes:       t.MatrixBytes - o.MatrixBytes,
		SourceVectorBytes: t.SourceVectorBytes - o.SourceVectorBytes,
		IntermediateWrite: t.IntermediateWrite - o.IntermediateWrite,
		IntermediateRead:  t.IntermediateRead - o.IntermediateRead,
		ResultBytes:       t.ResultBytes - o.ResultBytes,
		WastageBytes:      t.WastageBytes - o.WastageBytes,
	}
}

func (t Traffic) String() string {
	return fmt.Sprintf("traffic{A=%s x=%s vW=%s vR=%s y=%s waste=%s total=%s}",
		FormatBytes(t.MatrixBytes), FormatBytes(t.SourceVectorBytes),
		FormatBytes(t.IntermediateWrite), FormatBytes(t.IntermediateRead),
		FormatBytes(t.ResultBytes), FormatBytes(t.WastageBytes), FormatBytes(t.Total()))
}

// FormatBytes renders a byte count with a binary-prefix unit.
func FormatBytes(b uint64) string {
	switch {
	case b >= types.GiB:
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(types.GiB))
	case b >= types.MiB:
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(types.MiB))
	case b >= types.KiB:
		return fmt.Sprintf("%.2fKiB", float64(b)/float64(types.KiB))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// HBMConfig parameterizes the 3D-stacked main memory. The paper emulates
// HBM with Cacti/Destiny; we expose the same derived quantities.
type HBMConfig struct {
	// StreamBandwidth is the sustained sequential bandwidth in bytes/s
	// (512 GB/s for the ASIC design point's HBM subsystem).
	StreamBandwidth float64
	// RandomBandwidth is the effective bandwidth of cache-line-grain
	// random access (row-buffer miss dominated), bytes/s.
	RandomBandwidth float64
	// PageBytes is the DRAM row-buffer (dpage) size; the prefetch buffer
	// allocates one page per merge input list.
	PageBytes uint64
	// Channels is the number of independent HBM channels.
	Channels int
}

// DefaultHBM returns the ASIC design point's memory system: 512 GB/s
// streaming over 4 channels with 2 KiB pages.
func DefaultHBM() HBMConfig {
	return HBMConfig{
		StreamBandwidth: 512e9,
		RandomBandwidth: 32e9, // ~1/16 of streaming for 64B-grain random access
		PageBytes:       2 * types.KiB,
		Channels:        4,
	}
}

// Validate checks the configuration for physical plausibility.
func (h HBMConfig) Validate() error {
	if h.StreamBandwidth <= 0 || h.RandomBandwidth <= 0 {
		return fmt.Errorf("mem: bandwidths must be positive")
	}
	if h.RandomBandwidth > h.StreamBandwidth {
		return fmt.Errorf("mem: random bandwidth exceeds streaming bandwidth")
	}
	if h.PageBytes == 0 || h.PageBytes&(h.PageBytes-1) != 0 {
		return fmt.Errorf("mem: page size %d not a power of two", h.PageBytes)
	}
	if h.Channels <= 0 {
		return fmt.Errorf("mem: channel count must be positive")
	}
	return nil
}

// PrefetchBufferBytes returns the on-chip buffer needed to guarantee
// streaming access for K merge input lists: one DRAM page per list (paper
// §4.1). PRaP's central result is that this does NOT scale with the number
// of parallel merge cores.
func (h HBMConfig) PrefetchBufferBytes(k int) uint64 {
	return uint64(k) * h.PageBytes
}

// PartitionedPrefetchBytes returns the prefetch buffer required by the
// partition-based parallelization of §4.1: m partitions × K lists × dpage,
// growing linearly with parallelism m.
func (h HBMConfig) PartitionedPrefetchBytes(m, k int) uint64 {
	return uint64(m) * h.PrefetchBufferBytes(k)
}
