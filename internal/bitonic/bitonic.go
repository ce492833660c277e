// Package bitonic implements Batcher's bitonic sorting network, the
// hardware structure the PRaP radix pre-sorter is built from (paper Fig.
// 10). The network operates on a fixed power-of-two width with a static
// comparator schedule, so the same code doubles as a functional model and
// as a hardware cost model (comparator count and pipeline depth).
package bitonic

import (
	"fmt"

	"mwmerge/internal/types"
)

// Comparator is one compare-and-swap element: lanes I and J are compared
// and swapped into ascending order when Asc is true (descending otherwise).
type Comparator struct {
	I, J int
	Asc  bool
}

// Network is a static bitonic sorting network for a power-of-two width.
type Network struct {
	Width  int
	Stages [][]Comparator // Stages[s] runs in parallel in pipeline stage s
}

// NewNetwork builds the comparator schedule for the given width, which
// must be a power of two and at least 1.
func NewNetwork(width int) (*Network, error) {
	if width < 1 || width&(width-1) != 0 {
		return nil, fmt.Errorf("bitonic: width %d is not a power of two", width)
	}
	n := &Network{Width: width}
	// Standard bitonic schedule: k is the size of the bitonic sequences
	// being merged; j is the comparison distance within a sub-stage.
	for k := 2; k <= width; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			var stage []Comparator
			for i := 0; i < width; i++ {
				l := i ^ j
				if l > i {
					asc := i&k == 0
					stage = append(stage, Comparator{I: i, J: l, Asc: asc})
				}
			}
			n.Stages = append(n.Stages, stage)
		}
	}
	return n, nil
}

// Depth returns the pipeline depth (number of comparator stages),
// log2(w)·(log2(w)+1)/2 for width w.
func (n *Network) Depth() int { return len(n.Stages) }

// Comparators returns the total comparator count, the hardware cost of the
// pre-sorter.
func (n *Network) Comparators() int {
	c := 0
	for _, s := range n.Stages {
		c += len(s)
	}
	return c
}

// SortKeys sorts a slice of uint64 keys in place. len(keys) must equal the
// network width.
func (n *Network) SortKeys(keys []uint64) error {
	if len(keys) != n.Width {
		return fmt.Errorf("bitonic: got %d lanes, network width %d", len(keys), n.Width)
	}
	for _, stage := range n.Stages {
		for _, c := range stage {
			if (keys[c.I] > keys[c.J]) == c.Asc {
				keys[c.I], keys[c.J] = keys[c.J], keys[c.I]
			}
		}
	}
	return nil
}

// lane pairs a record with its routing key for in-network movement.
type lane struct {
	key uint64
	rec types.Record
}

// SortRecordsBy sorts records in place ordered by keyOf(record).
// len(recs) must equal the network width. The comparison uses only the
// derived key, mirroring hardware that compares a q-bit radix rather than
// the full record key.
func (n *Network) SortRecordsBy(recs []types.Record, keyOf func(types.Record) uint64) error {
	if len(recs) != n.Width {
		return fmt.Errorf("bitonic: got %d lanes, network width %d", len(recs), n.Width)
	}
	lanes := make([]lane, len(recs))
	for i, r := range recs {
		lanes[i] = lane{key: keyOf(r), rec: r}
	}
	for _, stage := range n.Stages {
		for _, c := range stage {
			if (lanes[c.I].key > lanes[c.J].key) == c.Asc {
				lanes[c.I], lanes[c.J] = lanes[c.J], lanes[c.I]
			}
		}
	}
	for i := range recs {
		recs[i] = lanes[i].rec
	}
	return nil
}

// PreSorter is the PRaP radix pre-sorter: a bitonic network that orders a
// batch of p records by the q least-significant bits of their keys while
// preserving the arrival order of records with equal radix (paper §4.2.1
// requires stability so each merge core's input stays sorted in the
// remaining key bits).
//
// A plain bitonic network is not stable; the hardware achieves stability
// by carrying the lane index alongside the q radix bits. The model does
// the same: the comparison key is radix·p + laneIndex.
type PreSorter struct {
	net *Network
	Q   uint // radix bits compared
}

// NewPreSorter builds a pre-sorter of the given width (power of two)
// routing on q LSBs.
func NewPreSorter(width int, q uint) (*PreSorter, error) {
	if q > 32 {
		return nil, fmt.Errorf("bitonic: radix width %d too large", q)
	}
	net, err := NewNetwork(width)
	if err != nil {
		return nil, err
	}
	return &PreSorter{net: net, Q: q}, nil
}

// Width returns the number of lanes.
func (p *PreSorter) Width() int { return p.net.Width }

// Depth returns the comparator pipeline depth.
func (p *PreSorter) Depth() int { return p.net.Depth() }

// Comparators returns the comparator count. Each comparator is only
// q + log2(width) bits wide — significantly cheaper than a full-key
// comparator (paper §4.2.1).
func (p *PreSorter) Comparators() int { return p.net.Comparators() }

// ComparatorBits returns the bit width of each comparator's operands.
func (p *PreSorter) ComparatorBits() int {
	lg := 0
	for w := p.net.Width; w > 1; w >>= 1 {
		lg++
	}
	return int(p.Q) + lg
}

// Sort pre-sorts one batch of records in place by radix, stably. The batch
// length must equal the pre-sorter width (the DRAM interface delivers
// exactly p records per cycle).
func (p *PreSorter) Sort(batch []types.Record) error {
	var buf SortBuf
	return p.SortWith(&buf, batch)
}

// SortBuf is a per-goroutine scratch for SortWith: the lane array is
// recycled across batches, so a routing loop that reuses one buffer per
// worker pre-sorts its whole stream without allocating. The zero value
// is ready to use.
type SortBuf struct {
	lanes []lane
}

// SortWith is Sort using the caller's scratch buffer. The comparator
// schedule, the stability key (radix·width + lane index), and the
// resulting order are identical to Sort.
func (p *PreSorter) SortWith(buf *SortBuf, batch []types.Record) error {
	if len(batch) != p.net.Width {
		return fmt.Errorf("bitonic: got %d lanes, network width %d", len(batch), p.net.Width)
	}
	if cap(buf.lanes) < len(batch) {
		// Grow-once lane arena; the worker's SortBuf keeps capacity across batches.
		buf.lanes = make([]lane, len(batch))
	}
	lanes := buf.lanes[:len(batch)]
	w := uint64(p.net.Width)
	for i, r := range batch {
		lanes[i] = lane{key: r.Radix(p.Q)*w + uint64(i), rec: r}
	}
	for _, stage := range p.net.Stages {
		for _, c := range stage {
			if (lanes[c.I].key > lanes[c.J].key) == c.Asc {
				lanes[c.I], lanes[c.J] = lanes[c.J], lanes[c.I]
			}
		}
	}
	for i := range batch {
		batch[i] = lanes[i].rec
	}
	return nil
}
