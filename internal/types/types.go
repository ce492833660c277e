// Package types holds the primitive data types shared by every stage of the
// Two-Step SpMV accelerator model: the key/value record that flows through
// the merge network, and the size constants used by the traffic and
// capacity models.
package types

import "fmt"

// Record is a key/value pair as produced by the step-1 multiplier lanes and
// consumed by the step-2 multi-way merge network. Key is the row index of
// the nonzero in the (intermediate or final) vector; Val is the partial
// product (or accumulated sum).
type Record struct {
	Key uint64
	Val float64
}

func (r Record) String() string {
	return fmt.Sprintf("{%d, %g}", r.Key, r.Val)
}

// Less orders records by key. The merge network never compares values.
func (r Record) Less(o Record) bool { return r.Key < o.Key }

// Radix returns the q least-significant bits of the key, the quantity the
// PRaP pre-sorter routes on (paper Fig. 9).
func (r Record) Radix(q uint) uint64 { return r.Key & ((1 << q) - 1) }

// Byte widths used by the traffic model. The paper's records carry a row
// index and a floating-point value; meta-data width varies with VLDI.
const (
	// KeyBytes is the uncompressed width of a record index.
	KeyBytes = 8
	// ValBytes64 and ValBytes32 are double/single precision value widths.
	ValBytes64 = 8
	ValBytes32 = 4
	// RecordBytes is the uncompressed width of a full record.
	RecordBytes = KeyBytes + ValBytes64
)

// KiB, MiB and GiB are byte-size multipliers.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)
