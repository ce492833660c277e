// Package hdn implements the High Degree Node optimization for power-law
// graphs (paper §5.3): a one-pass scan of the matrix meta-data populates a
// Bloom filter with the row indices of nodes whose degree exceeds a
// threshold, and step 1 consults the filter to route each row's products
// either to a dedicated HDN accumulation pipeline (tuned for long
// same-row runs) or to the general pipeline. Bloom false positives only
// misroute a regular node into the HDN pipeline, which is harmless.
package hdn

import (
	"fmt"

	"mwmerge/internal/bloom"
	"mwmerge/internal/matrix"
)

// Config parameterizes HDN detection.
type Config struct {
	// Threshold is the degree above which a node counts as an HDN (the
	// paper uses 1000 for Twitter).
	Threshold uint64
	// LoadFactor sizes the Bloom filter as members/LoadFactor bits
	// (paper: 0.1 for ~2% FPR with g=4).
	LoadFactor float64
	// Hashes is g, the number of hash functions.
	Hashes int
	// OneMemWordBits selects the one-memory-access filter word width;
	// zero selects the classic filter.
	OneMemWordBits uint
	// CapacityHint overrides the member-count estimate used to size the
	// filter (the paper conservatively sizes for 100K HDNs); zero sizes
	// from the actual scan.
	CapacityHint uint64
}

// DefaultConfig mirrors the paper's Twitter example: threshold 1000,
// g = 4 hashes, load factor 0.1, one-memory-access filter with 64-bit
// words.
func DefaultConfig() Config {
	return Config{Threshold: 1000, LoadFactor: 0.1, Hashes: 4, OneMemWordBits: 64}
}

// Filter answers "is this row an HDN?" with no false negatives.
type Filter interface {
	Contains(key uint64) bool
	SizeBytes() uint64
	FPR() float64
}

// Detector is a built HDN membership structure plus exact ground truth for
// validation.
type Detector struct {
	cfg    Config
	filter Filter
	// Exact is the true HDN set, retained for false-positive accounting
	// in tests and ablations (the hardware would not store this).
	Exact map[uint64]struct{}
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if cfg.Threshold == 0 {
		return fmt.Errorf("hdn: threshold must be positive")
	}
	if cfg.LoadFactor <= 0 || cfg.LoadFactor >= 1 {
		return fmt.Errorf("hdn: load factor %g out of (0,1)", cfg.LoadFactor)
	}
	if cfg.Hashes < 1 {
		return fmt.Errorf("hdn: hash count must be positive")
	}
	return nil
}

// Build scans m's row degrees once (the paper's single meta-data streaming
// pass) and populates the filter. An entry whose row lies outside m is an
// error.
func Build(m *matrix.COO, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	deg := make([]uint64, m.Rows)
	for _, e := range m.Entries {
		if e.Row >= m.Rows {
			return nil, fmt.Errorf("hdn: entry (%d, %d) outside %d rows", e.Row, e.Col, m.Rows)
		}
		deg[e.Row]++
	}
	return FromDegrees(deg, cfg)
}

// FromDegrees populates the filter from row degrees counted elsewhere:
// deg[r] is row r's nonzero count. It is Build without the scan, for a
// caller that has already streamed the matrix (the engine counts the
// degrees from its plan's row runs).
func FromDegrees(deg []uint64, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	exact := make(map[uint64]struct{})
	for r, d := range deg {
		if d > cfg.Threshold {
			exact[uint64(r)] = struct{}{}
		}
	}
	members := cfg.CapacityHint
	if members == 0 {
		members = uint64(len(exact))
		if members == 0 {
			members = 1
		}
	}
	bits := bloom.SizeForLoadFactor(members, cfg.LoadFactor)

	var filter Filter
	if cfg.OneMemWordBits > 0 {
		w := uint64(cfg.OneMemWordBits)
		d := (bits + w - 1) / w
		// Round word count up to a power of two.
		p := uint64(1)
		for p < d {
			p <<= 1
		}
		f, err := bloom.NewOneMem(p, cfg.OneMemWordBits, cfg.Hashes)
		if err != nil {
			return nil, err
		}
		filter = f
	} else {
		f, err := bloom.NewClassic(bits, cfg.Hashes)
		if err != nil {
			return nil, err
		}
		filter = f
	}
	type adder interface{ Add(uint64) }
	for r := range exact {
		filter.(adder).Add(r)
	}
	return &Detector{cfg: cfg, filter: filter, Exact: exact}, nil
}

// IsHDN reports whether row may be a High Degree Node. False positives are
// possible; false negatives are not.
func (d *Detector) IsHDN(row uint64) bool { return d.filter.Contains(row) }

// IsHDNExact reports ground truth.
func (d *Detector) IsHDNExact(row uint64) bool {
	_, ok := d.Exact[row]
	return ok
}

// SizeBytes returns the on-chip cost of the filter.
func (d *Detector) SizeBytes() uint64 { return d.filter.SizeBytes() }

// EstimatedFPR returns the filter's analytic false-positive ratio.
func (d *Detector) EstimatedFPR() float64 { return d.filter.FPR() }

// MeasureFPR empirically measures the false-positive ratio over all rows
// of an n-row matrix.
func (d *Detector) MeasureFPR(n uint64) float64 {
	if n == 0 {
		return 0
	}
	var fp, negatives uint64
	for r := uint64(0); r < n; r++ {
		if d.IsHDNExact(r) {
			continue
		}
		negatives++
		if d.IsHDN(r) {
			fp++
		}
	}
	if negatives == 0 {
		return 0
	}
	return float64(fp) / float64(negatives)
}

// RouteStats summarizes how step-1 records split across the two pipelines.
type RouteStats struct {
	HDNRecords     uint64 // records routed to the HDN pipeline
	GeneralRecords uint64
	FalseRouted    uint64 // regular-node records misrouted by Bloom FPs
}

// Route classifies every nonzero of m by pipeline, returning the split the
// dual-pipeline step-1 design would see.
func (d *Detector) Route(m *matrix.COO) RouteStats {
	var st RouteStats
	for _, e := range m.Entries {
		if d.IsHDN(e.Row) {
			st.HDNRecords++
			if !d.IsHDNExact(e.Row) {
				st.FalseRouted++
			}
		} else {
			st.GeneralRecords++
		}
	}
	return st
}
