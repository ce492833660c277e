package vldi

// Size-only accounting: the engine's traffic ledger needs the exact byte
// footprint of VLDI-encoded delta streams every iteration, but not the
// bitstreams themselves. The helpers here compute that footprint without
// materializing keys, deltas or encoded buffers, so steady-state
// iterative SpMV charges the ledger with zero allocations. Every path is
// provably equal to encoding: SizeDeltas(d) == EncodeDeltas(d).Bytes()
// and a DeltaSizer fed a key stream matches
// EncodeDeltas(DeltasFromKeys(keys)).Bytes() exactly (unit tests plus
// FuzzSizeMatchesEncode enforce both).

import (
	"fmt"

	"mwmerge/internal/stats"
)

// DeltaBits returns the exact encoded width of one delta in bits: the
// block count encodeDelta emits times the string width (block +
// continuation bit).
func (c *Codec) DeltaBits(delta uint64) uint64 {
	width := stats.BitWidth(delta)
	blocks := (width + c.BlockBits - 1) / c.BlockBits
	if blocks == 0 {
		blocks = 1
	}
	return uint64(blocks) * uint64(c.BlockBits+1)
}

// SizeDeltas returns EncodeDeltas(deltas).Bytes() without encoding: the
// byte footprint of the packed delta stream, final byte zero-padded.
func (c *Codec) SizeDeltas(deltas []uint64) uint64 {
	var bits uint64
	for _, d := range deltas {
		bits += c.DeltaBits(d)
	}
	return (bits + 7) / 8
}

// DeltaSizer accumulates the exact encoded footprint of a key stream one
// key at a time — the streaming, allocation-free counterpart of
// EncodeDeltas(DeltasFromKeys(keys)). It is a plain value: declare one
// (or call Codec.NewSizer), feed keys, read Bytes.
type DeltaSizer struct {
	codec *Codec
	bits  uint64
	count int
	prev  uint64
}

// NewSizer returns a zeroed sizer for the codec. The sizer is a value;
// no heap allocation occurs.
func (c *Codec) NewSizer() DeltaSizer { return DeltaSizer{codec: c} }

// Reset rewinds the sizer to an empty stream, keeping the codec.
func (s *DeltaSizer) Reset() {
	s.bits, s.count, s.prev = 0, 0, 0
}

// AddKey feeds the next key of a strictly ascending stream. The first
// key is encoded absolutely (delta = key), later keys as key - prev,
// mirroring DeltasFromKeys; a non-ascending key is rejected with the
// same contract.
func (s *DeltaSizer) AddKey(key uint64) error {
	if s.count > 0 && key <= s.prev {
		return fmt.Errorf("vldi: keys not strictly ascending at %d", s.count)
	}
	delta := key
	if s.count > 0 {
		delta = key - s.prev
	}
	s.prev = key
	s.AddDelta(delta)
	return nil
}

// AddDelta feeds one already-computed delta.
func (s *DeltaSizer) AddDelta(delta uint64) {
	s.bits += s.codec.DeltaBits(delta)
	s.count++
}

// Bits returns the exact encoded bit count so far.
func (s *DeltaSizer) Bits() uint64 { return s.bits }

// Bytes returns the byte footprint so far (bit count rounded up),
// exactly EncodeDeltas(...).Bytes() for the same stream.
func (s *DeltaSizer) Bytes() uint64 { return (s.bits + 7) / 8 }

// Count returns how many deltas have been fed.
func (s *DeltaSizer) Count() int { return s.count }
