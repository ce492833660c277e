package vldi

import (
	"testing"
)

// FuzzDeltaRoundTrip drives the codec with arbitrary delta streams and
// block widths; any encode/decode mismatch or panic is a bug.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(uint8(8), uint64(0), uint64(1), uint64(1<<16))
	f.Add(uint8(1), uint64(1), uint64(2), uint64(3))
	f.Add(uint8(63), ^uint64(0), uint64(0), uint64(42))
	f.Add(uint8(7), uint64(1)<<16, uint64(127), uint64(128))
	f.Fuzz(func(t *testing.T, blockRaw uint8, d0, d1, d2 uint64) {
		block := int(blockRaw%63) + 1
		c, err := NewCodec(block)
		if err != nil {
			t.Fatalf("block %d rejected: %v", block, err)
		}
		deltas := []uint64{d0, d1, d2}
		enc := c.EncodeDeltas(deltas)
		dec, err := c.DecodeDeltas(enc)
		if err != nil {
			t.Fatalf("decode failed: %v", err)
		}
		for i := range deltas {
			if dec[i] != deltas[i] {
				t.Fatalf("delta %d: %d != %d (block %d)", i, dec[i], deltas[i], block)
			}
		}
	})
}

// FuzzSizeMatchesEncode proves the size-only accounting paths byte-exact
// against real encoding for arbitrary delta streams: SizeDeltas and a
// streaming DeltaSizer must both equal EncodeDeltas(...).Bytes() for the
// VLDI codec at any block width.
func FuzzSizeMatchesEncode(f *testing.F) {
	f.Add(uint8(8), uint64(0), uint64(1), uint64(1<<16))
	f.Add(uint8(1), uint64(1), uint64(2), uint64(3))
	f.Add(uint8(63), ^uint64(0), ^uint64(0), uint64(42))
	f.Add(uint8(9), uint64(1)<<63, uint64(0x7f), uint64(0x80))
	f.Fuzz(func(t *testing.T, blockRaw uint8, d0, d1, d2 uint64) {
		block := int(blockRaw%63) + 1
		c, err := NewCodec(block)
		if err != nil {
			t.Fatalf("block %d rejected: %v", block, err)
		}
		deltas := []uint64{d0, d1, d2}
		enc := c.EncodeDeltas(deltas)
		if got := c.SizeDeltas(deltas); got != enc.Bytes() {
			t.Fatalf("SizeDeltas %d != encoded %d (block %d)", got, enc.Bytes(), block)
		}
		s := c.NewSizer()
		for _, d := range deltas {
			s.AddDelta(d)
		}
		if s.Bits() != enc.Bits || s.Bytes() != enc.Bytes() {
			t.Fatalf("sizer %d bits/%d bytes != encoded %d/%d (block %d)",
				s.Bits(), s.Bytes(), enc.Bits, enc.Bytes(), block)
		}
	})
}

// FuzzBitReaderNeverPanics feeds arbitrary buffers to the bit reader.
func FuzzBitReaderNeverPanics(f *testing.F) {
	f.Add([]byte{0xff, 0x00}, uint16(9), uint8(3))
	f.Add([]byte{}, uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, buf []byte, bits uint16, width uint8) {
		limit := uint64(bits)
		if limit > uint64(len(buf))*8 {
			limit = uint64(len(buf)) * 8
		}
		r := NewBitReader(buf, limit)
		w := int(width%64) + 1
		for {
			if _, err := r.ReadBits(w); err != nil {
				break
			}
		}
	})
}
