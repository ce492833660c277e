// Package vldi implements the paper's Variable Length Delta Index
// compression (§5.1, Fig. 12): sorted index streams are delta-encoded and
// each delta is split into fixed-width blocks, every block prefixed with a
// continuation bit — '1' to continue into the next block, '0' to
// terminate. Block width is a tunable hardware parameter whose optimum
// depends on the nonzero density of the stripes (Fig. 13).
package vldi

import (
	"errors"
	"fmt"
	"math"

	"mwmerge/internal/stats"
	"mwmerge/internal/types"
)

// Codec encodes/decodes delta-index streams with a fixed block width.
type Codec struct {
	// BlockBits is the payload width of one VLDI block; each emitted
	// string is BlockBits+1 bits including the continuation bit.
	BlockBits int
}

// NewCodec returns a codec with the given block width.
func NewCodec(blockBits int) (*Codec, error) {
	if blockBits < 1 || blockBits > 63 {
		return nil, fmt.Errorf("vldi: block width %d out of range [1,63]", blockBits)
	}
	return &Codec{BlockBits: blockBits}, nil
}

// StringBits returns the width of one VLDI string (block + continuation
// bit).
func (c *Codec) StringBits() int { return c.BlockBits + 1 }

// BitWriter packs bits MSB-first into a byte slice.
type BitWriter struct {
	buf  []byte
	nbit uint64
}

// WriteBits appends the low width bits of v, most significant first. It
// fills the current byte's free bits at once, so a w-bit field takes at
// most w/8 + 2 steps.
func (w *BitWriter) WriteBits(v uint64, width int) {
	for width > 0 {
		used := int(w.nbit & 7)
		if used == 0 {
			// Grow-once bit buffer; Reset keeps capacity, so steady-state round trips reuse it.
			w.buf = append(w.buf, 0)
		}
		n := min(8-used, width)
		width -= n
		w.buf[len(w.buf)-1] |= byte(v>>uint(width)) & (1<<n - 1) << (8 - used - n)
		w.nbit += uint64(n)
	}
}

// Bits returns the number of bits written.
func (w *BitWriter) Bits() uint64 { return w.nbit }

// Reset rewinds the writer to an empty stream, keeping the underlying
// buffer capacity so steady-state encoders reuse it across calls.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Bytes returns the packed buffer (last byte zero-padded).
func (w *BitWriter) Bytes() []byte { return w.buf }

// BitReader unpacks bits MSB-first from a byte slice.
type BitReader struct {
	buf  []byte
	nbit uint64
	end  uint64
}

// NewBitReader reads up to bits bits from buf.
func NewBitReader(buf []byte, bits uint64) *BitReader {
	return &BitReader{buf: buf, end: bits}
}

// ErrTruncated reports an exhausted bit stream mid-symbol.
var ErrTruncated = errors.New("vldi: truncated bit stream")

// ReadBits consumes width bits and returns them in the low bits of the
// result.
func (r *BitReader) ReadBits(width int) (uint64, error) {
	if r.nbit+uint64(width) > r.end {
		return 0, ErrTruncated
	}
	var v uint64
	for width > 0 {
		used := int(r.nbit & 7)
		n := min(8-used, width)
		width -= n
		v = v<<n | uint64(r.buf[r.nbit>>3]>>(8-used-n)&(1<<n-1))
		r.nbit += uint64(n)
	}
	return v, nil
}

// Remaining returns the unread bit count.
func (r *BitReader) Remaining() uint64 { return r.end - r.nbit }

// encodeDelta appends one delta to the writer, MSB block first (Fig. 12).
func (c *Codec) encodeDelta(w *BitWriter, delta uint64) {
	width := stats.BitWidth(delta)
	blocks := (width + c.BlockBits - 1) / c.BlockBits
	if blocks == 0 {
		blocks = 1
	}
	for b := blocks - 1; b >= 0; b-- {
		chunk := (delta >> uint(b*c.BlockBits)) & ((1 << uint(c.BlockBits)) - 1)
		cont := uint64(0)
		if b > 0 {
			cont = 1
		}
		w.WriteBits(cont, 1)
		w.WriteBits(chunk, c.BlockBits)
	}
}

// decodeDelta reads one delta from the reader.
func (c *Codec) decodeDelta(r *BitReader) (uint64, error) {
	var v uint64
	for {
		cont, err := r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		chunk, err := r.ReadBits(c.BlockBits)
		if err != nil {
			return 0, err
		}
		v = v<<uint(c.BlockBits) | chunk
		if cont == 0 {
			return v, nil
		}
	}
}

// EncodedDeltas is a packed delta-index stream.
type EncodedDeltas struct {
	Buf   []byte
	Bits  uint64
	Count int
}

// Bytes returns the byte footprint (bit count rounded up).
func (e EncodedDeltas) Bytes() uint64 { return (e.Bits + 7) / 8 }

// EncodeDeltas packs a slice of deltas.
func (c *Codec) EncodeDeltas(deltas []uint64) EncodedDeltas {
	var w BitWriter
	for _, d := range deltas {
		c.encodeDelta(&w, d)
	}
	return EncodedDeltas{Buf: w.Bytes(), Bits: w.Bits(), Count: len(deltas)}
}

// DecodeDeltas unpacks exactly e.Count deltas.
func (c *Codec) DecodeDeltas(e EncodedDeltas) ([]uint64, error) {
	r := NewBitReader(e.Buf, e.Bits)
	out := make([]uint64, e.Count)
	for i := range out {
		d, err := c.decodeDelta(r)
		if err != nil {
			return nil, fmt.Errorf("vldi: delta %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// DeltasFromKeys converts a strictly ascending key sequence to deltas:
// deltas[0] = keys[0], deltas[i] = keys[i] - keys[i-1].
func DeltasFromKeys(keys []uint64) ([]uint64, error) {
	out := make([]uint64, len(keys))
	var prev uint64
	for i, k := range keys {
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("vldi: keys not strictly ascending at %d", i)
		}
		if i == 0 {
			out[i] = k
		} else {
			out[i] = k - prev
		}
		prev = k
	}
	return out, nil
}

// KeysFromDeltas inverts DeltasFromKeys.
func KeysFromDeltas(deltas []uint64) []uint64 {
	out := make([]uint64, len(deltas))
	var acc uint64
	for i, d := range deltas {
		acc += d
		out[i] = acc
	}
	return out
}

// RoundTripRecords encodes recs' keys as a VLDI delta stream into w
// (reset first) and decodes the stream back, verifying each
// reconstructed key bit-for-bit: the functional round trip of an
// intermediate vector whose values stay uncompressed, as ITS_VC streams
// it to and from DRAM. The stream written is EncodeDeltas of the keys'
// DeltasFromKeys, bit for bit. It errors on a non-ascending key stream
// (same contract as DeltasFromKeys) or on any decode mismatch. w
// provides the only scratch storage, so callers that recycle the writer
// run the round trip with zero allocations.
func (c *Codec) RoundTripRecords(recs []types.Record, w *BitWriter) error {
	w.Reset()
	var prev uint64
	for i, r := range recs {
		if i > 0 && r.Key <= prev {
			return fmt.Errorf("vldi: keys not strictly ascending at %d", i)
		}
		delta := r.Key
		if i > 0 {
			delta = r.Key - prev
		}
		prev = r.Key
		c.encodeDelta(w, delta)
	}
	r := BitReader{buf: w.Bytes(), end: w.Bits()}
	var key uint64
	for i := range recs {
		delta, err := c.decodeDelta(&r)
		if err != nil {
			return fmt.Errorf("vldi: round trip decode at record %d: %w", i, err)
		}
		key += delta
		if key != recs[i].Key {
			return fmt.Errorf("vldi: round trip mismatch at record %d: got key %d, want %d", i, key, recs[i].Key)
		}
	}
	return nil
}

// ExpectedBitsPerDelta returns the expected encoded size of one delta under
// block width b, given widthDist[w] = P(delta needs w bits).
func ExpectedBitsPerDelta(widthDist []float64, b int) float64 {
	var e float64
	for w, p := range widthDist {
		if p == 0 || w == 0 {
			continue
		}
		blocks := (w + b - 1) / b
		e += p * float64(blocks*(b+1))
	}
	return e
}

// OptimalBlockBits searches block widths [1, maxB] for the one minimizing
// expected bits per delta under the given width distribution. This is the
// tuning knob of Fig. 13: smaller on-chip memory → narrower stripes →
// larger deltas → wider optimal blocks.
func OptimalBlockBits(widthDist []float64, maxB int) (int, float64) {
	best, bestBits := 1, math.Inf(1)
	for b := 1; b <= maxB; b++ {
		e := ExpectedBitsPerDelta(widthDist, b)
		if e < bestBits {
			best, bestBits = b, e
		}
	}
	return best, bestBits
}
