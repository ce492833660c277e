package vldi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mwmerge/internal/stats"
	"mwmerge/internal/types"
)

func TestNewCodecBounds(t *testing.T) {
	for _, b := range []int{0, -1, 64, 100} {
		if _, err := NewCodec(b); err == nil {
			t.Errorf("block width %d accepted", b)
		}
	}
	if _, err := NewCodec(7); err != nil {
		t.Error(err)
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b101, 3)
	w.WriteBits(0b0110, 4)
	w.WriteBits(1, 1)
	if w.Bits() != 8 {
		t.Fatalf("wrote %d bits", w.Bits())
	}
	r := NewBitReader(w.Bytes(), w.Bits())
	v1, _ := r.ReadBits(3)
	v2, _ := r.ReadBits(4)
	v3, _ := r.ReadBits(1)
	if v1 != 0b101 || v2 != 0b0110 || v3 != 1 {
		t.Errorf("read %b %b %b", v1, v2, v3)
	}
	if _, err := r.ReadBits(1); err == nil {
		t.Error("read past end accepted")
	}
}

func TestBitRoundTripProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		var w BitWriter
		for _, v := range vals {
			w.WriteBits(uint64(v), 16)
		}
		r := NewBitReader(w.Bytes(), w.Bits())
		for _, v := range vals {
			got, err := r.ReadBits(16)
			if err != nil || got != uint64(v) {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBitsMatchBitAtATime holds the byte-filling writer and reader to
// the one-bit-per-step packing they replaced: the same bytes for fields
// of every width 0–64 at every bit offset (high bits above the width
// set, which the writer must ignore), and the same fields read back.
func TestBitsMatchBitAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type field struct {
		v     uint64
		width int
	}
	var fields []field
	for i := 0; i < 2000; i++ {
		fields = append(fields, field{rng.Uint64(), rng.Intn(65)})
	}
	var w BitWriter
	var want []byte
	var nbit uint64
	for _, f := range fields {
		w.WriteBits(f.v, f.width)
		for i := f.width - 1; i >= 0; i-- {
			if nbit%8 == 0 {
				want = append(want, 0)
			}
			want[nbit/8] |= byte(f.v>>uint(i)&1) << (7 - nbit%8)
			nbit++
		}
	}
	if w.Bits() != nbit || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("wrote %d bits, want %d; bytes equal: %v", w.Bits(), nbit, bytes.Equal(w.Bytes(), want))
	}
	r := NewBitReader(want, nbit)
	for i, f := range fields {
		got, err := r.ReadBits(f.width)
		mask := uint64(1)<<uint(f.width) - 1
		if f.width == 64 {
			mask = ^uint64(0)
		}
		if err != nil || got != f.v&mask {
			t.Fatalf("field %d (width %d): read %#x, %v; want %#x", i, f.width, got, err, f.v&mask)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bits left unread", r.Remaining())
	}
}

func TestPaperExample17Bits(t *testing.T) {
	// Fig. 12: a 17-bit delta with 7-bit blocks takes 3 strings of 8
	// bits = 24 bits.
	c, _ := NewCodec(7)
	delta := uint64(1) << 16 // needs 17 bits
	enc := c.EncodeDeltas([]uint64{delta})
	if enc.Bits != 24 {
		t.Errorf("17-bit delta encoded in %d bits, want 24", enc.Bits)
	}
	dec, err := c.DecodeDeltas(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0] != delta {
		t.Errorf("decoded %d, want %d", dec[0], delta)
	}
}

func TestEncodeDecodeDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, blockBits := range []int{1, 3, 4, 7, 8, 16, 32} {
		c, err := NewCodec(blockBits)
		if err != nil {
			t.Fatal(err)
		}
		deltas := make([]uint64, 500)
		for i := range deltas {
			deltas[i] = rng.Uint64() >> uint(rng.Intn(60))
		}
		enc := c.EncodeDeltas(deltas)
		dec, err := c.DecodeDeltas(enc)
		if err != nil {
			t.Fatalf("block %d: %v", blockBits, err)
		}
		for i := range deltas {
			if dec[i] != deltas[i] {
				t.Fatalf("block %d: delta %d: %d != %d", blockBits, i, dec[i], deltas[i])
			}
		}
	}
}

func TestDeltaCodecProperty(t *testing.T) {
	c, _ := NewCodec(5)
	f := func(deltas []uint64) bool {
		enc := c.EncodeDeltas(deltas)
		dec, err := c.DecodeDeltas(enc)
		if err != nil {
			return false
		}
		for i := range deltas {
			if dec[i] != deltas[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltasFromKeys(t *testing.T) {
	keys := []uint64{3, 5, 100}
	deltas, err := DeltasFromKeys(keys)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{3, 2, 95}
	for i := range want {
		if deltas[i] != want[i] {
			t.Fatalf("deltas = %v", deltas)
		}
	}
	back := KeysFromDeltas(deltas)
	for i := range keys {
		if back[i] != keys[i] {
			t.Fatalf("keys round trip = %v", back)
		}
	}
	if _, err := DeltasFromKeys([]uint64{5, 5}); err == nil {
		t.Error("non-strict keys accepted")
	}
	if _, err := DeltasFromKeys([]uint64{5, 3}); err == nil {
		t.Error("descending keys accepted")
	}
}

func TestRoundTripRecords(t *testing.T) {
	cases := []struct {
		name string
		keys []uint64
		ok   bool
	}{
		{"empty", nil, true},
		{"key zero", []uint64{0}, true},
		{"ascending", []uint64{0, 1, 2, 9, 300, 1 << 20}, true},
		{"gap 1<<63", []uint64{3, 3 + 1<<63, ^uint64(0)}, true},
		{"duplicate", []uint64{4, 7, 7}, false},
		{"descending", []uint64{0, 9, 8}, false},
	}
	for _, b := range []int{1, 8, 63} {
		c, _ := NewCodec(b)
		var w BitWriter
		for _, tc := range cases {
			recs := make([]types.Record, len(tc.keys))
			for i, k := range tc.keys {
				recs[i] = types.Record{Key: k, Val: float64(i)}
			}
			err := c.RoundTripRecords(recs, &w)
			if (err == nil) != tc.ok {
				t.Fatalf("block %d, %s: err = %v, want ok=%v", b, tc.name, err, tc.ok)
			}
			if !tc.ok {
				continue
			}
			deltas, err := DeltasFromKeys(tc.keys)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.EncodeDeltas(deltas).Bits; w.Bits() != want {
				t.Errorf("block %d, %s: %d bits written, EncodeDeltas gives %d", b, tc.name, w.Bits(), want)
			}
		}
	}
}

func TestExpectedBitsPerDelta(t *testing.T) {
	// Distribution: all deltas need exactly 8 bits. Block 8 → 9 bits;
	// block 4 → 2 strings of 5 = 10 bits; block 7 → 2 strings of 8 = 16.
	dist := make([]float64, 20)
	dist[8] = 1
	if got := ExpectedBitsPerDelta(dist, 8); got != 9 {
		t.Errorf("block 8: %g bits", got)
	}
	if got := ExpectedBitsPerDelta(dist, 4); got != 10 {
		t.Errorf("block 4: %g bits", got)
	}
	if got := ExpectedBitsPerDelta(dist, 7); got != 16 {
		t.Errorf("block 7: %g bits", got)
	}
}

func TestOptimalBlockBitsShiftsWithDensity(t *testing.T) {
	// The Fig. 13 effect: sparser stripes (wider gaps) push the optimal
	// block width up.
	sparse := stats.GeometricGapWidthDist(1.0/200, 40) // avg gap ~200
	denseD := stats.GeometricGapWidthDist(1.0/6, 40)   // avg gap ~6
	bSparse, _ := OptimalBlockBits(sparse, 16)
	bDense, _ := OptimalBlockBits(denseD, 16)
	if bSparse <= bDense {
		t.Errorf("optimal blocks: sparse %d <= dense %d", bSparse, bDense)
	}
}

func TestOptimalBlockMatchesMeasured(t *testing.T) {
	// The analytic optimum must match brute-force measurement on
	// sampled geometric gaps.
	rng := rand.New(rand.NewSource(3))
	p := 1.0 / 50
	var deltas []uint64
	for i := 0; i < 20000; i++ {
		g := uint64(1)
		for rng.Float64() > p {
			g++
		}
		deltas = append(deltas, g)
	}
	// Measured optimum.
	bestB, bestBits := 0, uint64(1)<<62
	for b := 1; b <= 16; b++ {
		c, _ := NewCodec(b)
		enc := c.EncodeDeltas(deltas)
		if enc.Bits < bestBits {
			bestB, bestBits = b, enc.Bits
		}
	}
	// Analytic optimum. The cost curve is flat near the minimum, so the
	// argmins can differ; what matters is that the analytically chosen
	// block width costs within 10% of the measured optimum.
	dist := stats.GeometricGapWidthDist(p, 40)
	aB, _ := OptimalBlockBits(dist, 16)
	cA, _ := NewCodec(aB)
	analyticCost := cA.EncodeDeltas(deltas).Bits
	if float64(analyticCost) > 1.10*float64(bestBits) {
		t.Errorf("analytic block %d costs %d bits, measured optimum block %d costs %d",
			aB, analyticCost, bestB, bestBits)
	}
}

func TestDecodeTruncated(t *testing.T) {
	c, _ := NewCodec(8)
	enc := c.EncodeDeltas([]uint64{1000})
	enc.Bits -= 4 // corrupt
	if _, err := c.DecodeDeltas(enc); err == nil {
		t.Error("truncated stream decoded")
	}
}
