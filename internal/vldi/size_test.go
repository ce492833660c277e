package vldi

import (
	"math/rand"
	"testing"
)

// TestSizeDeltasMatchesEncode proves the size-only path byte-exact
// against real encoding across block widths and delta shapes.
func TestSizeDeltasMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][]uint64{
		nil,
		{0},
		{0, 0, 0},
		{1, 127, 128, 1 << 20, ^uint64(0)},
	}
	for i := 0; i < 32; i++ {
		n := rng.Intn(64)
		deltas := make([]uint64, n)
		for j := range deltas {
			deltas[j] = rng.Uint64() >> uint(rng.Intn(64))
		}
		cases = append(cases, deltas)
	}
	for block := 1; block <= 63; block++ {
		c, err := NewCodec(block)
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		for ci, deltas := range cases {
			want := c.EncodeDeltas(deltas).Bytes()
			if got := c.SizeDeltas(deltas); got != want {
				t.Fatalf("block %d case %d: SizeDeltas %d != encoded %d", block, ci, got, want)
			}
		}
	}
}

// TestDeltaSizerMatchesKeyEncoding proves the streaming sizer equals
// the materialized DeltasFromKeys + EncodeDeltas pipeline, key by key.
func TestDeltaSizerMatchesKeyEncoding(t *testing.T) {
	c, err := NewCodec(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 64; trial++ {
		n := rng.Intn(100)
		keys := make([]uint64, 0, n)
		cur := uint64(rng.Intn(10))
		for len(keys) < n {
			keys = append(keys, cur)
			cur += 1 + uint64(rng.Intn(1<<uint(rng.Intn(20))))
		}
		deltas, err := DeltasFromKeys(keys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := c.EncodeDeltas(deltas)

		s := c.NewSizer()
		for _, k := range keys {
			if err := s.AddKey(k); err != nil {
				t.Fatalf("trial %d: AddKey(%d): %v", trial, k, err)
			}
		}
		if s.Bits() != want.Bits {
			t.Fatalf("trial %d: sizer bits %d != encoded %d", trial, s.Bits(), want.Bits)
		}
		if s.Bytes() != want.Bytes() {
			t.Fatalf("trial %d: sizer bytes %d != encoded %d", trial, s.Bytes(), want.Bytes())
		}
		if s.Count() != len(keys) {
			t.Fatalf("trial %d: count %d != %d", trial, s.Count(), len(keys))
		}
	}
}

// TestDeltaSizerRejectsNonAscending mirrors the DeltasFromKeys contract:
// equal or descending keys fail, and the first key may be anything.
func TestDeltaSizerRejectsNonAscending(t *testing.T) {
	c, err := NewCodec(8)
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewSizer()
	if err := s.AddKey(5); err != nil {
		t.Fatalf("first key rejected: %v", err)
	}
	if err := s.AddKey(5); err == nil {
		t.Fatal("equal key accepted")
	}
	s.Reset()
	if err := s.AddKey(0); err != nil {
		t.Fatalf("first key after Reset rejected: %v", err)
	}
	if s.Bits() == 0 || s.Count() != 1 {
		t.Fatalf("post-Reset state wrong: bits %d count %d", s.Bits(), s.Count())
	}
	if err := s.AddKey(^uint64(0)); err != nil {
		t.Fatalf("max key rejected: %v", err)
	}
	if err := s.AddKey(0); err == nil {
		t.Fatal("descending key accepted")
	}
}

// TestDeltaSizerReset verifies Reset produces the same totals as a fresh
// sizer for the same stream.
func TestDeltaSizerReset(t *testing.T) {
	c, err := NewCodec(4)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{3, 9, 1000, 1001}
	s := c.NewSizer()
	for _, k := range keys {
		if err := s.AddKey(k); err != nil {
			t.Fatal(err)
		}
	}
	first := s.Bytes()
	s.Reset()
	if s.Bits() != 0 || s.Count() != 0 {
		t.Fatalf("Reset left state: bits %d count %d", s.Bits(), s.Count())
	}
	for _, k := range keys {
		if err := s.AddKey(k); err != nil {
			t.Fatal(err)
		}
	}
	if s.Bytes() != first {
		t.Fatalf("second pass %d != first %d", s.Bytes(), first)
	}
}
