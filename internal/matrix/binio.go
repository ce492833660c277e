package matrix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary interchange format for large synthetic graphs: a fixed header
// followed by delta-friendly little-endian triplets. Non-trivially faster
// and ~3x smaller than MatrixMarket for the multi-hundred-megabyte
// instances cmd/graphgen emits.
//
//	magic   [8]byte  "MWMCOO1\n"
//	rows    uint64
//	cols    uint64
//	nnz     uint64
//	entries nnz × (row uint64, col uint64, val float64)

var binMagic = [8]byte{'M', 'W', 'M', 'C', 'O', 'O', '1', '\n'}

// WriteBinary serializes m in the binary interchange format.
func WriteBinary(w io.Writer, m *COO) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	hdr := []uint64{m.Rows, m.Cols, uint64(len(m.Entries))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, e := range m.Entries {
		if err := binary.Write(bw, binary.LittleEndian, e.Row); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, e.Col); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, e.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary interchange format.
func ReadBinary(r io.Reader) (*COO, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("matrix: reading binary magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("matrix: bad binary magic %q", magic[:])
	}
	var rows, cols, nnz uint64
	for _, p := range []*uint64{&rows, &cols, &nnz} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("matrix: reading binary header: %w", err)
		}
	}
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, rows, cols)
	}
	const maxNNZ = 1 << 34
	if nnz > maxNNZ {
		return nil, fmt.Errorf("matrix: binary nnz %d exceeds sanity cap", nnz)
	}
	// The header's count is not trusted for the allocation: a short file
	// claiming 2^34 entries must fail at its end, not reserve 384 GiB
	// first. Memory grows with the entries actually read.
	entries := make([]Entry, 0, min(nnz, 1<<16))
	for i := uint64(0); i < nnz; i++ {
		var e Entry
		if err := binary.Read(br, binary.LittleEndian, &e.Row); err != nil {
			return nil, fmt.Errorf("matrix: entry %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &e.Col); err != nil {
			return nil, fmt.Errorf("matrix: entry %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &e.Val); err != nil {
			return nil, fmt.Errorf("matrix: entry %d: %w", i, err)
		}
		entries = append(entries, e)
	}
	return NewCOO(rows, cols, entries)
}
