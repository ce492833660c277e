package matrix

import (
	"bufio"
	"bytes"
	"os"
)

// ReadFile loads the matrix at path in whichever of the three formats
// its first bytes name: the binary interchange magic, a MatrixMarket
// "%%" banner, or else a SNAP-style edge list.
func ReadFile(path string) (*COO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	head, _ := br.Peek(len(binMagic))
	switch {
	case bytes.Equal(head, binMagic[:]):
		return ReadBinary(br)
	case bytes.HasPrefix(head, []byte("%%")):
		return ReadMatrixMarket(br)
	}
	return ReadEdgeList(br, 0)
}
