package matrix

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestReadFileSniffsFormats writes one matrix in each format and reads
// every file back through the one sniffing entry point.
func TestReadFileSniffsFormats(t *testing.T) {
	m := randomCOO(t, 500, 500, 1500, 2)
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		write func(io.Writer, *COO) error
	}{
		{"g.mtx", WriteMatrixMarket},
		{"g.bin", WriteBinary},
		{"g.el", WriteEdgeList},
	} {
		path := filepath.Join(dir, tc.name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.write(f, m); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Rows != m.Rows || got.Cols != m.Cols || !reflect.DeepEqual(got.Entries, m.Entries) {
			t.Errorf("%s: read back %dx%d with %d nonzeros, want %dx%d with %d, entries equal",
				tc.name, got.Rows, got.Cols, got.NNZ(), m.Rows, m.Cols, m.NNZ())
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}
