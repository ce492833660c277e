package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
)

func TestParseSpecGenerators(t *testing.T) {
	cases := []struct {
		spec  string
		nodes uint64
	}{
		{"er:1000", 1000},
		{"er:1000:4:2", 1000},
		{"zipf:500:3:1", 500},
		{"rmat:1024:3:1", 1024},
	}
	for _, tc := range cases {
		a, err := parseSpec(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if a.Rows != tc.nodes {
			t.Errorf("%s: %d rows, want %d", tc.spec, a.Rows, tc.nodes)
		}
		if a.NNZ() == 0 {
			t.Errorf("%s: empty graph", tc.spec)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{"er:", "er:abc", "er:10:x", "er:10:3:y", "er:10:3:1:9", "/no/such/file"} {
		if _, err := parseSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParseSpecFile(t *testing.T) {
	m, err := graph.ErdosRenyi(400, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := matrix.WriteMatrixMarket(f, m); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := parseSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != m.Rows || got.NNZ() != m.NNZ() {
		t.Errorf("round trip %dx%d/%d, want %dx%d/%d", got.Rows, got.Cols, got.NNZ(), m.Rows, m.Cols, m.NNZ())
	}
}

func TestMatrixListFlag(t *testing.T) {
	var l matrixList
	if err := l.Set("a=er:100"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("b=er:200"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("a=er:300"); err == nil {
		t.Error("duplicate name accepted")
	}
	for _, bad := range []string{"noequals", "=spec", "name="} {
		if err := l.Set(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if s := l.String(); !strings.Contains(s, "a=er:100") || !strings.Contains(s, "b=er:200") {
		t.Errorf("String() = %q", s)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	// The store-queue drain and the merge kernel are picked by rule
	// (prap.DrainAuto, prap.KernelMergePath); the daemon offers no
	// override.
	for _, flag := range []string{"-drain", "-merge-kernel"} {
		if code := run([]string{flag, "x", "-matrix", "g=er:100:3:1"}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2 (unknown flag)", flag, code)
		}
	}
	if code := run([]string{"-addr", ":0"}, &out, &errOut); code != 2 {
		t.Errorf("no matrices: exit %d, want 2", code)
	}
	if code := run([]string{"-matrix", "g=er:"}, &out, &errOut); code != 1 {
		t.Errorf("bad spec: exit %d, want 1", code)
	}
	for flag, want := range map[string]string{
		"-workers":       "core: workers must be non-negative",
		"-merge-workers": "prap: merge workers must be non-negative",
	} {
		errOut.Reset()
		if code := run([]string{"-matrix", "g=er:100:3:1", flag, "-3"}, &out, &errOut); code != 1 {
			t.Errorf("%s -3: exit %d, want 1", flag, code)
		}
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("%s -3: stderr %q lacks %q", flag, errOut.String(), want)
		}
	}
}

// TestHeaderTimeoutClosesSilentConnection checks the server drops a
// connection that never sends a request line, instead of parking a
// goroutine on it for good.
func TestHeaderTimeoutClosesSilentConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler(), 50*time.Millisecond)
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Our own deadline only bounds the test; the server must hang up
	// first, which reads as EOF, not as a timeout.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a silent connection: %v, want EOF from the server closing it", err)
	}
}

// TestRunSmoke runs the full serve-smoke self-check: daemon up on a
// loopback port, PageRank over HTTP, /metrics scrape verified against a
// direct engine run.
func TestRunSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke"}, &out, &errOut); code != 0 {
		t.Fatalf("smoke exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "smoke: OK") {
		t.Errorf("smoke output missing OK: %s", out.String())
	}
}
