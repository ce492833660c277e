package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mwmerge/internal/matrix"
)

// TestParseSpecGenerators checks that generator:nodes[:degree[:seed]]
// reaches graph.Generate, which is tested over every generator in its
// own package.
func TestParseSpecGenerators(t *testing.T) {
	a, err := parseSpec("rmat:1000:4:2")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 512 || a.NNZ() == 0 {
		t.Errorf("rmat:1000:4:2: %d rows, %d nnz; want 512 rows", a.Rows, a.NNZ())
	}
}

// TestParseSpecFile checks that a spec that is not a generator reaches
// matrix.ReadFile, which is tested over every format in its own package.
func TestParseSpecFile(t *testing.T) {
	m, err := parseSpec("er:400:3:5")
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

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"er:", "er:abc", "er:10:x", "er:10:3:y", "er:10:3:1:9", "/no/such/file",
		"er:1000:NaN", "zipf:1000:-3", "rmat:18446744073709551615",
	} {
		if _, err := parseSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
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
	// The store-queue drain, the merge kernel and both worker counts are
	// picked by rule (prap.DrainAuto, prap.KernelMergePath,
	// engineWorkers); the daemon offers no override.
	for _, flag := range []string{"-drain", "-merge-kernel", "-workers", "-merge-workers"} {
		if code := run([]string{flag, "1", "-matrix", "g=er:100:3:1"}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2 (unknown flag)", flag, code)
		}
	}
	if code := run([]string{"-addr", ":0"}, &out, &errOut); code != 2 {
		t.Errorf("no matrices: exit %d, want 2", code)
	}
	// 2^54+1 KiB would wrap to a 1 KiB scratchpad and serve.
	errOut.Reset()
	if code := run([]string{"-scratch", "18014398509481985", "-addr", "127.0.0.1:0", "-matrix", "g=er:100:3:1"}, &out, &errOut); code != 2 {
		t.Errorf("-scratch 2^54+1: exit %d, want 2", code)
	}
	if got := errOut.String(); !strings.HasPrefix(got, "spmvd: -scratch 18014398509481985: ") {
		t.Errorf("-scratch 2^54+1: stderr %q, want a -scratch error", got)
	}
	if code := run([]string{"-matrix", "g=er:"}, &out, &errOut); code != 1 {
		t.Errorf("bad spec: exit %d, want 1", code)
	}
	// A NaN degree is a generator error at startup, not a makeslice panic.
	errOut.Reset()
	if code := run([]string{"-matrix", "g=er:1000:NaN"}, &out, &errOut); code != 1 {
		t.Errorf("NaN degree: exit %d, want 1", code)
	}
	if got := errOut.String(); !strings.HasPrefix(got, "spmvd: matrix g: graph: ") {
		t.Errorf("NaN degree: stderr %q, want a graph: error", got)
	}
	// A negative default deadline is refused, not served as none.
	errOut.Reset()
	if code := run([]string{"-deadline", "-1s", "-addr", "127.0.0.1:0", "-matrix", "g=er:100:3:1"}, &out, &errOut); code != 1 {
		t.Errorf("-deadline -1s: exit %d, want 1", code)
	}
	if got := errOut.String(); !strings.HasPrefix(got, "spmvd: serve: negative default deadline") {
		t.Errorf("-deadline -1s: stderr %q, want a serve: error", got)
	}
}

// TestEngineWorkers holds the pool's core split: each engine gets
// GOMAXPROCS/pool goroutines for step 1 and the merge, and at least one.
func TestEngineWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ pool, want int }{
		{1, 4},
		{2, 2},
		{3, 1},
		{8, 1}, // more engines than cores: one each, never zero
	} {
		if got := engineWorkers(tc.pool); got != tc.want {
			t.Errorf("pool %d on 4 procs: %d workers per engine, want %d", tc.pool, got, tc.want)
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
