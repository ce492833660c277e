// Command spmvlint runs the project's static-analysis suite over the
// whole module: seven per-package analyzers enforcing the determinism,
// stats-alias, sentinel, traffic-ledger, goroutine-capture, dense-write
// and package-doc invariants the reproduction's correctness story
// depends on (see DESIGN.md §7).
//
// Usage:
//
//	spmvlint                      # lint the module rooted at the working directory
//	spmvlint -C path              # lint the module rooted at path
//	spmvlint -only determinism,sentinel
//	spmvlint -list                # list analyzers
//
// Exit status is 0 when the tree is clean, 1 when findings were
// reported, 2 on usage or load errors. Findings can be suppressed at the
// offending line with `//lint:allow <analyzer> <reason>`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mwmerge/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spmvlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root = fs.String("C", ".", "module root to lint")
		only = fs.String("only", "", "comma-separated analyzer subset (default: all)")
		list = fs.Bool("list", false, "list analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *only != "" {
		var err error
		analyzers, err = lint.Lookup(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(stderr, "spmvlint:", err)
			return 2
		}
	}

	pkgs, err := lint.LoadModule(*root)
	if err != nil {
		fmt.Fprintln(stderr, "spmvlint:", err)
		return 2
	}
	diags := lint.RunAnalyzers(pkgs, analyzers, lint.DefaultConfig())
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "spmvlint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
