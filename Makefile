# Convenience targets for the mwmerge reproduction.

GO ?= go

.PHONY: all build vet fmt test test-1cpu race bench-selftest bench-smoke cover bench experiments golden report serve-smoke examples fuzz clean

# Every CI verify step that writes nothing into out/.
all: build vet fmt test test-1cpu race bench-selftest bench-smoke golden examples

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file gofmt-clean, the nested benchmarks/ module included.
fmt:
	test -z "$$(gofmt -l .)"

# Includes the root invariants tests (invariants_test.go:
# numeric-package determinism, package docs); DESIGN.md §7 maps every
# invariant to its guard.
test:
	$(GO) test ./...

# The engine's worker counts default to GOMAXPROCS, and CI runners have
# at least two cores: run the engine, serving and CLI tests on one, so
# the one-worker default of step 1, step 2 and PageRank's vector sums
# stays tested. -count=1: the test cache does not key on GOMAXPROCS, so
# a cached multi-core result would stand in for the one-core run.
test-1cpu:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/core ./internal/serve ./cmd/...

# The data-race guard for the parallel step-1 and merge paths (captured
# writes in worker closures, dense-result writes outside the drain).
race:
	$(GO) test -race ./...

# The benchmark (benchmarks/, BENCHMARK.json) is a nested module that
# imports mwmerge/internal/..., so `go test ./...` at the root never
# builds it: vet it and run its self-test here, or an internal/ change
# that breaks the benchmark goes unnoticed until the benchmark runs.
bench-selftest:
	$(GO) -C benchmarks vet ./...
	$(GO) -C benchmarks test ./...

# One pass of the PageRank-vs-Iterate iteration benchmark (a few
# seconds), so it keeps building and running; its pagerank/iterate
# metric is the per-iteration cost of PageRank's vector work.
bench-smoke:
	$(GO) test -run '^$$' -bench PageRankIteration -benchtime=1x .

cover:
	$(GO) test -cover ./internal/...

# One testing.B pass per table/figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Regenerate every table and figure into out/, at the scale the
# checked-in out/ was made at (golden compares against it).
GOLDEN_SCALE = 65536

experiments:
	$(GO) run ./cmd/spmvbench -exp all -scale $(GOLDEN_SCALE) -o out

# Regenerate every table and figure into a temporary directory and fail
# on any difference from the checked-in out/. host-baseline.txt is
# wall-clock and differs run to run; the run-report artifacts (make
# report, spmvbench -report) are not experiment output.
golden:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/spmvbench -exp all -scale $(GOLDEN_SCALE) -o "$$tmp" >/dev/null && \
	diff -r -x host-baseline.txt -x '*.report.json' -x '*.gantt.txt' -x '*.prom' out "$$tmp"

# Regenerate the documented example run report (EXPERIMENTS.md §run
# reports): a PageRank-style overlapped iterative run with the JSON
# report, Prometheus exposition, and span-lane Gantt chart in out/.
report:
	mkdir -p out
	$(GO) run ./cmd/spmvrun -gen zipf -nodes 50000 -degree 8 -seed 1 \
		-iters 5 -damping 0.85 -overlap -vldi 8 -hdn 500 \
		-report out/pagerank.report.json -prom out/pagerank.prom \
		-trace out/pagerank.gantt.txt

# End-to-end serving self-check: start spmvd on a loopback port, run
# PageRank over HTTP, scrape /metrics, and fail unless both the served
# ranks and the scraped ledger equal a direct engine run (DESIGN.md §10).
serve-smoke:
	$(GO) run ./cmd/spmvd -smoke

# Build and run every program under examples/ (~6 s in total). They are
# the library's documented entry points, so running them, not only
# compiling them, is what keeps the public surface honest. Each example
# exits non-zero when its own check fails.
examples:
	for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d >/dev/null || exit 1; \
	done

# Short fuzz pass (CI's fuzz job): every Fuzz target of every package,
# 10 s each, found with go test -list, so a new target cannot be left
# out. Among them: the VLDI codec (round trip; the streaming sizer equal
# to the encoder, which the plan's once-per-plan VLDI sizes rest on), the
# three matrix file readers spmvd loads from outside the program, the
# PRaP routing and drains, the Merge Path kernel, the engine's step 2
# against the PRaP network it replaces on the host, the plan built from
# several ranges of the entries against the one-range build, and Iterate
# and PageRank with overlap against the sequential run (the same bits,
# the books less the transitions ITS keeps on chip).
fuzz:
	for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for f in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "== $$pkg $$f"; \
			$(GO) test -fuzz="^$$f\$$" -fuzztime=10s $$pkg || exit 1; \
		done; \
	done

clean:
	rm -rf out test_output.txt bench_output.txt
