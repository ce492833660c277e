# Convenience targets for the mwmerge reproduction.

GO ?= go

.PHONY: all build vet fmt test test-1cpu race bench-selftest bench-smoke cover bench experiments golden report serve-smoke examples fuzz clean

all: build vet fmt test test-1cpu race bench-selftest golden examples

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file gofmt-clean, the nested benchmarks/ module included.
fmt:
	test -z "$$(gofmt -l .)"

# Includes the root invariants tests (invariants_test.go: snapshot
# aliasing, numeric-package determinism, package docs); DESIGN.md §7
# maps every invariant to its guard.
test:
	$(GO) test ./...

# The engine's worker counts default to GOMAXPROCS, and CI runners have
# at least two cores: run the engine, serving and CLI tests on one, so
# the one-worker default (and ITS with one step-1 worker beside step 2)
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

# Short fuzz pass (CI's fuzz job) over the VLDI codec (round trip; the
# streaming sizer equal to the encoder, which the plan's once-per-plan
# VLDI sizes rest on; a bit reader that never panics on garbage), the
# three matrix file readers spmvd loads from outside the program (Matrix
# Market, binary, edge list), the PRaP routing (sentinel rejection and
# agreement with the bitonic pre-sorter), the Merge Path kernel against
# both reference mergers, the sparse vs dense store-queue drains, and the
# engine's step 2 (the ordered segment accumulator) against the PRaP
# network it replaces on the host, bit for bit and statistic for
# statistic, the engine's plan built from several ranges of the entries
# against the one-range build, plan for plan and error for error, and
# the ITS schedule of Iterate and PageRank against the sequential one,
# bit for bit and ledger for ledger less the transitions kept on chip.
fuzz:
	$(GO) test -fuzz=FuzzDeltaRoundTrip -fuzztime=10s ./internal/vldi/
	$(GO) test -fuzz=FuzzSizeMatchesEncode -fuzztime=10s ./internal/vldi/
	$(GO) test -fuzz=FuzzBitReaderNeverPanics -fuzztime=10s ./internal/vldi/
	$(GO) test -fuzz=FuzzReadMatrixMarket -fuzztime=10s ./internal/matrix/
	$(GO) test -fuzz=FuzzReadBinary -fuzztime=10s ./internal/matrix/
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=10s ./internal/matrix/
	$(GO) test -fuzz=FuzzRouteLists -fuzztime=10s ./internal/prap/
	$(GO) test -fuzz=FuzzDrainModes -fuzztime=10s ./internal/prap/
	$(GO) test -fuzz=FuzzMergeKernels -fuzztime=10s ./internal/merge/
	$(GO) test -fuzz=FuzzStep2MatchesMergeInto -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzPlanBuild -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzIterateSchedulesAgree -fuzztime=10s ./internal/core/

clean:
	rm -rf out test_output.txt bench_output.txt
