#!/usr/bin/env bash
# Builds spmvperf from source into .bench_build/ at the root of the
# checkout and runs it with the given flags. Every file the Go toolchain
# writes (build cache, telemetry) is kept under .bench_build/ as well, so
# a run reads and writes only inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -buildvcs=false -o "$build/spmvperf" ./spmvperf)
cd "$root"
# Hand freed memory back to the kernel lazily (MADV_FREE). With the
# default, whether a repetition's large allocations land on pages the
# runtime had just returned (and fault them in again, at about 2 ms per
# MB in this sandbox) or on retained ones is a matter of timing, and
# that alone made SpMSpV on hyper_dim read 11 ms or 20 ms from run to run.
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$build/spmvperf" "$@"
