#!/usr/bin/env bash
# Build pri_perf from the checkout's sources and run it. Every
# argument is passed on to pri_perf; see bench/perf/README.md.
#
#   bench/perf/run.sh                          # every workload, seed 1
#   bench/perf/run.sh --workload long_run --seed 3 --seconds 20 --trace 0
#   bench/perf/run.sh --smoke
#   bench/perf/run.sh --compare A.json B.json
#
# Build output goes to stderr, so the last line of stdout is always
# pri_perf's JSON result. The build tree is $CARGO_TARGET_DIR/perf
# (default .bench_build/perf), relative to the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

if [[ ! -f src/CMakeLists.txt ]]; then
    echo "run.sh: no simulator sources at $root/src" >&2
    exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}/perf"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then
    jobs=4
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S bench/perf -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2

rev=unknown
if [[ -e .git ]]; then
    rev="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/pri_perf" --rev "$rev" "$@"
