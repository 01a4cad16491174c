#!/bin/sh
# Kernel-throughput bench driver: runs micro_kernel's production-
# vs-legacy EventQueue comparison plus the micro_txn end-to-end rows,
# and folds the per-run reports into one BENCH_kernel.json.
#
#   bench/run_bench.sh [BUILD_DIR] [OUT_JSON] [CACHE_OUT_JSON]
#
# Defaults: BUILD_DIR=build, OUT_JSON=BENCH_kernel.json and
# CACHE_OUT_JSON=BENCH_sweep_cache.json (in the current directory).
# Shell + the bench binaries only — no python.
# The kernel events/sec come from the "perf" objects micro_kernel
# emits ("legacyPerf" carries the pre-overhaul baseline), so the
# speedup is readable straight off the file.
# BENCH_sweep_cache.json records the cold-vs-warm wall clock of one
# identical sweep re-run against the result cache (DESIGN.md §10).
set -eu

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_kernel.json}
CACHE_OUT=${3:-BENCH_sweep_cache.json}

KERNEL="$BUILD_DIR/bench/micro_kernel"
TXN="$BUILD_DIR/bench/micro_txn"
ABLATION="$BUILD_DIR/bench/ablation_lease_time"
for bin in "$KERNEL" "$TXN" "$ABLATION"; do
    if [ ! -x "$bin" ]; then
        echo "run_bench.sh: $bin not built (cmake --build $BUILD_DIR)" >&2
        exit 1
    fi
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Kernel dispatch rows: production EventQueue vs the embedded legacy
# queue at every default pending-set size, repeat=3 best-kept inside
# the harness.
echo "== micro_kernel ==" >&2
"$KERNEL" --ops 1000000 --repeat 3 --json "$TMP/kernel.json" >&2

# End-to-end transaction path (serial kernel; per-workload rows).
echo "== micro_txn ==" >&2
"$TXN" --churn-ops 50000 --workloads adpcm,fft --repeat 2 \
    --json "$TMP/txn.json" >&2

# Fold the reports into one file. Each per-run report is a complete
# JSON object; BENCH_kernel.json nests them verbatim.
{
    printf '{"bench":"BENCH_kernel","kernel":'
    cat "$TMP/kernel.json"
    printf ',"txn":'
    cat "$TMP/txn.json"
    printf '}\n'
} | tr -d '\n' > "$OUT"
echo "" >> "$OUT"

echo "wrote $OUT" >&2

# Result-cache cold-vs-warm: the same sweep twice against a fresh
# private cache. The first pass simulates and populates the cache;
# the second replays every point from disk. date +%s%N is GNU
# coreutils (nanoseconds), which the bench environments ship.
CACHE_DIR="$TMP/result-cache"
echo "== ablation_lease_time (cold) ==" >&2
c0=$(date +%s%N)
"$ABLATION" --small --jobs 2 --cache-dir "$CACHE_DIR" \
    --json "$TMP/sweep_cold.json" >&2
c1=$(date +%s%N)
echo "== ablation_lease_time (warm) ==" >&2
w0=$(date +%s%N)
"$ABLATION" --small --jobs 2 --cache-dir "$CACHE_DIR" \
    --json "$TMP/sweep_warm.json" >&2
w1=$(date +%s%N)

# Cache counters straight out of the warm report's "cache" object.
WARM_CACHE=$(sed -n 's/.*"cache":{\([^}]*\)}.*/{\1}/p' \
    "$TMP/sweep_warm.json")
[ -n "$WARM_CACHE" ] || WARM_CACHE='{}'

awk -v c0="$c0" -v c1="$c1" -v w0="$w0" -v w1="$w1" \
    -v cache="$WARM_CACHE" 'BEGIN {
    cold = (c1 - c0) / 1e9
    warm = (w1 - w0) / 1e9
    printf "{\"bench\":\"BENCH_sweep_cache\"," \
           "\"harness\":\"ablation_lease_time --small --jobs 2\"," \
           "\"coldSeconds\":%.3f,\"warmSeconds\":%.3f," \
           "\"speedup\":%.2f,\"warmCache\":%s}\n",
           cold, warm, (warm > 0 ? cold / warm : 0), cache
}' > "$CACHE_OUT"

echo "wrote $CACHE_OUT" >&2
