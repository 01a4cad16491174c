#!/bin/sh
# Byte-identity check against another checkout (the parent of a
# change, say): builds this repository and CHECKOUT, runs the same
# simulations on both and compares what they print.
#
#   bench/compare_outputs.sh CHECKOUT
#
# Each checkout is built in Release into its own
# .bench_build/compare/ (the build type fusionbench/run.py uses);
# the outputs go to a temporary directory that is removed on exit.
# Compared, byte for byte:
#   - example_simulate stdout and its --stats dump for 7 workloads x
#     {the 5 static kinds, auto} x {small, --paper};
#   - the same at small scale with an 8 KiB L0X and scratchpad
#     (--l0x 8192 --spm 8192), for every kind with either (all but
#     shared): their first hop takes 2 cycles, the path on which the
#     replay core does not fold its next issue into the hop;
#   - ablation_auto_mode --no-cache stdout at --small and at paper
#     scale;
#   - table1_characteristics --no-cache stdout at --small and at
#     paper scale (the one harness that runs core::hostProfile);
#   - table2_system_params stdout at --small and at paper scale (it
#     prints the host side's Table 2 constants);
#   - fault_campaign --small --trials 96 --no-cache stdout for seeds
#     1, 5 and 11 (the guarded link path: dropped, reordered and
#     duplicated flits).
# That is 247 files per side.
# Compares every file: names each one that differs, with the head of
# its diff, on stderr. Prints "M/N identical" and, when any file
# differs, "K/N differ" and exits 1.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 CHECKOUT" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
OTHER=$(cd "$1" && pwd)

WORKLOADS="adpcm fft disparity tracking susan filter histogram"
KINDS="scratch shared fusion fusion-dx fusion-mesi auto"
KINDS_8K="scratch fusion fusion-dx fusion-mesi auto"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# quiet CMD...: run CMD, showing its output only when it fails.
quiet() {
    if ! "$@" > "$TMP/quiet.log" 2>&1; then
        cat "$TMP/quiet.log" >&2
        exit 1
    fi
}

# build CHECKOUT: configure once, then build the five binaries.
build() {
    dir="$1/.bench_build/compare"
    echo "compare_outputs.sh: building $1" >&2
    if [ ! -f "$dir/CMakeCache.txt" ]; then
        quiet cmake -S "$1" -B "$dir" -DCMAKE_BUILD_TYPE=Release
    fi
    quiet cmake --build "$dir" -j 4 --target example_simulate \
        ablation_auto_mode table1_characteristics table2_system_params \
        fault_campaign
}

# run CHECKOUT SIDE: every simulation, outputs under $TMP/SIDE. The
# runs use relative --stats paths so stdout names the same file on
# both sides.
run() {
    bin="$1/.bench_build/compare"
    mkdir "$TMP/$2"
    echo "compare_outputs.sh: running $2" >&2
    (
        cd "$TMP/$2"
        for scale in small paper; do
            flag=
            [ "$scale" = paper ] && flag=--paper
            for w in $WORKLOADS; do
                for k in $KINDS; do
                    name="$w.$k.$scale"
                    if ! "$bin/examples/example_simulate" -w "$w" \
                        -s "$k" $flag --stats "$name.stats" \
                        > "$name.out"; then
                        echo "compare_outputs.sh: $2: $name failed" >&2
                        exit 1
                    fi
                done
            done
        done
        for w in $WORKLOADS; do
            for k in $KINDS_8K; do
                name="$w.$k.small-8k"
                if ! "$bin/examples/example_simulate" -w "$w" \
                    -s "$k" --l0x 8192 --spm 8192 \
                    --stats "$name.stats" > "$name.out"; then
                    echo "compare_outputs.sh: $2: $name failed" >&2
                    exit 1
                fi
            done
        done
        "$bin/bench/ablation_auto_mode" --small --no-cache \
            --jobs 2 > auto_mode.small.out
        "$bin/bench/ablation_auto_mode" --no-cache --jobs 2 \
            > auto_mode.paper.out
        "$bin/bench/table1_characteristics" --small --no-cache \
            > table1.small.out
        "$bin/bench/table1_characteristics" --no-cache \
            > table1.paper.out
        "$bin/bench/table2_system_params" --small > table2.small.out
        "$bin/bench/table2_system_params" > table2.paper.out
        for seed in 1 5 11; do
            "$bin/bench/fault_campaign" --small --trials 96 \
                --no-cache --seed "$seed" > "campaign.seed$seed.out"
        done
    )
}

build "$OTHER"
build "$ROOT"
run "$OTHER" other
run "$ROOT" this

n=0
k=0
for f in $(cd "$TMP/other" && ls); do
    n=$((n + 1))
    if ! cmp -s "$TMP/other/$f" "$TMP/this/$f"; then
        k=$((k + 1))
        echo "compare_outputs.sh: $f differs ($OTHER vs $ROOT):" >&2
        diff "$TMP/other/$f" "$TMP/this/$f" | head -n 20 >&2 || true
    fi
done
if [ "$(cd "$TMP/this" && ls | wc -l)" -ne "$n" ]; then
    echo "compare_outputs.sh: the two sides wrote different files" >&2
    exit 1
fi
echo "$((n - k))/$n identical"
if [ "$k" -ne 0 ]; then
    echo "$k/$n differ"
    exit 1
fi
