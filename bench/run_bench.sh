#!/bin/sh
# Perf trajectory driver: runs the end-to-end benchmark
# (fusionbench/run.py over BENCHMARK.json's workloads, each run with
# BENCHMARK.json's run_seconds) on one checkout and appends one row
# for it to BENCH_e2e.json and BENCH_layers.json at the root of this
# repository.
#
#   bench/run_bench.sh [CHECKOUT]
#
# CHECKOUT defaults to this repository. Pass a clone of another
# commit (the parent of a change, say) to record its row here too.
#
# For each workload it runs --trace 0 three times (seeds 1..3) and
# keeps the correct run with the lowest wall_s for BENCH_e2e.json,
# then runs --trace 1 three times (seeds 1..3) and keeps each
# metric's median over the correct traced runs for BENCH_layers.json:
# one traced run's drift correction can swing a per-layer time by
# more than the change being measured. A workload without a correct
# run of either kind fails the script and appends nothing. Both rows
# carry the commit, the host's CPU count and the traced runs' median
# bench.drift. A checkout with uncommitted changes to tracked
# files other than *.md and BENCH_*.json is labelled
# "<commit>-dirty-<hash>": the first 12 digits of
# `git diff <commit> --binary -- . ':(exclude)*.md'
# ':(exclude)BENCH_*.json' | git hash-object --stdin`, which the
# same diff between two commits reproduces. The files are JSON arrays
# with one row per line.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
CHECKOUT=$(cd "${1:-$ROOT}" && pwd)
SPEC="$CHECKOUT/BENCHMARK.json"
SECONDS_PER_RUN=$(python3 -c \
    'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$SPEC")
WORKLOADS=$(python3 -c \
    'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$SPEC")

COMMIT=$(git -C "$CHECKOUT" rev-parse --short=12 HEAD)
if [ -n "$(git -C "$CHECKOUT" status --porcelain --untracked-files=no \
        -- . ':(exclude)*.md' ':(exclude)BENCH_*.json')" ]; then
    DIFF=$(git -C "$CHECKOUT" diff HEAD --binary -- . ':(exclude)*.md' \
        ':(exclude)BENCH_*.json' | git hash-object --stdin | cut -c1-12)
    COMMIT="$COMMIT-dirty-$DIFF"
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# One run.py call; its last stdout line is the result (empty when
# the run produced none).
run() {
    (cd "$CHECKOUT" && python3 fusionbench/run.py --workload "$1" \
        --seed "$2" --seconds "$SECONDS_PER_RUN" --trace "$3") |
        tail -n 1 > "$4"
}

for w in $WORKLOADS; do
    for seed in 1 2 3; do
        echo "run_bench.sh: $w --trace 0 --seed $seed" >&2
        run "$w" "$seed" 0 "$TMP/$w.e2e.$seed"
    done
    for seed in 1 2 3; do
        echo "run_bench.sh: $w --trace 1 --seed $seed" >&2
        run "$w" "$seed" 1 "$TMP/$w.layers.$seed"
    done
done

python3 - "$ROOT" "$TMP" "$COMMIT" "$SECONDS_PER_RUN" $WORKLOADS <<'EOF'
import datetime
import json
import os
import statistics
import sys
from pathlib import Path

root, tmp, commit, seconds, *workloads = sys.argv[1:]
tmp = Path(tmp)


def load(path):
    """A run's result if it printed one with correct: true, else None
    (with a warning)."""
    try:
        result = json.loads(path.read_text())
    except (OSError, ValueError):
        result = None
    if result is None or result.get("correct") is not True:
        print(f"run_bench.sh: {path.name}: no correct result",
              file=sys.stderr)
        return None
    return result


def flat(result):
    """correct/attempted/failed plus every metric's value."""
    row = {k: result[k] for k in ("correct", "attempted", "failed")}
    row.update({n: m["value"] for n, m in result["metrics"].items()})
    return row


def append(name, row):
    path = Path(root) / name
    rows = json.loads(path.read_text()) if path.exists() else []
    rows.append(row)
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) +
                    "\n]\n")
    print(f"run_bench.sh: appended {commit} to {path}", file=sys.stderr)


head = {"commit": commit,
        "date": datetime.date.today().isoformat(),
        "cpus": os.cpu_count(),
        "seconds": float(seconds)}
e2e = dict(head, runs=3, workloads={})
layers = dict(head, runs=3, workloads={})
missing = []
for w in workloads:
    runs, traced = ([r for r in (load(tmp / f"{w}.{kind}.{s}")
                                 for s in (1, 2, 3)) if r is not None]
                    for kind in ("e2e", "layers"))
    if not runs or not traced:
        missing.append(w)
        continue
    best = min(runs, key=lambda r: r["metrics"]["wall_s"]["value"])
    traced = [flat(r) for r in traced]
    traced = {k: traced[0][k] if k == "correct" else
              statistics.median(r[k] for r in traced)
              for k in traced[0]}
    e2e["workloads"][w] = dict(flat(best),
                               **{"bench.drift": traced["bench.drift"]})
    layers["workloads"][w] = traced
if missing:
    sys.exit(f"run_bench.sh: no correct run for {', '.join(missing)}; "
             "nothing appended")
append("BENCH_e2e.json", e2e)
append("BENCH_layers.json", layers)
EOF
