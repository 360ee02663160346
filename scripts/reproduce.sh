#!/usr/bin/env bash
# Rebuilds everything, runs the test suite, and regenerates every figure
# of the paper's evaluation into results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build
ctest --test-dir build --output-on-failure

# Only the figure and comparison benches: the gate benches (bench_micro,
# bench_alloc, bench_migration, bench_fabric) pass or fail on thresholds
# and rewrite the committed BENCH_*.json files; scripts/ci.sh runs them.
mkdir -p results
for bench in build/bench/bench_fig* build/bench/bench_ablation \
    build/bench/bench_baseline; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  echo "== $name =="
  "$bench" | tee "results/$name.txt"
done
echo "All figure outputs written to results/."
