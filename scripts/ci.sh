#!/usr/bin/env bash
# CI entry point: release build + full test suite, the layered
# benchmark's output checks on its three workloads, an allocator churn
# smoke, the datapath overhead budgets (same-rig paired A/Bs), a
# regression gate against the committed bench baselines, a chaos soak
# (fault-injection digest-equality matrix), a migration soak, a fabric
# soak (multi-switch failure drill + leaf-spine chaos), then an
# ASan+UBSan job. The release and sanitize jobs treat a compiler warning
# as an error.
#
# Usage: scripts/ci.sh
#   [release|perfbench-smoke|alloc-bench|telemetry-overhead|
#    bench-regression|chaos-soak|migration-soak|fabric-soak|sanitize|all]
# (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

job="${1:-all}"

run_release() {
  echo "== release build + tests =="
  # A new compiler warning fails the build (CMake >= 3.24).
  cmake --preset default -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build --preset default
  ctest --preset default
}

run_perfbench_smoke() {
  echo "== perfbench smoke: benchmark output checks on every workload =="
  # perfbench/run.py builds src/ into .bench_build/perfbench and runs one
  # workload at held-out seed 2. Its last stdout line is the result: it
  # reports "correct": false on duplicate or unmatched results, a wrong
  # cache value, digest drift between repetitions, or fabric state loss,
  # and "failed" counts requests that never completed. Any of them fails
  # the job. Wall-clock numbers are printed but not gated here. The
  # workloads are the ones BENCHMARK.json lists.
  local workloads
  workloads="$(cd scripts && python3 -c \
      'from perf_pairs import workloads; print(" ".join(workloads()))')"
  for workload in $workloads; do
    echo "-- perfbench: $workload"
    result="$(python3 perfbench/run.py --workload "$workload" --seed 2 \
        --seconds 5 --trace 0 | tail -n 1)"
    echo "$result"
    if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "$result"; then
      echo "perfbench-smoke: $workload failed its output checks" >&2
      exit 1
    fi
  done
}

run_alloc_bench() {
  echo "== alloc bench: churn throughput smoke =="
  cmake --preset default
  cmake --build --preset default
  # bench_alloc drives Poisson churn through the allocator and the full
  # controller. ARTMT_BENCH_QUICK=1 shrinks event counts and skips the
  # 10k-resident run without touching BENCH_alloc.json. Placement
  # correctness is checked by test_alloc_golden's brute-force oracle.
  ARTMT_BENCH_QUICK=1 ./build/bench/bench_alloc
}

run_telemetry_overhead() {
  echo "== datapath overhead budgets: <=5% pps median, same-rig paired A/B =="
  cmake --preset default
  cmake --build --preset default
  # bench_micro runs the zero-copy datapath with telemetry recording, an
  # armed flight recorder and an idle fault injector each toggled off and
  # on in alternating blocks on one rig, and exits nonzero when a budget's
  # median pair overhead is above 5%. The same path's steady-state
  # allocation and cache/pool counts are a ctest case
  # (Datapath.ProgramCapsulesAllocateNothing).
  ./build/bench/bench_micro
}

run_bench_regression() {
  echo "== bench regression gate: committed bench baselines =="
  cmake --preset default
  cmake --build --preset default
  # Refresh BENCH_alloc.json from this checkout, then compare it and the
  # committed BENCH_migration.json / BENCH_fabric.json against their
  # baselines; more than a 10% regression in any section fails the job.
  # Allocator rates are compared only when the host fingerprints match.
  ./build/bench/bench_alloc
  python3 scripts/bench_compare.py
}

run_chaos_soak() {
  echo "== chaos soak: fault-injection digest-equality matrix =="
  cmake --preset default
  cmake --build --preset default
  # artmt_chaos runs the e2e cache + heavy-hitter + load-balancer scenario
  # fault-free and twice under scripted chaos (uniform loss, two link
  # flaps, a switch brownout with register wipe), and exits nonzero unless
  # every run converges to the same application-state digest and the two
  # chaos runs agree byte for byte (digest, injected faults, metrics
  # snapshot). The flight recorder is armed for every cell: each brownout
  # up-edge dumps the wiped switch's final span events, and on a failing
  # cell the dumps are surfaced in the job log before the matrix aborts.
  for seed in 1 7; do
    for loss in 0.005 0.01; do
      echo "-- chaos matrix: seed=$seed loss=$loss"
      flight_dir="$(mktemp -d)"
      if ! ./build/tools/artmt_chaos --requests 1000 --seed "$seed" \
          --loss "$loss" --flight-dir "$flight_dir"; then
        echo "-- chaos matrix FAILED (seed=$seed loss=$loss); flight dumps:" >&2
        for dump in "$flight_dir"/flight_*.json; do
          [ -e "$dump" ] || continue
          echo "---- $dump" >&2
          cat "$dump" >&2
        done
        rm -rf "$flight_dir"
        exit 1
      fi
      rm -rf "$flight_dir"
    done
  done
}

run_migration_soak() {
  echo "== migration soak: churn + faults matrix, disruption-bound gate =="
  cmake --preset default
  cmake --build --preset default
  # bench_migration runs the PoissonChurn soak with the migration engine
  # on vs off, then the live-migration scenario (cold tenant demoted, hot
  # tenant promoted, bystander disturbed under traffic) fault-free and
  # under a 2% uniform-loss FaultPlan, asserting that a repeated run is
  # byte-identical. ARTMT_BENCH_QUICK=1 shrinks the event counts and
  # skips the soak perf gate (and leaves BENCH_migration.json alone), but
  # the virtual-time gates stay at full strength: migrations must execute
  # in both the fault-free and faulted runs, every disturbed service must
  # recover within the 60-window (3 s) p99 bound, and any divergence
  # between the repeated runs fails the job.
  ARTMT_BENCH_QUICK=1 ./build/bench/bench_migration
  # The e2e scenario with the engine on must print the identical snapshot
  # on every run (the default config models compute): the engine's
  # counters, the controller's migration totals, the allocator's
  # per-stage layout and the hotness table.
  report1="$(./build/tools/artmt_stats --migration 2>/dev/null)"
  report2="$(./build/tools/artmt_stats --migration 2>/dev/null)"
  if [ "$report1" != "$report2" ]; then
    echo "migration-soak: repeated artmt_stats --migration runs diverge" >&2
    exit 1
  fi
}

run_fabric_soak() {
  echo "== fabric soak: multi-switch failure drill + leaf-spine chaos =="
  cmake --preset default
  cmake --build --preset default
  # bench_fabric runs the 4-leaf/2-spine failure drill: a leaf is killed
  # under live traffic, its services are evacuated and re-placed by the
  # global controller, then a spine flaps while clients keep sending.
  # ARTMT_BENCH_QUICK=1 shrinks the request schedule and leaves
  # BENCH_fabric.json alone, but the gates stay at full strength: p99
  # re-placement downtime within bound, zero state loss for
  # reliability-protected services, the victim serving again after
  # re-placement, and byte-identical digests across repeated runs.
  ARTMT_BENCH_QUICK=1 ./build/bench/bench_fabric
  # The four-leaf failure drill must print the identical global-controller
  # snapshot (placements, evacuations, unplaced, downtime histogram) on
  # every run.
  report1="$(./build/tools/artmt_stats --fabric 2>/dev/null)"
  report2="$(./build/tools/artmt_stats --fabric 2>/dev/null)"
  if [ "$report1" != "$report2" ]; then
    echo "fabric-soak: repeated artmt_stats --fabric runs diverge" >&2
    exit 1
  fi
  # The e2e chaos scenario must also converge on the leaf-spine fabric:
  # the same application-state digest in every run with faults injected
  # identically, now with the brownout wiping one leaf of a two-leaf
  # fabric instead of the lone switch.
  ./build/tools/artmt_chaos --topology leaf-spine --requests 600 \
      --seed 3 --loss 0.005
}

run_sanitize() {
  echo "== ASan+UBSan build + tests =="
  cmake --preset asan-ubsan -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build --preset asan-ubsan
  ctest --preset asan-ubsan
}

case "$job" in
  release) run_release ;;
  perfbench-smoke) run_perfbench_smoke ;;
  alloc-bench) run_alloc_bench ;;
  telemetry-overhead) run_telemetry_overhead ;;
  bench-regression) run_bench_regression ;;
  chaos-soak) run_chaos_soak ;;
  migration-soak) run_migration_soak ;;
  fabric-soak) run_fabric_soak ;;
  sanitize) run_sanitize ;;
  all)
    run_release
    run_perfbench_smoke
    run_alloc_bench
    run_telemetry_overhead
    run_bench_regression
    run_chaos_soak
    run_migration_soak
    run_fabric_soak
    run_sanitize
    ;;
  *)
    echo "unknown job '$job' (expected release|perfbench-smoke|alloc-bench|telemetry-overhead|bench-regression|chaos-soak|migration-soak|fabric-soak|sanitize|all)" >&2
    exit 2
    ;;
esac
echo "ci.sh: $job OK"
