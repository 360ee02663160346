#!/usr/bin/env python3
"""Regression gate over the committed bench baselines.

Collects the compared leaves in the working-tree bench JSONs --
``indexed_allocs_per_sec`` and ``admissions_per_sec`` in BENCH_alloc.json,
the migration soak's ``sustained_utilization`` /
``rejection_reduction_pct`` in BENCH_migration.json, and the fabric
failure drill's ``downtime_p99_ms`` / ``downtime_max_ms`` /
``zero_state_loss_fraction`` in BENCH_fabric.json -- and compares each
against the committed baseline (``git show HEAD:<file>`` by default).
Exits nonzero when any section regresses by more than the threshold (10%
unless --threshold says otherwise). Sections present on only one side are
reported but never fail the gate: new benchmarks have no baseline, and
retired ones have no current value. A bench file missing from the
working tree is skipped with a notice (its bench may not have run).

BENCH_alloc.json's rates are wall-clock, so they are compared only when
the working-tree and baseline host fingerprints (cores, CPU model, build
type, compiler) are equal; otherwise both fingerprints are printed and
the allocator sections are skipped loudly. The migration and fabric keys
are virtual time and need no fingerprint.

Stdlib only; runs anywhere git and python3 exist.

Usage: scripts/bench_compare.py [--threshold 0.10]
                                [--alloc-file BENCH_alloc.json]
                                [--migration-file BENCH_migration.json]
                                [--fabric-file BENCH_fabric.json]
                                [--baseline-ref HEAD]
"""

import argparse
import json
import subprocess
import sys


def metric_leaves(obj, keys, path=""):
    """Yields (section-path, value) for every leaf named in `keys`."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            child = f"{path}.{key}" if path else key
            if key in keys and isinstance(value, (int, float)):
                yield child, float(value)
            else:
                yield from metric_leaves(value, keys, child)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from metric_leaves(value, keys, f"{path}[{i}]")


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def load_baseline(ref, path):
    try:
        text = subprocess.run(
            ["git", "show", f"{ref}:{path}"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError):
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def compare(name, current, baseline, threshold,
            lower_is_better=frozenset()):
    """Prints the per-section report; returns the regression list.

    Sections whose leaf key is in `lower_is_better` regress when they
    grow (latency-style metrics) instead of when they shrink.
    """
    regressions = []
    for section in sorted(current.keys() | baseline.keys()):
        cur = current.get(section)
        base = baseline.get(section)
        if cur is None:
            print(f"  {section}: retired (baseline {base:.0f})")
            continue
        if base is None:
            print(f"  {section}: new ({cur:.0f}, no baseline)")
            continue
        if base <= 0:
            continue
        delta = cur / base - 1.0
        if section.rsplit(".", 1)[-1] in lower_is_better:
            delta = -delta
        mark = ""
        if delta < -threshold:
            regressions.append((section, base, cur, delta))
            mark = "  << REGRESSION"
        print(f"  {section}: {base:.0f} -> {cur:.0f} ({delta:+.1%}){mark}")
    if regressions:
        print(f"bench_compare: {name}: {len(regressions)} section(s) "
              f"regressed more than {threshold:.0%}", file=sys.stderr)
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional drop (default 0.10)")
    parser.add_argument("--alloc-file", default="BENCH_alloc.json")
    parser.add_argument("--migration-file", default="BENCH_migration.json")
    parser.add_argument("--fabric-file", default="BENCH_fabric.json")
    parser.add_argument("--baseline-ref", default="HEAD")
    args = parser.parse_args()

    regressions = []
    compared_any = False

    # --- allocator: allocations/sec + controller admissions/sec ---
    # Wall-clock rates: comparable only on the host and build that
    # recorded the baseline, so a fingerprint mismatch is a loud skip.
    alloc_keys = {"indexed_allocs_per_sec", "admissions_per_sec"}
    alloc = load_json(args.alloc_file)
    if alloc is None:
        print(f"bench_compare: NOTICE: {args.alloc_file} not present; "
              "allocator sections not compared (run bench_alloc first)")
    else:
        alloc_baseline = load_baseline(args.baseline_ref, args.alloc_file)
        if alloc_baseline is None:
            print(f"bench_compare: no baseline {args.alloc_file} at "
                  f"{args.baseline_ref}; nothing to compare")
        elif alloc.get("fingerprint") != alloc_baseline.get("fingerprint"):
            print("=" * 68, file=sys.stderr)
            print(f"bench_compare: NOTICE: {args.alloc_file} host "
                  "fingerprints differ -- allocator\nsections SKIPPED, not "
                  "compared.", file=sys.stderr)
            for side, rep in (("baseline", alloc_baseline),
                              ("current", alloc)):
                print(f"  {side}: "
                      f"{json.dumps(rep.get('fingerprint'), sort_keys=True)}",
                      file=sys.stderr)
            print("=" * 68, file=sys.stderr)
        else:
            compared_any = True
            regressions += compare(
                args.alloc_file, dict(metric_leaves(alloc, alloc_keys)),
                dict(metric_leaves(alloc_baseline, alloc_keys)),
                args.threshold)

    # --- migration soak: sustained utilization + rejection reduction ---
    # Both are virtual-time quantities (modeled compute), so a drop means
    # the engine's steady-state win shrank, not that the runner was slow.
    # The full-mode soak takes minutes, so an absent file is a loud skip,
    # never a silent pass.
    mig_keys = {"sustained_utilization", "rejection_reduction_pct"}
    migration = load_json(args.migration_file)
    if migration is None:
        print("=" * 68, file=sys.stderr)
        print(f"bench_compare: NOTICE: {args.migration_file} not present -- "
              "migration soak sections\nSKIPPED, not compared. Run "
              "bench_migration (full mode, no ARTMT_BENCH_QUICK)\nto "
              "regenerate it.", file=sys.stderr)
        print("=" * 68, file=sys.stderr)
    else:
        mig_baseline = load_baseline(args.baseline_ref, args.migration_file)
        if mig_baseline is None:
            print(f"bench_compare: no baseline {args.migration_file} at "
                  f"{args.baseline_ref}; nothing to compare")
        else:
            compared_any = True
            regressions += compare(
                args.migration_file, dict(metric_leaves(migration, mig_keys)),
                dict(metric_leaves(mig_baseline, mig_keys)),
                args.threshold)

    # --- fabric failure drill: downtime percentiles + state-loss ---
    # Virtual-time quantities from the deterministic fabric drill, so any
    # movement is a behavior change, not runner noise. Downtime regresses
    # when it GROWS; zero_state_loss_fraction regresses when it shrinks.
    # The full-mode drill rewrites BENCH_fabric.json; an absent file is a
    # loud skip, never a silent pass.
    fabric_keys = {"downtime_p99_ms", "downtime_max_ms",
                   "zero_state_loss_fraction"}
    fabric = load_json(args.fabric_file)
    if fabric is None:
        print("=" * 68, file=sys.stderr)
        print(f"bench_compare: NOTICE: {args.fabric_file} not present -- "
              "fabric failure-drill sections\nSKIPPED, not compared. Run "
              "bench_fabric (full mode, no ARTMT_BENCH_QUICK)\nto "
              "regenerate it.", file=sys.stderr)
        print("=" * 68, file=sys.stderr)
    else:
        fab_baseline = load_baseline(args.baseline_ref, args.fabric_file)
        if fab_baseline is None:
            print(f"bench_compare: no baseline {args.fabric_file} at "
                  f"{args.baseline_ref}; nothing to compare")
        else:
            compared_any = True
            regressions += compare(
                args.fabric_file, dict(metric_leaves(fabric, fabric_keys)),
                dict(metric_leaves(fab_baseline, fabric_keys)),
                args.threshold,
                lower_is_better=frozenset(
                    {"downtime_p99_ms", "downtime_max_ms"}))

    if regressions:
        return 1
    print("bench_compare: OK" if compared_any
          else "bench_compare: nothing to compare")
    return 0


if __name__ == "__main__":
    sys.exit(main())
