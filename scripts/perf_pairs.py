#!/usr/bin/env python3
"""Paired A/B wall-time comparison of two checkouts on perfbench workloads.

    scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W[,W...] \\
        [--seeds 1,2] [--pairs 10] [--seconds 10]

PARENT_DIR and CHANGE_DIR are two checkouts of this repository (for
example `git archive` extracts of the parent commit and of the change);
the workload names are those BENCHMARK.json lists.
Each one's benchmark is built the way perfbench/run.py builds it: CMake,
Release, into that checkout's own .bench_build/perfbench, followed by the
statistics self-test. Then, for every workload and seed, the script runs
the two binaries untraced, in turn, for --pairs pairs, and swaps which
side goes first on each pair so that slow drift on the host does not
favour one side.

For each workload and seed it prints, per end-to-end host metric (wall_s,
capsules_per_s, setup_s, peak_rss_mb): each side's median and quartiles,
the change's wins out of the pairs (ties count for neither side; the
direction comes from BENCHMARK.json), whether the gap between the medians
is larger than the parent's interquartile range, and a verdict against the
metric's BENCHMARK.json `bound`:
  worse than bound  the change's median is worse than the parent's by more
                    than bound x the parent's median;
  unresolved        the parent's IQR is wider than bound x its median, so
                    its runs spread too widely to tell, unless every
                    change run beats every parent run;
  within bound      otherwise.

Exit status:
  0  every run was correct and both sides simulated the same thing;
  1  a run reported `correct: false` or `failed > 0`, or the two sides
     differ in `attempted` per repetition, the report digest, `events`,
     `frames` or a virtual-time metric (every result metric other than
     the host ones);
  2  bad usage, or a build or run failed;
  3  the host fingerprints of the two sides differ (perfbench/compare.py's
     rule: such runs cannot be compared).

Standard library only. It reads both checkouts and writes only their
.bench_build directories.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# End-to-end metrics measured on the host. Every other metric in a result
# line is a function of virtual time and the workload alone, so it must be
# identical on both sides.
HOST_METRICS = ("wall_s", "capsules_per_s", "setup_s", "peak_rss_mb")
# Report fields that must also be identical on both sides.
REPORT_IDENTITY = ("digest", "events", "frames")


def fail(message, code=2):
    """Prints MESSAGE after the running script's name on stderr; exits."""
    name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    print(f"{name}: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, env=None):
    """Runs a command with its output on stderr; fails loudly."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(checkout, subdir="perfbench", cmake_args=(), selftest=True):
    """Builds CHECKOUT/perfbench as perfbench/run.py does; returns the binary.

    The build goes into CHECKOUT/.bench_build/SUBDIR, configured with
    CMAKE_ARGS added. Without SELFTEST only the benchmark is built, and the
    statistics self-test is neither built nor run.
    """
    source = os.path.join(checkout, "perfbench")
    if not os.path.isfile(os.path.join(source, "CMakeLists.txt")):
        fail(f"{checkout}: no perfbench/CMakeLists.txt")
    build_dir = os.path.join(checkout, ".bench_build", subdir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release", *cmake_args]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    cmd = ["cmake", "--build", build_dir, "--parallel", "4"]
    run_quiet(cmd if selftest else cmd + ["--target", "perfbench"])
    if selftest:
        run_quiet([os.path.join(build_dir, "perfbench_selftest")])
    return os.path.join(build_dir, "perfbench")


def bench_cmd(binary, workload, seed, seconds):
    """The command line of one untraced benchmark run."""
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def run_once(binary, workload, seed, seconds):
    """Runs one untraced benchmark; returns its (report, result) objects."""
    cmd = bench_cmd(binary, workload, seed, seconds)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}: {' '.join(cmd)}")
    report, result = None, None
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "report" in obj:
            report = obj["report"]
        elif "metrics" in obj:
            result = obj
    if report is None or result is None:
        fail(f"no report/result lines from {' '.join(cmd)}")
    return report, result


def identity(report, result):
    """What both sides must agree on: the simulated outcome, not its speed.

    A run repeats its workload as often as --seconds allows, so its total
    `attempted` grows with speed; one repetition's share does not.
    """
    virtual = {name: m["value"] for name, m in result["metrics"].items()
               if name not in HOST_METRICS}
    return ({key: report.get(key) for key in REPORT_IDENTITY},
            result["attempted"] / report["repetitions"], virtual)


def benchmark():
    """The repository's BENCHMARK.json."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def workloads():
    """BENCHMARK.json's workload names."""
    return [w["name"] for w in benchmark()["workloads"]]


def end_to_end():
    """BENCHMARK.json's end-to-end metrics by name: {better, bound, ...}."""
    return {m["name"]: m for m in benchmark()["end_to_end"]}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(a, b, lower, bound):
    """The change's host metric against its bound (see the module doc)."""
    a1, am, a3 = quartiles(a)
    bm = statistics.median(b)
    if (bm - am if lower else am - bm) > bound * abs(am):
        return "worse than bound"
    separated = (max(b) < min(a)) if lower else (min(b) > max(a))
    if a3 - a1 > bound * abs(am) and not separated:
        return "unresolved"
    return "within bound"


def summarize(workload, seed, runs, spec):
    """Prints one seed's per-metric medians, quartiles, wins, IQR test and
    bound verdict."""
    pairs = len(runs["parent"])
    print(f"{workload} seed {seed}: {pairs} pairs")
    print(f"  {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s}  gap > parent IQR; "
          "bound")
    for name in HOST_METRICS:
        a = [r["metrics"][name]["value"] for _, r in runs["parent"]]
        b = [r["metrics"][name]["value"] for _, r in runs["change"]]
        lower = spec[name]["better"] == "lower"
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        gap, iqr = abs(bm - am), a3 - a1
        if bm == am:
            direction = "equal"
        else:
            direction = "better" if (bm < am) == lower else "worse"
        bound = spec[name]["bound"]
        print(f"  {name:16s} {am:12.4g} [{a1:9.4g}, {a3:9.4g}] "
              f"{bm:12.4g} [{b1:9.4g}, {b3:9.4g}] {wins:3d}/{pairs:<3d}  "
              f"{'yes' if gap > iqr else 'no'} "
              f"(gap {gap:.4g}, IQR {iqr:.4g}, {direction}); "
              f"{verdict(a, b, lower, bound)} ({bound:g})")


def main():
    parser = argparse.ArgumentParser(
        description="Paired A/B perfbench comparison of two checkouts.")
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    known = workloads()
    parser.add_argument("--workload", required=True,
                        help="comma-separated list of: " + ", ".join(known))
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        parser.error(f"--seeds: not a comma-separated list: {args.seeds}")
    chosen = [w for w in args.workload.split(",") if w]
    if not chosen or any(w not in known for w in chosen):
        parser.error(f"--workload: unknown or empty: {args.workload}")
    if not seeds or args.pairs < 2 or args.seconds <= 0:
        parser.error("need at least one seed, two pairs and positive seconds")

    binaries = {"parent": build(args.parent_dir),
                "change": build(args.change_dir)}
    spec = end_to_end()
    bad = False
    for workload, seed in itertools.product(chosen, seeds):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                report, result = run_once(binaries[side], workload, seed,
                                          args.seconds)
                runs[side].append((report, result))
                wall = result["metrics"]["wall_s"]["value"]
                print(f"perf_pairs: {workload} seed {seed} pair "
                      f"{i + 1}/{args.pairs} {side}: wall_s {wall:.4f}",
                      file=sys.stderr)
                if not result["correct"] or result["failed"] > 0:
                    print(f"perf_pairs: {side} run incorrect "
                          f"(correct={result['correct']}, "
                          f"failed={result['failed']})", file=sys.stderr)
                    bad = True
            fingerprints = [runs[s][-1][0]["fingerprint"] for s in runs]
            if fingerprints[0] != fingerprints[1]:
                print("perf_pairs: refusing, host fingerprints differ:")
                print("  parent:", json.dumps(fingerprints[0], sort_keys=True))
                print("  change:", json.dumps(fingerprints[1], sort_keys=True))
                sys.exit(3)
        reference = identity(*runs["parent"][0])
        for side in runs:
            for report, result in runs[side]:
                if identity(report, result) != reference:
                    print(f"perf_pairs: {workload} seed {seed}: a {side} "
                          "run differs from the parent's first run in "
                          "attempted per repetition, digest, events, frames "
                          "or a virtual-time metric:", file=sys.stderr)
                    print(f"  expected {reference}", file=sys.stderr)
                    print(f"  got      {identity(report, result)}",
                          file=sys.stderr)
                    bad = True
        summarize(workload, seed, runs, spec)
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
