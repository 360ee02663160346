#!/usr/bin/env python3
"""Sampling profile of one perfbench workload, including the time no layer
timer wraps, or (--heap) where its live heap stands at its peak.

    scripts/sprof.py CHECKOUT --workload W [--seed 1] [--seconds 10]
        [--heap] [--within FUNC] [--callers FUNC [--depth 3]] [--top 30]

perfbench's traced breakdown times the simulator's layers; calls that the
workload makes from its own code (filling the origin server, checking a
cache result) land in `trace.unattributed_share`. This script samples the
whole process instead. It builds CHECKOUT's perfbench as Release with
`-g -fno-omit-frame-pointer` into CHECKOUT/.bench_build/sprof (apart from
the timing builds in .bench_build/perfbench), compiles scripts/sprof.c
there as an LD_PRELOAD library, runs `perfbench --trace 0` under it, and
symbolizes each sample's instruction pointer and frame-pointer return
addresses with `addr2line -a -i -f -C`, expanding inlined frames. The
sampler takes one SIGPROF sample per scheduler tick of CPU time (4 ms on
a 4-core Xeon host: about 2,700 samples in a 10 s run); stderr shows the
count and the process's CPU seconds.

It prints each function's self share (the innermost frame of a sample)
and inclusive share (the function is anywhere in the sample's stack) of
the samples, largest inclusive first. --within FUNC keeps only samples
whose stack has a function whose name contains FUNC, for example
`Churn::measure` for churn's measured phase; shares are then of those
samples. Samples in code without symbols count under the library's name.

--callers FUNC prints, instead of that table, the distinct caller chains
above FUNC: for each sample whose stack has a frame matching FUNC, the
--depth frames just outside the innermost run of matching frames, nearest
caller first. Each chain comes with its share of the samples (of those
--within keeps), so a cost inside a shared function (a map lookup, a
container's hash) can be split by the code that calls it.

--heap preloads scripts/sprof_heap.c instead: it records every live
block's size and allocating stack, and keeps the live bytes per stack as
they stood at the process's live-heap peak. The same table (or, with
--callers, the same chains) then shares out those peak bytes instead of
samples, with each function's bytes in KiB: where peak_rss_mb goes. A
stack starts at the code that called operator new (its own frames are
dropped); blocks freed before the peak do not count.

Standard library only; needs cmake, a C compiler and addr2line. It builds
and runs perfbench with scripts/perf_pairs.py's helpers.
"""

import argparse
import collections
import functools
import os
import re
import subprocess
import sys

from perf_pairs import bench_cmd, build, fail, run_quiet, workloads

HERE = os.path.dirname(os.path.abspath(__file__))


# The allocation entry points a heap stack starts in: operator new and
# perfbench's counting helpers behind it.
ALLOC_FRAMES = re.compile(r"^operator new|counted_(aligned_)?alloc")


def build_sampled(checkout, heap):
    """Builds the frame-pointer perfbench and the preloaded library (the
    sampler, or with heap the heap profiler); returns both."""
    binary = build(os.path.abspath(checkout), subdir="sprof",
                   cmake_args=["-DCMAKE_CXX_FLAGS=-g -fno-omit-frame-pointer"],
                   selftest=False)
    source = "sprof_heap.c" if heap else "sprof.c"
    library = os.path.join(os.path.dirname(binary),
                           source.replace(".c", ".so"))
    run_quiet(["cc", "-O2", "-fPIC", "-shared", "-fno-omit-frame-pointer",
               "-o", library, os.path.join(HERE, source)])
    return binary, library


def record(binary, library, args):
    """Runs perfbench under the preloaded library; returns (maps, samples,
    weights): a sample's weight is 1, or with --heap its bytes at the
    peak."""
    out = os.path.join(os.path.dirname(binary), "samples.txt")
    env = dict(os.environ, LD_PRELOAD=library, SPROF_OUT=out)
    run_quiet(bench_cmd(binary, args.workload, args.seed, args.seconds),
              env=env)
    with open(out, encoding="utf-8") as f:
        header = f.readline().split()
        lines = f.read().splitlines()
    print(f"sprof: {' '.join(header[1:])}", file=sys.stderr)
    split = lines.index("stacks" if args.heap else "samples")
    rows = [line.split() for line in lines[split + 1:]]
    if args.heap:  # bytes, blocks, return addresses
        return (lines[1:split], [[int(a, 16) for a in r[2:]] for r in rows],
                [int(r[0]) for r in rows])
    return (lines[1:split], [[int(a, 16) for a in r] for r in rows],
            [1] * len(rows))


def parse_maps(lines):
    """Executable file mappings as (start, end, path)."""
    maps = []
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        maps.append((start, end, parts[5]))
    return maps


def load_bases(lines):
    """Each file's load base: where its offset-0 mapping starts."""
    bases = {}
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) == 6 and int(parts[2], 16) == 0:
            bases.setdefault(parts[5], int(parts[0].split("-")[0], 16))
    return bases


@functools.lru_cache(maxsize=None)
def is_pie(path):
    """ELF type ET_DYN: addresses are relative to the load base."""
    with open(path, "rb") as f:
        head = f.read(18)
    return len(head) == 18 and head[16] == 3


def symbolize(addresses, path):
    """addr2line's inline-expanded function names, innermost first."""
    if not addresses:
        return {}
    proc = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", path],
        input="".join(f"{a:#x}\n" for a in addresses),
        stdout=subprocess.PIPE, text=True, check=True)
    names, current = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if re.fullmatch(r"0x[0-9a-f]+", lines[i]):
            current = int(lines[i], 16)
            names[current] = []
            i += 1
            continue
        names[current].append(lines[i])  # function, then file:line
        i += 2
    return names


def stacks(maps_lines, samples, heap):
    """Each sample's stack of function names, innermost first."""
    maps = parse_maps(maps_lines)
    bases = load_bases(maps_lines)
    # A return address points past its call; look up the call instead. A
    # CPU sample starts with the interrupted instruction itself.
    calls = [[a if depth == 0 and not heap else a - 1
              for depth, a in enumerate(sample)] for sample in samples]
    wanted = collections.defaultdict(set)  # path -> file addresses
    located = {}  # address -> (path, file address), or None if unmapped
    for address in {a for call in calls for a in call}:
        located[address] = None
        for start, end, path in maps:
            if start <= address < end:
                rel = address - bases.get(path, 0) if is_pie(path) else address
                located[address] = (path, rel)
                wanted[path].add(rel)
                break
    names = {path: symbolize(sorted(rels), path)
             for path, rels in wanted.items()}

    def frames(address):
        if located[address] is None:
            return ["[unknown]"]
        path, rel = located[address]
        found = [n for n in names[path].get(rel, []) if n != "??"]
        return found or [f"[{os.path.basename(path)}]"]

    named = [[name for a in call for name in frames(a)] for call in calls]
    if heap:
        for i, s in enumerate(named):
            start = next((k for k, name in enumerate(s)
                          if not ALLOC_FRAMES.search(name)), len(s))
            named[i] = s[start:] or ["[allocator]"]
    return named


def within(all_stacks, weights, func, heap):
    """The (stack, weight) pairs with a frame matching func (all if None),
    and a label."""
    kept = [(s, w) for s, w in zip(all_stacks, weights)
            if func is None or any(func in name for name in s)]
    if not kept:
        fail(f"no sample has a frame matching {func!r}")
    scope = f" within {func}" if func else ""
    if heap:
        kib = sum(w for _, w in kept) / 1024
        return kept, (f"{kib:.0f} of {sum(weights) / 1024:.0f} KiB live at "
                      f"the heap peak{scope}")
    return kept, f"{len(kept)} of {len(all_stacks)} samples{scope}"


def report(kept, scope, top, heap):
    total = sum(w for _, w in kept)
    self_weight = collections.Counter()
    inclusive = collections.Counter()
    for s, w in kept:
        self_weight[s[0]] += w
        for name in set(s):
            inclusive[name] += w
    print(scope)
    print(f"{'incl %':>7s} {'self %':>7s}{' incl KiB' if heap else ''}"
          "  function")
    for name, weight in inclusive.most_common(top):
        kib = f" {weight / 1024:8.0f}" if heap else ""
        print(f"{100 * weight / total:7.1f} "
              f"{100 * self_weight[name] / total:7.1f}{kib}  {name}")


def caller_chains(kept, func, depth):
    """Weights of the depth frames above each sample's innermost func run."""
    chains = collections.Counter()
    for s, w in kept:
        i = next((k for k, name in enumerate(s) if func in name), None)
        if i is None:
            continue
        while i + 1 < len(s) and func in s[i + 1]:
            i += 1  # a run of matching frames is one call
        chains[tuple(s[i + 1:i + 1 + depth]) or ("[no caller]",)] += w
    return chains


def report_callers(kept, scope, func, depth, top):
    chains = caller_chains(kept, func, depth)
    if not chains:
        fail(f"no sample has a frame matching {func!r}")
    total = sum(w for _, w in kept)
    matched = sum(chains.values())
    print(f"{scope}; {matched} ({100 * matched / total:.1f}%) have {func}")
    print(f"{'share %':>7s}  callers of {func}, nearest first")
    ranked = sorted(chains.items(), key=lambda item: (-item[1], item[0]))
    for chain, weight in ranked[:top]:
        print(f"{100 * weight / total:7.1f}  {chain[0]}")
        for name in chain[1:]:
            print(f"{'':7s}    <- {name}")


def main():
    parser = argparse.ArgumentParser(
        description="Sampling profile of one perfbench workload.")
    parser.add_argument("checkout")
    parser.add_argument("--workload", required=True, choices=workloads())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--heap", action="store_true")
    parser.add_argument("--within")
    parser.add_argument("--callers", metavar="FUNC")
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--top", type=int, default=30)
    args = parser.parse_args()
    if args.seconds <= 0 or args.top <= 0 or args.depth <= 0:
        parser.error("--seconds, --depth and --top must be positive")
    binary, library = build_sampled(args.checkout, args.heap)
    maps_lines, samples, weights = record(binary, library, args)
    kept, scope = within(stacks(maps_lines, samples, args.heap), weights,
                         args.within, args.heap)
    if args.callers is None:
        report(kept, scope, args.top, args.heap)
    else:
        report_callers(kept, scope, args.callers, args.depth, args.top)


if __name__ == "__main__":
    main()
