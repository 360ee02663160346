#!/usr/bin/env python3
"""Compare two saved benchmark outputs.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the stdout of one `perfbench/run.py` run (its report line
and its result line). Results taken on different hosts or builds cannot be
compared: when the host fingerprints (cores, CPU model, build type,
compiler) differ, the script refuses and exits 3. Otherwise it prints each
metric of both runs with the relative change, using BENCHMARK.json's
direction to mark the change as better or worse.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    report, result = None, None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "report" in obj:
                report = obj["report"]
            elif "metrics" in obj:
                result = obj
    if report is None or result is None:
        sys.exit(f"compare: {path}: no report/result lines")
    return report, result


def directions():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (rep_a, res_a), (rep_b, res_b) = load(sys.argv[1]), load(sys.argv[2])
    if rep_a["fingerprint"] != rep_b["fingerprint"]:
        print("compare: refusing, host fingerprints differ:")
        print("  before:", json.dumps(rep_a["fingerprint"], sort_keys=True))
        print("  after: ", json.dumps(rep_b["fingerprint"], sort_keys=True))
        sys.exit(3)
    if (rep_a["workload"], rep_a["trace"]) != (rep_b["workload"],
                                               rep_b["trace"]):
        sys.exit("compare: the runs measured different workloads or modes")
    better = directions()
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            continue
        va, vb = a["value"], b["value"]
        change = (vb - va) / va if va else float("nan")
        verdict = ""
        if va and vb != va and name in better:
            improved = (vb < va) == (better[name] == "lower")
            verdict = "better" if improved else "worse"
        print(f"{name:36s} {va:14.6g} -> {vb:14.6g} {a['unit']:6s} "
              f"{change:+8.2%} {verdict}")


if __name__ == "__main__":
    main()
