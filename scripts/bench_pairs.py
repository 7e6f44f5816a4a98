"""Run the benchmark on two checkouts in alternating pairs and judge a claim.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload ladder_sweep \
        --seeds 11-20 [--out pairs.json]

For each seed, ``perfbench/run.py --trace 0`` runs once in each checkout
for the ``run_seconds`` both checkouts' ``BENCHMARK.json`` declare,
one process at a time, from that checkout's root; the parent goes first
on even pair indices and the change on odd ones, so neither side always
meets the machine first. Per end-to-end metric of the change's
``BENCHMARK.json`` it prints each side's runs, median and quartiles
(linear interpolation between order statistics), the pairs each side won,
and whether the claim rule holds: the change is better in at least 9 of
every 10 pairs, and its median is better than the parent's by more than
the parent's interquartile range. ``--out`` writes the same as JSON, ready
to go into a ``BENCH_*.json``.

Exit code 0 when every run reported correct, 1 otherwise, 2 on bad usage
(including two checkouts whose ``BENCHMARK.json`` declare different
``run_seconds``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """Seeds from "11-20", "3,5,8" or a mix such as "1-3,7"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds):
    """The JSON result line of one untraced benchmark run in `checkout`."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def judge(parent, change, better):
    """Per-metric verdict of the claim rule on paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    ps, cs = summary(parent), summary(change)
    gain = sign * (ps["median"] - cs["median"])
    return {
        "parent_runs": parent, "change_runs": change,
        "parent": ps, "change": cs,
        "change_median_vs_parent_pct": round(
            100.0 * (cs["median"] - ps["median"]) / ps["median"], 1),
        "change_wins": wins, "parent_wins": losses,
        "claim_holds": (wins >= math.ceil(0.9 * len(parent))
                        and gain > ps["q3"] - ps["q1"]),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--out")
    args = p.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for path in sides.values():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            print("error: no perfbench/run.py under %s" % path, file=sys.stderr)
            return 2
    bench = {side: load_benchmark(path) for side, path in sides.items()}
    seconds = bench["change"]["run_seconds"]
    if bench["parent"]["run_seconds"] != seconds:
        print("error: run_seconds is %r in the parent's BENCHMARK.json but %r in "
              "the change's" % (bench["parent"]["run_seconds"], seconds), file=sys.stderr)
        return 2

    runs = {side: [] for side in sides}
    order = []
    for i, seed in enumerate(args.seeds):
        first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(list(first))
        for side in first:
            result = run_once(sides[side], args.workload, seed, seconds)
            runs[side].append(result)
            print("seed %d %s: %s" % (seed, side, json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()})), flush=True)

    report = {
        "workload": args.workload, "seeds": args.seeds, "seconds": seconds,
        "command": "python3 perfbench/run.py --workload %s --seed S --seconds %d "
                   "--trace 0" % (args.workload, seconds),
        "first_in_pair": [pair[0] for pair in order],
        "attempted": {s: [r["attempted"] for r in runs[s]] for s in sides},
        "failed": {s: [r["failed"] for r in runs[s]] for s in sides},
        "correct": {s: all(r["correct"] for r in runs[s]) for s in sides},
        "metrics": {},
    }
    for m in bench["change"]["end_to_end"]:
        name = m["name"]
        verdict = judge([r["metrics"][name]["value"] for r in runs["parent"]],
                        [r["metrics"][name]["value"] for r in runs["change"]],
                        m["better"])
        report["metrics"][name] = verdict
        print("%s (%s, %s is better)" % (name, m["unit"], m["better"]))
        for side in sides:
            s = verdict[side]
            print("  %-6s median %.6g [q1 %.6g, q3 %.6g] runs %s" % (
                side, s["median"], s["q1"], s["q3"],
                ", ".join("%.6g" % v for v in verdict[side + "_runs"])))
        print("  change %+.1f%%; pairs won: change %d, parent %d; claim %s" % (
            verdict["change_median_vs_parent_pct"], verdict["change_wins"],
            verdict["parent_wins"], "holds" if verdict["claim_holds"] else "does not hold"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all(report["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
