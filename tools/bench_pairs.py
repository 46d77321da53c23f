#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 tools/bench_pairs.py --base DIR --head DIR \\
        [--workload campaign] [--pairs 10] [--seconds 15] [--seed 1] \\
        [--trace 0|1] [--out BENCH_campaign.json]

Each pair runs `python3 perfbench/run.py` once in each checkout (each
builds into its own .bench_build/). The side that runs first swaps
from pair to pair, so slow drift on a shared host lands on both
sides alike. The output holds, per checkout, its commit, every run's
metrics, and the median, first and third quartile of each metric. It
also holds the head/base ratio of the medians, how many pairs the head
won on each end-to-end metric (the direction comes from the head's
BENCHMARK.json), and the host record of the head's last run. The
script exits 1 if any run fails its correctness check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE)
    lines = proc.stdout.decode().splitlines()
    if len(lines) < 2:
        sys.exit("bench_pairs: no result from %s (exit %d)"
                 % (checkout, proc.returncode))
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {"correct": result["correct"], "metrics": metrics,
            "commit": detail.get("git_commit", "unknown"),
            "host": detail.get("host")}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarise(runs):
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name] for r in runs if name in r["metrics"]]
        q1, q3 = quartiles(vals)
        out[name] = {"median": statistics.median(vals), "q1": q1,
                     "q3": q3}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="checkout to compare")
    ap.add_argument("--head", required=True, help="checkout under test")
    ap.add_argument("--workload", default="campaign")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the JSON here (else stdout)")
    args = ap.parse_args()
    base, head = os.path.abspath(args.base), os.path.abspath(args.head)

    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            r = run_once(base if side == "base" else head, args)
            runs[side].append(r)
            sys.stderr.write("pair %d %s: %s\n" % (
                i + 1, side, json.dumps(
                    {k: round(v, 4) for k, v in r["metrics"].items()
                     if "ledger" not in k})))

    with open(os.path.join(head, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"]
                  for m in json.load(f).get("end_to_end", [])}
    summary = {side: summarise(runs[side]) for side in runs}
    ratio, wins = {}, {}
    for name, s in summary["head"].items():
        b = summary["base"].get(name)
        if b and b["median"]:
            ratio[name] = s["median"] / b["median"]
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            wins[name] = sum(
                1 for hb, bb in zip(runs["head"], runs["base"])
                if sign * (hb["metrics"][name] - bb["metrics"][name]) > 0)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "pairs": args.pairs, "host": runs["head"][-1]["host"],
        "base": {"commit": runs["base"][0]["commit"],
                 "summary": summary["base"],
                 "runs": [r["metrics"] for r in runs["base"]]},
        "head": {"commit": runs["head"][0]["commit"],
                 "summary": summary["head"],
                 "runs": [r["metrics"] for r in runs["head"]]},
        "head_over_base_median": ratio,
        "head_better_pairs": wins,
    }
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    ok = all(r["correct"] for side in runs.values() for r in side)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
