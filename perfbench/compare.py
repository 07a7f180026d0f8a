#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two sets.

From the repository root:

    python3 perfbench/compare.py collect A.jsonl --workload plan --seeds 1-10
    python3 perfbench/compare.py compare A.jsonl B.jsonl

`collect` runs perfbench/run.py once per seed, for BENCHMARK.json's
run_seconds, and appends one line per run to the file.  `compare`
prints, per workload and metric, each set's median and quartiles and
the spread (quartile distance over median).  For each end-to-end
metric it also says whether B's median stays within the metric's
BENCHMARK.json bound of A's, and whether each set's spread does.
It also compares the share of failed operations.
The exit code is 1 when any of these checks fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    seconds = load_bench()["run_seconds"]
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {out.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "trace": args.trace, "result": result}) + "\n")
        print(f"{args.workload} seed {seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr)
    return 0


def load_set(path):
    """workload -> {"metrics": name -> [values], "failed": [(failed, attempted)], "units": ...}"""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            w = runs.setdefault(row["workload"], {"metrics": {}, "failed": [], "units": {}, "correct": True})
            res = row["result"]
            w["failed"].append((res["failed"], res["attempted"]))
            w["correct"] = w["correct"] and res["correct"]
            for name, m in res["metrics"].items():
                w["metrics"].setdefault(name, []).append(m["value"])
                w["units"][name] = m["unit"]
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def compare(args):
    bounds = {m["name"]: m for m in load_bench()["end_to_end"]}
    a, b = load_set(args.a), load_set(args.b)
    ok = True
    for workload in sorted(set(a) & set(b)):
        wa, wb = a[workload], b[workload]
        print(f"\n== {workload}: {len(wa['failed'])} runs in A, {len(wb['failed'])} in B")
        print(f"{'metric':26} {'unit':7} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
              f"{'spread A':>9} {'spread B':>9}  verdict")
        for name in sorted(set(wa["metrics"]) & set(wb["metrics"])):
            ma, q1a, q3a, sa = summary(wa["metrics"][name])
            mb, q1b, q3b, sb = summary(wb["metrics"][name])
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]["bound"], bounds[name]["better"]
                worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
                checks = [worse <= bound, sa <= bound, sb <= bound]
                verdict = f"{'within' if all(checks) else 'OUTSIDE'} bound {bound} (B worse by {worse:+.3f})"
                ok = ok and all(checks)
            print(f"{name:26} {wa['units'][name]:7} {ma:14.6g} [{q1a:9.6g}, {q3a:9.6g}] "
                  f"{mb:14.6g} [{q1b:9.6g}, {q3b:9.6g}] {sa:9.4f} {sb:9.4f}  {verdict}")
        share = lambda runs: {f / t for f, t in runs}
        same_share = share(wa["failed"]) == share(wb["failed"]) and len(share(wa["failed"])) == 1
        print(f"failed share A {sorted(share(wa['failed']))} B {sorted(share(wb['failed']))}: "
              f"{'same' if same_share else 'DIFFERENT'}; all correct: {wa['correct'] and wb['correct']}")
        ok = ok and same_share and wa["correct"] and wb["correct"]
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run one workload over several seeds")
    c.add_argument("out")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p = sub.add_parser("compare", help="compare two collected sets")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
