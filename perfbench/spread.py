#!/usr/bin/env python3
"""Run one workload over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --workload W [--seeds 1-10]

For every end-to-end metric it prints the median of the runs and the distance
between their first and third quartiles (statistics.quantiles, n=4) as
a share of that median, next to the metric's bound in BENCHMARK.json.
A spread above a third of its bound is flagged.  Each run's JSON line
is appended to perfbench/_out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        t0 = time.monotonic()
        p = subprocess.run(cmd, capture_output=True, text=True)
        took = time.monotonic() - t0
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
        res = json.loads(lines[-1])
        with open(os.path.join("perfbench", "_out", "spread.jsonl"), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "result": res}) + "\n")
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} took {took:.1f}s",
              file=sys.stderr)
    print(f"{args.workload}: {len(runs)} runs, all correct: "
          f"{all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of its bound"
        print(f"  {name:44s} median {med:14.6g}  spread {spread:7.4f}"
              f"  bound {bound}{flag}")


if __name__ == "__main__":
    main()
