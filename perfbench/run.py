#!/usr/bin/env python3
"""Build reqsched and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a reqsched checkout.  dune builds bin/reqsched.exe
(the server the serve workloads start) and perfbench/bench.exe into
_build; logs, span dumps and result records go to perfbench/_out.  The
last line of stdout is the run's JSON result; a failed check or a build
error exits non-zero.  --self-test runs every workload briefly in both
trace modes and checks the printed metrics against BENCHMARK.json.
"""

import json
import os
import signal
import subprocess
import sys

OUT = os.path.join("perfbench", "_out")
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVER = os.path.join("_build", "default", "bin", "reqsched.exe")
RUN_TIMEOUT = 170  # seconds; a run's whole budget is 180


def build():
    for need in ("dune-project", "bin/reqsched.ml", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            sys.exit(f"perfbench: {need} is missing; run from the root of a "
                     "reqsched checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "./bin/reqsched.exe", "./perfbench/bench.exe"]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
    except FileNotFoundError:
        sys.exit("perfbench: dune not found")
    if code != 0:
        sys.exit(f"perfbench: build failed (exit {code})")
    os.makedirs(OUT, exist_ok=True)


def bench(args, capture=False):
    """Run bench.exe in its own process group, so a timeout also stops
    the server it started.  Returns (exit code, stdout or None)."""
    cmd = [BENCH, *args, "--server", SERVER, "--out", OUT]
    p = subprocess.Popen(cmd, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None,
                         text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        print("perfbench: run exceeded its time budget", file=sys.stderr)
        return 1, None


def self_test():
    spec = json.load(open("BENCHMARK.json"))
    ok = subprocess.run([BENCH, "--self-test"]).returncode == 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench(["--workload", w["name"], "--seed", "1",
                               "--seconds", "0.5", "--trace", str(trace)],
                              capture=True)
            problems = []
            try:
                res = json.loads(out.strip().splitlines()[-1])
            except (AttributeError, IndexError, ValueError):
                res = {}
                problems.append("no JSON result line")
            if code != 0:
                problems.append(f"exit {code}")
            if res and set(res) != {"correct", "attempted", "failed",
                                    "metrics"}:
                problems.append(f"result keys {sorted(res)}")
            if res and res.get("correct") is not True:
                problems.append("a check failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            if res and got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in want.keys() & got.keys()
                               if want[k] != got[k])
                problems.append(f"metrics missing={missing} extra={extra} "
                                f"wrong units={wrong}")
            print(f"self-test {w['name']} trace={trace}: "
                  + ("ok" if not problems else "FAILED " + "; ".join(problems)))
            ok = ok and not problems
    print("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        sys.exit(self_test())
    code, _ = bench(args)
    sys.exit(code)


if __name__ == "__main__":
    main()
