#!/usr/bin/env python3
"""Steadiness mode: repeat a workload on several seeds and judge spreads.

    python3 perfbench/steady.py --workload engine-lct --runs 10
    python3 perfbench/steady.py --runs 5 --first-seed 101

Runs ``BENCHMARK.json``'s command once per seed (seeds first-seed,
first-seed + 1, ...), one run at a time.  For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (Q3 - Q1) / median, and whether that spread is within the
metric's bound and within a third of it.  ``setup_s`` has no spread
requirement; its spread is printed for information.  It also checks that
every run was correct and failed the same share of its operations.
Exits 1 if any requirement fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def judge(spec, workload, results):
    ok = True
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    wrong = sum(not r["correct"] for r in results)
    print(f"{workload}: {len(results)} runs, failed share "
          f"{sorted(map(str, shares))}, incorrect runs {wrong}")
    ok &= len(shares) == 1 and wrong == 0
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = m["bound"]
        within = spread <= bound
        third = spread <= bound / 3
        if m["name"] != "setup_s":
            ok &= within
        print(f"  {m['name']:<16} median {med:12.6g} {m['unit']:<6} "
              f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {spread:7.2%} "
              f"bound {bound:.0%} {'ok' if within else 'OVER'}"
              f"{'' if third else ' (above a third of the bound)'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(spec, workload, seed))
        ok &= judge(spec, workload, results)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
