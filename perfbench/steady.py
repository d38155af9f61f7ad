"""Steadiness check: is each end-to-end metric steadier than its bound?

Usage, from the root of a checkout::

    python3 perfbench/steady.py

For every workload of BENCHMARK.json this runs ``perfbench/run.py`` once
per seed for two sets of ten seeds (1..10 and 101..110), each run measuring
``run_seconds``, and prints, per metric and set, the median and the
distance between the first and third quartiles as a share of the median,
beside the metric's bound from BENCHMARK.json.  A
metric is steady when that spread stays under a third of its bound
(``setup_s`` is exempt from the spread rule) and the second set's median is
no worse than the first's by more than the bound.  Exits 1 if any metric is
not steady or any run failed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_SETS = (1, 101)
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    metrics = bench["end_to_end"]
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        medians = []
        for base in SEED_SETS:
            docs = [run_once(workload, seed, bench["run_seconds"])
                    for seed in range(base, base + RUNS)]
            failed = sum(d["failed"] for d in docs)
            attempted = sum(d["attempted"] for d in docs)
            print(f"{workload} seeds {base}..{base + RUNS - 1}: "
                  f"failed_frac {failed / attempted:.4g} ({failed} of {attempted})")
            steady &= failed == 0
            set_medians = {}
            for m in metrics:
                values = [d["metrics"][m["name"]]["value"] for d in docs]
                median, share = spread(values)
                set_medians[m["name"]] = median
                ok = m["name"] == "setup_s" or share < m["bound"] / 3
                steady &= ok
                print(f"  {m['name']:12s} median {median:12.6g} {m['unit']:4s} "
                      f"spread {share:7.2%}  bound {m['bound']:.0%}  "
                      f"{'ok' if ok else 'NOT STEADY'}  "
                      + " ".join(f"{v:.4g}" for v in values))
            medians.append(set_medians)
        for m in metrics:
            first, second = medians[0][m["name"]], medians[1][m["name"]]
            worse = (second - first) / first
            if m["better"] == "higher":
                worse = -worse
            ok = worse <= m["bound"]
            steady &= ok
            print(f"  {m['name']:12s} second set worse by {worse:7.2%}  "
                  f"bound {m['bound']:.0%}  {'ok' if ok else 'NOT STEADY'}")
        sys.stdout.flush()
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
