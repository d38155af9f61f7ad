"""Run one workload of the kmfactor benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload characters --seed 1 --seconds 20 --trace 0

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

Workloads (closed loop, one single-threaded worker process, at most one
``kmf`` child at a time):

* ``characters``: cold and kernel-bound.  Every job labels its algebra
  afresh, so no cache entry of another job is hit, and computes characters,
  root multiplicities and the factors of a character product.
* ``peel``: warm and reuse-bound.  Fixed algebras whose factor pools are
  computed in set-up; jobs peel plain and folded sums and refuse negated
  ones.
* ``cli``: process-bound.  Each job runs one ``kmf`` process on a small
  input and compares stdout and the exit code with recorded output.

The run and every process it starts keep to one CPU.  With ``--trace 0``
a worker runs a fixed list of ``MIN_ROUNDS`` rounds in whole passes until
``--seconds`` seconds of job time have passed, so every job runs equally
often; a job's time is the median over its executions.

Times are given at reference speed: each is scaled by the time of a fixed
reference block, read just before and after it, against that block's time
``REFERENCE_S`` at full speed, so the drift of this machine's speed cancels
(see reference.py).  A worker's process start is scaled by the ``process``
block, its own set-up and its jobs by its workload's ``KIND`` of block (see
worker.py).  The readings themselves are left out of every time.  The run
reports the end-to-end metrics:

* ``jobs_per_s``: jobs in the list divided by the sum of their times.
* ``job_p50_ms``, ``job_p90_ms``: median and 90th percentile of job times.
* ``peak_rss_mb``: peak RSS of the worker (of the largest ``kmf`` process
  for ``cli``) after the first pass through the list.
* ``setup_s``: the median, over ``SETUP_LAUNCHES`` fresh workers, of the
  time from launch until the worker is ready for its first job.

Wall-clock figures of the same jobs, before scaling, are printed beside
them.

``failed_frac``, the share of jobs whose outcome differs from the expected
one, is printed with them; the result line carries it as ``failed`` and
``attempted``.  With ``--trace 1`` the run reports per-layer metrics from a
traced run of a fixed job list, beside an untraced run of the same list.

The last line of stdout is one JSON document.  The exit code is 0 when the
run finished, whether or not every outcome was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from reference import reading, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "kmfactor")
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1
SETUP_LAUNCHES = 7
# Rounds in the fixed job list: at least 100 jobs, so that at least 10 lie
# above the 90th percentile.
MIN_ROUNDS = {"characters": 15, "peel": 60, "cli": 7}
TRACE_ROUNDS = {"characters": 2, "peel": 10, "cli": 2}
DEADLINE_S = 170

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (layer, statistics) recorded by the tracer; see tracer.py.
LAYER_STATS = (
    ("series.log1", ("calls", "s", "self_s", "terms_in", "terms_out")),
    ("series.invert", ("calls", "s", "self_s", "terms_out")),
    ("series.mul", ("calls", "s", "self_s", "pairs", "terms_out")),
    ("series.add", ("calls", "s", "self_s")),
    ("series.fold", ("calls", "s", "terms_in", "terms_out")),
    ("weyl.normalized_numerator", ("calls", "s", "terms_out")),
    ("numerators.log_numerator", ("calls", "s", "repeats", "repeat_s")),
    ("numerators.character", ("calls", "s", "self_s")),
    ("numerators.root_multiplicities", ("calls", "s", "self_s")),
    ("folding.lift_data", ("calls", "s", "repeats")),
    ("folding.fold_log_numerator", ("calls", "s")),
    ("factorizer.peel_log_sum", ("calls", "s", "self_s", "factors")),
    ("factorizer.peel_folded", ("calls", "s", "self_s", "factors")),
    ("factorizer.recover_from_character_product", ("calls", "s", "self_s")),
    ("cartan.validate_gcm", ("calls", "s")),
    ("cartan.is_connected", ("calls", "s")),
    ("cli.main", ("calls", "s")),
)
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "repeat_s": "s",
              "terms_in": "count", "terms_out": "count", "factors": "count",
              "repeats": "count", "pairs": "count.computed"}
MODULES = ("package", "cartan", "cli", "errors", "factorizer", "folding",
           "numerators", "order", "selftest", "series", "weyl")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    out = []
    for layer, stats in LAYER_STATS:
        for stat in stats:
            better = "higher" if stat == "repeats" else "lower"
            out.append((f"{layer}.{stat}", STAT_UNITS[stat], better))
    out += [("factorizer.refusals", "count", "higher"),
            ("cli.import_s", "s", "lower"),
            ("cli.startup_frac", "fraction", "lower"),
            ("trace.job_s", "s", "lower"),
            ("trace.series_self_frac", "fraction", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    out += [(f"{m}.lines", "lines", "lower") for m in MODULES + ("src",)]
    return out


class RunError(Exception):
    """A worker failed or ran past the deadline; no result is printed."""


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone


def launch(workload: str, seed: int, mode: str, deadline: float,
           rounds: int, seconds: float = 0) -> tuple[float, dict | None]:
    """Start a fresh worker; return its set-up time at reference speed and
    its result document."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--rounds", str(rounds), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("KMF_THREADS", None)
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise RunError("deadline passed before a worker could start")
    before = reading("process")
    # the system-wide clock, which the worker reads too
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    # a session of its own, so that a kill at the deadline takes any kmf
    # child with it
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
                            start_new_session=True)
    timer = threading.Timer(remaining, _kill_group, (proc.pid,))
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.clock_gettime(time.CLOCK_MONOTONIC) - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    word, _, info = first.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RunError(f"worker {mode} exited with code {proc.returncode}")
    info = json.loads(info)
    # process start, until the worker's first reading, then its own set-up
    started = info["started"] - start
    setup_s = started * scale("process", before, info["reading"]) + info["setup_s"]
    doc = None if mode == "setup" else json.loads(rest.strip().splitlines()[-1])
    return setup_s, doc


def failures(doc: dict) -> list[str]:
    return [f"{job_id}: {problem}" for job_id, _, _, problem in doc["jobs"]
            if problem is not None]


def job_metrics(times: list[float]) -> dict:
    """Throughput and latency of a job list from each job's time."""
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def import_seconds(runs: int = 3) -> float:
    """Median time of ``import kmfactor.cli`` in a fresh interpreter."""
    code = ("import time; s = time.perf_counter(); import kmfactor.cli; "
            "print(time.perf_counter() - s)")
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, cwd=ROOT, timeout=60, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def source_lines() -> dict[str, int]:
    """Non-blank source lines per kmfactor module, and their total."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                count = sum(1 for line in handle if line.strip())
            module = "package" if name == "__init__.py" else name[:-3]
            out[module] = count
    lines = {f"{m}.lines": out.get(m, 0) for m in MODULES}
    lines["src.lines"] = sum(out.values())
    return lines


def job_seconds(doc: dict) -> float:
    """Summed job time of a worker's list, at reference speed."""
    return sum(t for _, _, t, _ in doc["jobs"])


def traced_run(workload: str, seed: int, deadline: float) -> tuple[dict, int, int, list]:
    rounds = TRACE_ROUNDS[workload]
    # two untraced and two traced workers, alternating; the overhead ratio
    # compares the faster of each kind, at reference speed
    plains, traces = [], []
    for _ in range(2):
        plains.append(launch(workload, seed, "fixed", deadline, rounds)[1])
        traces.append(launch(workload, seed, "trace", deadline, rounds)[1])
    traced = traces[0]
    layers = traced["layers"]
    values = {}
    for layer, stats in LAYER_STATS:
        row = layers.get(layer, {})
        for stat in stats:
            values[f"{layer}.{stat}"] = row.get(stat, 0)
    values["factorizer.refusals"] = layers.get("factorizer.refusals", {}).get("count", 0)
    values["cli.import_s"] = import_seconds()
    processes = traced.get("processes") or []
    values["cli.startup_frac"] = (statistics.median(
        (p["wall_s"] - p["main_s"]) / p["wall_s"] for p in processes) if processes else 0.0)
    series_self = sum(row.get("self_s", 0.0) for name, row in layers.items()
                      if name.startswith("series."))
    values["trace.job_s"] = sum(wall for _, wall, _, _ in traced["jobs"])
    values["trace.series_self_frac"] = series_self / values["trace.job_s"]
    values["trace.overhead_ratio"] = (min(job_seconds(d) for d in traces)
                                      / min(job_seconds(d) for d in plains))
    values.update(source_lines())
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    docs = plains + traces
    failed = sum(d["failed"] for d in docs)
    attempted = sum(d["executions"] for d in docs)
    return metrics, attempted, failed, [p for d in docs for p in failures(d)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kmfactor benchmark")
    parser.add_argument("--workload", choices=("characters", "peel", "cli"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="job time per run; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no kmfactor sources at {PACKAGE}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(BENCHMARK, encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]
    deadline = time.perf_counter() + DEADLINE_S
    # one CPU for the run, its workers and their kmf children: the reference
    # readings then time the CPU the jobs ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.trace:
            metrics, attempted, failed, problems = traced_run(args.workload, args.seed,
                                                              deadline)
        else:
            rounds = MIN_ROUNDS[args.workload]
            setups = [launch(args.workload, args.seed, "setup", deadline, rounds)[0]
                      for _ in range(SETUP_LAUNCHES)]
            _, doc = launch(args.workload, args.seed, "run", deadline, rounds, args.seconds)
            values = job_metrics([t for _, _, t, _ in doc["jobs"]])
            values["peak_rss_mb"] = doc["peak_rss_kb"] / 1024
            values["setup_s"] = statistics.median(setups)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            attempted, failed, problems = doc["executions"], doc["failed"], failures(doc)
            wall = job_metrics([t for _, t, _, _ in doc["jobs"]])
            print(f"{args.workload}: {len(doc['jobs'])} jobs, {attempted} executions; "
                  f"wall clock: {wall['jobs_per_s']:.6g} jobs/s, "
                  f"p50 {wall['job_p50_ms']:.6g} ms, p90 {wall['job_p90_ms']:.6g} ms")
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for problem in problems[:20]:
        print(f"failed job {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
