"""One benchmark worker: a fresh single-threaded process per launch.

Usage (from the root of a checkout)::

    python3 perfbench/worker.py --workload characters --seed 1 --mode run \\
        --seconds 20 --rounds 15

The worker imports kmfactor from ``src``, builds the first ``--rounds``
rounds of the job list, runs the workload's declared warm-up, calls
``gc.collect()`` and prints ``ready`` with what ``run.py`` needs to bring
the set-up time to reference speed (see reference.py).  Everything before
that line is set-up.  Then, by ``--mode``:

* ``setup``: exit.
* ``run``: run the job list in whole passes until ``--seconds`` seconds of
  job time have passed.
* ``fixed``: run the job list once.
* ``trace``: like ``fixed``, with the outside-in tracer recording the jobs.

Each job is timed alone; its outcome is checked against the expected one
after the timer stops, on every execution.  The worker runs on the CPUs it
is given; ``run.py`` gives it one, shared with its kmf children.  The last
line of output is one JSON document.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import jobs  # noqa: E402  (sits next to this file)
from reference import Meter, reading  # noqa: E402

# What the ``kmf`` console script runs.
KMF_ENTRY = "import sys; from kmfactor.cli import main; sys.exit(main())"
KMF_TRACED = os.path.join(HERE, "kmf_traced.py")
TRACE_PREFIX = "KMFTRACE "
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    """Environment for kmf processes: the checkout's sources, no knobs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("KMF_THREADS", None)
    return env


def _factor_list(factors) -> list:
    return sorted([list(pv.nodes), list(pv.pairings)] for pv in factors)


# -- characters --------------------------------------------------------------------

class Characters:
    """Cold jobs: each job works on a freshly labelled algebra."""

    KIND = "fraction"  # the reference its timings are scaled by

    def __init__(self, traced: bool):
        import kmfactor
        self.k = kmfactor

    def setup(self, meter: Meter) -> None:
        pass  # cold by design: nothing is warmed

    def run(self, job, attempt: int):
        k = self.k
        cap = job["cap"]
        # each attempt labels the algebra afresh, so it hits no cache entry
        labels = [f"{label}.{attempt}" for label in job["labels"]]
        cm = k.validate_gcm(job["rows"], labels)
        indices = [k.PVIndex(tuple(nodes), tuple(pairings))
                   for nodes, pairings in job["indices"]]
        bodies = [k.character(cm, pv, None, cap).body for pv in indices]
        mult = k.root_multiplicities(cm, cap)
        product = bodies[0]
        for body in bodies[1:]:
            product = product * body
        result = k.recover_from_character_product(cm, product, len(indices))
        return cm, indices, bodies, mult, result

    def check(self, job, out) -> str | None:
        cm, indices, bodies, mult, result = out
        cap = job["cap"]
        expect = job["expect"]
        full = self.k.PVIndex(cm.nodes(), (0,) * cm.n)
        n_full = self.k.normalized_numerator(cm, full, cap).items()
        for pv, body in zip(indices, bodies):
            terms = body.items()
            if any(c.denominator != 1 or c < 0 for _, c in terms):
                return f"character {pv} has a coefficient that is no multiplicity"
            # body * N_full == N_I, multiplied here rather than by kmfactor
            prod: dict = {}
            for ea, ca in terms:
                room = cap - sum(ea)
                for eb, cb in n_full:
                    if sum(eb) <= room:
                        key = tuple(x + y for x, y in zip(ea, eb))
                        prod[key] = prod.get(key, 0) + ca * cb
            prod = {e: c for e, c in prod.items() if c}
            if prod != dict(self.k.normalized_numerator(cm, pv, cap).items()):
                return f"character {pv}: body * N_full != N_I"
        facts = {tuple(b): m for b, m in expect["multiplicities"]["facts"]}
        for beta, m in facts.items():
            if mult.get(beta, 0) != m:
                return f"multiplicity of {beta} is {mult.get(beta, 0)}, expected {m}"
        if expect["multiplicities"]["complete"]:
            extra = {b for b in mult if b not in facts}
            if extra:
                return f"unexpected roots {sorted(extra)[:3]}"
        rows = job["rows"]
        for beta, m in mult.items():  # Weyl invariance: mult(s_i beta) == mult(beta)
            for i in range(cm.n):
                pairing = sum(rows[i][j] * beta[j] for j in range(cm.n))
                gamma = beta[:i] + (beta[i] - pairing,) + beta[i + 1:]
                if gamma != beta and min(gamma) >= 0 and sum(gamma) <= cap \
                        and mult.get(gamma, 0) != m:
                    return f"multiplicity differs between {beta} and its reflection {gamma}"
        if (_factor_list(result.factors) != expect["factors"] or result.empty_count
                or not result.residual_zero or result.certified_degree != cap):
            return f"recovered {_factor_list(result.factors)}, expected {expect['factors']}"
        return None


# -- peel --------------------------------------------------------------------------

class Peel:
    """Warm jobs on fixed algebras whose factor pools are computed in set-up."""

    KIND = "fraction"

    def __init__(self, traced: bool):
        import kmfactor
        from kmfactor.errors import DomainError
        self.k = kmfactor
        self.domain_error = DomainError
        self.sets = {}

    def setup(self, meter: Meter) -> None:
        k = self.k
        for name, spec in jobs.PEEL_SETS.items():
            rows = jobs.ALGEBRAS[spec["algebra"]]["rows"]
            cm = k.validate_gcm(rows)
            cap = spec["cap"]
            pool = [k.PVIndex(tuple(n), tuple(p)) for n, p in spec["pool"]]
            ctx = None
            if spec["classes"] is not None:
                ctx = k.FoldContext(cm, k.Partition.of(cm.n, spec["classes"]))
            for pv in pool:
                k.log_numerator(cm, pv, cap)
                if ctx is not None:
                    ctx.lift_data(pv.nodes)
                # a reading per warmed factor, so that a change of speed
                # within the long warm-up is scaled where it happened
                meter.stop()
                meter.start()
            self.sets[name] = (cm, ctx, cap, pool)

    def run(self, job, attempt: int):
        k = self.k
        cm, ctx, cap, pool = self.sets[job["set"]]
        factors, refusals = [], []
        for picks in job["sums"]:
            indices = [pool[i] for i in picks]
            if ctx is None:
                total = k.Series.zero(cm.n, cap)
                for pv in indices:
                    total = total + k.log_numerator(cm, pv, cap)
                factors.append(k.peel_log_sum(cm, total).factors)
            else:
                total = k.Series.zero(ctx.partition.num_classes, cap)
                for pv in indices:
                    total = total + ctx.fold_log_numerator(pv, cap)
                factors.append(k.peel_folded(ctx, total).factors)
            if job["kind"] == "refuse":
                try:
                    k.peel_log_sum(cm, -total)
                    refusals.append(None)
                except self.domain_error as exc:
                    refusals.append(type(exc).__name__)
        return factors, refusals

    def check(self, job, out) -> str | None:
        factors, refusals = out
        got = [_factor_list(f) for f in factors]
        if got != job["expect"]["factors"]:
            return f"peeled {got}, expected {job['expect']['factors']}"
        want = job["expect"]["raises"]
        if want is not None and any(r != want for r in refusals):
            return f"refusals {refusals}, expected {want}"
        return None


# -- cli ---------------------------------------------------------------------------

class Cli:
    """One kmf process per job, at most one at a time."""

    KIND = "process"

    def __init__(self, traced: bool):
        self.traced = traced
        self.env = child_env()
        self.layers: dict = {}
        self.processes: list[dict] = []

    def _kmf(self, args, stdin: str):
        if self.traced:
            argv = [sys.executable, KMF_TRACED] + args
        else:
            argv = [sys.executable, "-c", KMF_ENTRY] + args
        start = time.perf_counter()
        proc = subprocess.run(argv, input=stdin.encode(), capture_output=True,
                              env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        return proc, wall

    def setup(self, meter: Meter) -> None:
        # warm-up: one process pays the first import of kmfactor.cli
        case = jobs.cli_case("validate", 0, "json")
        proc, _ = self._kmf(case["args"], case["stdin"])
        if proc.returncode != 0:
            raise RuntimeError(f"kmf warm-up failed: {proc.stderr.decode()[-300:]}")

    def run(self, job, attempt: int):
        return self._kmf(job["args"], job["stdin"])

    def check(self, job, out) -> str | None:
        proc, wall = out
        if self.traced:
            from tracer import merge
            lines = [line for line in proc.stderr.decode().splitlines()
                     if line.startswith(TRACE_PREFIX)]
            if lines:
                doc = json.loads(lines[-1][len(TRACE_PREFIX):])
                merge(self.layers, doc["layers"])
                self.processes.append({"wall_s": wall, "main_s": doc["main_s"]})
        expect = job["expect"]
        if proc.returncode != expect["exit"]:
            return f"exit code {proc.returncode}, expected {expect['exit']}"
        if proc.stdout.decode() != expect["stdout"]:
            return "stdout differs from the recorded output"
        return None


# -- measuring ---------------------------------------------------------------------

class Runner:
    """Runs a fixed job list in whole passes, so every job runs equally often.

    Each execution is one piece of ``meter``, so its time is brought to
    reference speed with the readings taken just before and after it (see
    reference.py).  A job's time is the median over its executions.
    """

    def __init__(self, workload, fixed: list[dict], tracer, meter: Meter):
        self.workload = workload
        self.meter = meter
        self.fixed = fixed
        self.tracer = tracer
        self.samples: list[list[tuple[float, float]]] = [[] for _ in fixed]
        self.problems: list[str | None] = [None] * len(fixed)
        self.executions = self.failed = 0
        self.wall_s = 0.0

    def execute(self, index: int) -> None:
        job = self.fixed[index]
        if self.tracer is not None:
            self.tracer.paused = False
        self.meter.start()
        try:
            out, problem = self.workload.run(job, len(self.samples[index])), None
        except Exception as exc:  # a failed job is recorded, the run goes on
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        elapsed, scaled = self.meter.stop()
        if self.tracer is not None:
            self.tracer.paused = True
        if problem is None:
            problem = self.workload.check(job, out)
        self.wall_s += elapsed
        self.executions += 1
        self.samples[index].append((elapsed, scaled))
        if problem is not None:
            self.failed += 1
            self.problems[index] = self.problems[index] or problem

    def run_pass(self) -> None:
        for index in range(len(self.fixed)):
            self.execute(index)

    def results(self) -> list[list]:
        """[id, wall time, time at reference speed, problem] per job; the
        times are medians over the job's executions."""
        return [[job["id"], statistics.median(t for t, _ in samples),
                 statistics.median(t for _, t in samples), problem]
                for job, samples, problem in zip(self.fixed, self.samples, self.problems)]


WORKLOADS = {"characters": Characters, "peel": Peel, "cli": Cli}


# -- main --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "fixed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)

    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    first_reading = reading("process")
    meter = Meter(WORKLOADS[args.workload].KIND)
    meter.start()
    sys.path.insert(0, SRC)
    traced = args.mode == "trace"
    tracer = None  # cli jobs are traced inside each kmf process instead
    if traced and args.workload != "cli":
        import kmfactor  # noqa: F401  (the tracer wraps what is loaded)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](traced)
    first = [jobs.round_jobs(args.workload, args.seed, r) for r in range(args.rounds)]
    workload.setup(meter)
    gc.collect()
    meter.stop()
    # run.py scales the process start, before ``started``, by ``reading``
    print("ready", json.dumps({"started": started, "reading": first_reading,
                               "setup_s": meter.total}), flush=True)
    if args.mode == "setup":
        return 0

    runner = Runner(workload, [job for batch in first for job in batch], tracer, meter)
    runner.run_pass()
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(usage).ru_maxrss
    if args.mode == "run":
        while runner.wall_s < args.seconds:
            runner.run_pass()
    doc = {"jobs": runner.results(), "executions": runner.executions,
           "failed": runner.failed, "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        doc["layers"] = tracer.summary()
    elif traced:
        doc["layers"] = workload.layers
        doc["processes"] = workload.processes
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
