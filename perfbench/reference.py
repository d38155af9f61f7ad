"""Machine speed, read from fixed blocks of reference work.

This machine's speed drifts: for stretches of seconds to minutes the same
code runs up to twice as slow, in wall time and in CPU time alike.  Fixed
work timed back to back with a job tracks the job's slowdown far better
than the job's own times agree over a run.  So the benchmark times
reference blocks next to everything it measures and reports
``measured * REFERENCE_S[kind] / reference``: the time the work would take
on a machine where the block takes ``REFERENCE_S[kind]``.

Slow stretches do not slow all code alike, so there are two kinds of block.
In interleaved samples on a 2-vCPU Intel Xeon VM, slow stretches made
in-process kmfactor work (characters, log-numerators, peels) 1.71-1.77x
slower and the ``fraction`` block, Fraction sums, 1.81-1.83x.  They made
a Python process that imports ``kmfactor.cli`` 1.48x slower and the
``process`` block, starting a bare interpreter, 1.43x; a pure-Python loop,
at 1.44x, tracked single samples of that process worse.  So in-process
kmfactor work is scaled by ``fraction`` readings and everything that starts
processes by ``process`` readings.  Neither block touches kmfactor, so no
change to the program can move them.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# Time of each block at full speed on the machine the benchmark was defined
# on; constants, so figures of different runs and commits compare.
REFERENCE_S = {"fraction": 0.0005, "process": 0.011}
FRACTION_TERMS = 250


def _fraction_block() -> None:
    acc = Fraction(0)
    for i in range(FRACTION_TERMS):
        # denominators divide lcm(1..11), so every term costs the same
        acc += Fraction(i % 13, 1 + i % 11)


def _process_block() -> None:
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


BLOCKS = {"fraction": _fraction_block, "process": _process_block}


def reading(kind: str) -> float:
    """Best of two timings of the block of this kind, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        BLOCKS[kind]()
        best = min(best, time.perf_counter() - start)
    return best


def scale(kind: str, *readings: float) -> float:
    """Factor that turns a time measured among these readings of one kind
    into a time at reference speed."""
    return len(readings) * REFERENCE_S[kind] / sum(readings)


class Meter:
    """Times pieces of work of one kind at reference speed.

    A piece runs from ``start`` to ``stop`` and is scaled by the readings on
    either side of it: the one taken by the previous ``stop`` (or when the
    meter was made) and the one ``stop`` takes.  Readings are part of no
    piece.  ``total`` sums the scaled pieces.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.last = reading(kind)
        self.began = 0.0
        self.total = 0.0

    def start(self) -> None:
        self.began = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Wall time of the piece and its time at reference speed."""
        elapsed = time.perf_counter() - self.began
        now = reading(self.kind)
        scaled = elapsed * scale(self.kind, self.last, now)
        self.last = now
        self.total += scaled
        return elapsed, scaled
