"""Seeded random round-trip checks, exposed through the CLI.

Each trial draws a small symmetrizable Cartan matrix, a multiset of factors
with connected node sets, forward-computes the sum of their log-numerators,
peels it back, and compares multisets.  The generators here are also handy
for test suites that want reproducible random instances.
"""

from __future__ import annotations

import random
from collections import Counter

from .cartan import CartanMatrix, validate_gcm
from .errors import NotSymmetrizable
from .factorizer import peel_log_sum
from .numerators import log_numerator, marker_exponent
from .series import _sum_of
from .weyl import PVIndex

_MARGIN = 2  # degrees of the round-trip cap above the largest marker
_TRIALS = 20


def random_gcm(rng: random.Random, max_rank: int = 4, min_entry: int = -3) -> CartanMatrix:
    """A random symmetrizable generalized Cartan matrix (rejection-sampled)."""
    while True:
        n = rng.randint(1, max_rank)
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    rows[i][j] = -rng.randint(1, -min_entry)
                    rows[j][i] = -rng.randint(1, -min_entry)
        try:
            return validate_gcm(rows)
        except NotSymmetrizable:
            continue


def random_connected_nodes(rng: random.Random, cm: CartanMatrix) -> tuple[int, ...]:
    """A random nonempty connected node subset, grown from a random seed node."""
    target = rng.randint(1, cm.n)
    chosen = {rng.randint(1, cm.n)}
    while len(chosen) < target:
        frontier = sorted({j for i in chosen for j in cm.neighbors(i)} - chosen)
        if not frontier:
            break
        chosen.add(rng.choice(frontier))
    return tuple(sorted(chosen))


def random_factors(rng: random.Random, cm: CartanMatrix,
                   max_count: int = 4, max_pairing: int = 3) -> list[PVIndex]:
    """A random multiset of factors with connected node sets."""
    out = []
    for _ in range(rng.randint(1, max_count)):
        nodes = random_connected_nodes(rng, cm)
        out.append(PVIndex(nodes, tuple(rng.randint(0, max_pairing) for _ in nodes)))
    return out


def round_trip(cm: CartanMatrix, factors: list[PVIndex]) -> bool:
    """Forward-compute the log sum, peel it, and compare multisets exactly."""
    cap = max(sum(marker_exponent(cm, pv)) for pv in factors) + _MARGIN
    result = peel_log_sum(cm, _sum_of(cm.n, cap, (log_numerator(cm, pv, cap) for pv in factors)))
    return (result.residual_zero
            and Counter(result.factors) == Counter(factors))


def run(seed: int) -> dict:
    """Run seeded round-trip trials; returns a summary document."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(_TRIALS):
        cm = random_gcm(rng)
        factors = random_factors(rng, cm)
        if not round_trip(cm, factors):
            failures += 1
    return {"trials": _TRIALS, "failures": failures, "seed": seed}
