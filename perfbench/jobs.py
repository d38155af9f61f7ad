"""Workloads of the kmfactor benchmark: job lists and their expected outcomes.

A job list is a sequence of rounds.  Round ``r`` of a workload is built
from ``(workload, seed, r)`` alone, so one seed always gives the same jobs.
Every round holds one job of each of the workload's templates, and what a
job computes depends on the template and the round, never on the seed; the
seed orders each round and, for ``characters``, renames the nodes.  So every
seed's job list holds the same mix of work and runs with different seeds
can be compared.

Every job carries its expected outcome, written here when the job is made and
never by running the program: factor multisets the job built itself, refusal
error types, closed-form root multiplicities, the identity
``body * N_full == N_I`` for characters, and recorded ``kmf`` output.

This module uses only the standard library; it never imports kmfactor.
"""

from __future__ import annotations

import functools
import json
import os
import random

# -- algebras ------------------------------------------------------------------


def cycle(n: int) -> list[list[int]]:
    """Cartan matrix of the untwisted affine algebra A_{n-1}^(1): an n-cycle."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        rows[k][(k + 1) % n] = rows[(k + 1) % n][k] = -1
    return rows


# ``delta`` is the null root and ``imag`` the multiplicity of every k*delta;
# affine algebras have no other imaginary roots.  ``finite`` algebras have
# only real roots.  The hyperbolic ``indef2`` has imaginary roots without a
# closed form, so only its real roots and root strings are checked.
ALGEBRAS: dict[str, dict] = {
    "A2aff": {"rows": cycle(3), "delta": (1, 1, 1), "imag": 2},
    "A3aff": {"rows": cycle(4), "delta": (1, 1, 1, 1), "imag": 3},
    "A5aff": {"rows": cycle(6), "delta": (1,) * 6, "imag": 5},
    "C2aff": {"rows": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
              "delta": (1, 2, 1), "imag": 2},
    "A2tw": {"rows": [[2, -1], [-4, 2]], "delta": (1, 2), "imag": 1},
    "indef2": {"rows": [[2, -3], [-3, 2]]},
    "mixed3": {"rows": [[2, -1, -1], [-1, 2, 0], [-2, 0, 2]], "finite": True},
    # path 1-2-3 with extra edges 3-4 and 3-5 (the paper's figure 1)
    "figure1": {"rows": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
                         [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]]},
}


def connected_subsets(rows, size: int) -> list[tuple[int, ...]]:
    """Connected node sets (1-based) of the given size, in sorted order."""
    n = len(rows)
    out = []

    def grow(chosen: frozenset[int]) -> None:
        if len(chosen) == size:
            out.append(tuple(sorted(chosen)))
            return
        for j in range(1, n + 1):
            if j not in chosen and any(rows[i - 1][j - 1] for i in chosen):
                grow(chosen | {j})

    for i in range(1, n + 1):
        grow(frozenset({i}))
    return sorted(set(out))


def real_roots(rows, cap: int) -> set[tuple[int, ...]]:
    """Positive real roots of degree at most ``cap``.

    Every positive real root other than a simple root is s_i of a real root
    of smaller degree, so raising simple roots by simple reflections while
    the degree grows reaches all of them.
    """
    n = len(rows)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                pairing = sum(rows[i][j] * beta[j] for j in range(n))
                if pairing >= 0:
                    continue
                gamma = beta[:i] + (beta[i] - pairing,) + beta[i + 1:]
                if sum(gamma) <= cap and gamma not in seen:
                    seen.add(gamma)
                    nxt.append(gamma)
        frontier = nxt
    return seen


def expected_multiplicities(name: str, rows, delta, cap: int) -> dict:
    """Closed-form multiplicity facts for an algebra, up to degree ``cap``.

    Real roots have multiplicity 1; so has alpha_j + k alpha_i for
    1 <= k <= -a_ij, and alpha_j + k alpha_i for k = 1 - a_ij is no root.
    Affine algebras add k*delta with multiplicity ``imag``.  When the facts
    cover every root (finite and affine types) the result must equal them.
    """
    spec = ALGEBRAS[name]
    n = len(rows)
    facts = {beta: 1 for beta in real_roots(rows, cap)}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(1, 2 - rows[i][j]):
                beta = tuple(k if m == i else int(m == j) for m in range(n))
                if sum(beta) <= cap:
                    facts[beta] = 1 if k <= -rows[i][j] else 0
    complete = bool(spec.get("finite")) or delta is not None
    if delta is not None:
        k = 1
        while k * sum(delta) <= cap:
            facts[tuple(k * d for d in delta)] = spec["imag"]
            k += 1
    return {"facts": sorted([list(b), m] for b, m in facts.items()),
            "complete": complete}


# -- characters: cold and kernel-bound -----------------------------------------------

# (algebra, cap, node-set sizes of the characters).  Each job computes one
# character per size, the root multiplicities, and recovers the factors of
# the product of its characters.  Node sets are proper, so no character is
# the trivial full-set one.  The kernel's cost grows steeply with cap and
# rank; these caps hold one round of seven jobs to about half a second on a
# 2-core x86 box, so that a 20 s run passes over its 105 jobs two to four
# times.
CHARACTER_TEMPLATES = (
    ("A2tw", 16, (1, 1, 1)),
    ("indef2", 16, (1, 1, 1)),
    ("A2aff", 10, (1, 2)),
    ("C2aff", 11, (1, 2)),
    ("mixed3", 10, (1, 2)),
    ("A3aff", 7, (2, 3)),
    ("A5aff", 4, (2, 3)),
)


def _relabel(rows, perm):
    """Rows of the same algebra with old node i renamed perm[i] (0-based)."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def _character_job(rng: random.Random, seed: int, r: int, template) -> dict:
    name, cap, sizes = template
    spec = ALGEBRAS[name]
    n = len(spec["rows"])
    perm = list(range(n))
    rng.shuffle(perm)
    rows = _relabel(spec["rows"], perm)
    delta = None
    if "delta" in spec:
        delta = [0] * n
        for i, d in enumerate(spec["delta"]):
            delta[perm[i]] = d
        delta = tuple(delta)
    job_id = f"characters/s{seed}/r{r}/{name}"
    # Fresh labels make a new CartanMatrix, so no cache entry of an earlier
    # job can be hit.
    labels = [f"{name}.s{seed}.r{r}.{k}" for k in range(1, n + 1)]
    # The indices cycle with the round, not the seed, so every seed's job
    # list holds the same mix of work; the seed relabels and reorders it.
    indices = []
    for slot, size in enumerate(sizes):
        choices = connected_subsets(spec["rows"], size)
        nodes = choices[(r + slot) % len(choices)]
        # the marker exponent, of degree sum(pairing + 1), must fit under
        # the cap for the factor to be recoverable
        pairings = [(r + slot + i) % 3 for i in range(size)]
        while sum(pairings) + size > cap:
            pairings[pairings.index(max(pairings))] -= 1
        renamed = sorted(zip((perm[i - 1] + 1 for i in nodes), pairings))
        indices.append([[i for i, _ in renamed], [p for _, p in renamed]])
    factors = sorted(indices)
    return {
        "id": job_id,
        "rows": rows,
        "labels": labels,
        "cap": cap,
        "indices": indices,
        "expect": {
            "multiplicities": expected_multiplicities(name, rows, delta, cap),
            "factors": factors,
        },
    }


# -- peel: warm and reuse-bound ------------------------------------------------------

# Each set is one algebra at one cap with a fixed factor pool whose
# log-numerators the worker computes during set-up.  Folded sets carry the
# node partition; their pool holds symmetric indices on connected,
# equiconnected class unions.
PEEL_SETS: dict[str, dict] = {
    "A3aff": {
        "algebra": "A3aff", "cap": 18, "classes": None,
        "pool": [[[1], [0]], [[2], [2]], [[1, 2], [0, 1]], [[2, 3], [1, 0]],
                 [[3, 4], [0, 0]], [[1, 2, 3], [0, 0, 1]], [[2, 3, 4], [1, 0, 0]],
                 [[1, 2, 3, 4], [1, 0, 1, 0]]],
    },
    "C2aff": {
        "algebra": "C2aff", "cap": 14, "classes": None,
        "pool": [[[1], [0]], [[2], [1]], [[3], [0]], [[1, 2], [0, 0]],
                 [[2, 3], [1, 0]], [[1, 2, 3], [0, 1, 0]]],
    },
    "figure1": {
        "algebra": "figure1", "cap": 10, "classes": [[1], [2], [3], [4, 5]],
        "pool": [[[1], [1]], [[2], [0]], [[1, 2], [0, 1]], [[2, 3], [0, 0]],
                 [[1, 2, 3], [0, 1, 0]], [[3, 4, 5], [0, 1, 1]],
                 [[2, 3, 4, 5], [0, 0, 0, 0]], [[1, 2, 3, 4, 5], [0, 0, 0, 0, 0]]],
    },
    # A5^(1) folded by the reflection of its hexagon that fixes nodes 1 and 4
    "A5refl": {
        "algebra": "A5aff", "cap": 8, "classes": [[1], [2, 6], [3, 5], [4]],
        "pool": [[[1], [1]], [[4], [0]], [[1, 2, 6], [0, 1, 1]],
                 [[3, 4, 5], [1, 0, 1]], [[1, 2, 3, 5, 6], [0, 0, 0, 0, 0]],
                 [[2, 3, 4, 5, 6], [0, 0, 0, 0, 0]]],
    },
}

# (template name, peel set, job kind, sums).  A job peels one sum of
# log-numerators per entry of ``sums``, given as the node-set sizes of its 2
# to 5 factors.  Each factor is the pool entry of that size picked by the
# round, so every seed's job list holds the same mix of work and the seed
# only orders it.  A ``refuse`` job also peels the negation of each sum, which
# must raise NegativeLeadingCoefficient: the largest candidate of a sum of
# log-numerators has a positive coefficient.
PEEL_TEMPLATES = (
    ("A3aff-plain", "A3aff", "plain", ((4, 2), (3, 2, 1, 1))),
    ("C2aff-plain", "C2aff", "plain", ((3, 1), (2, 2, 1), (3, 2, 1, 1, 1), (2, 1))),
    ("figure1-folded", "figure1", "folded", ((5, 1), (4, 2, 1), (3, 3, 2, 1))),
    ("A5refl-folded", "A5refl", "folded", ((5, 1), (3, 3, 1, 1), (5, 5), (5, 3, 1),
                                           (5, 5, 3, 1, 1), (3, 1), (5, 1, 1, 1),
                                           (5, 3), (5, 5, 1), (3, 3, 5, 1, 1))),
    ("C2aff-refuse", "C2aff", "refuse", ((3, 2), (2, 1, 1), (3, 1, 1, 1))),
)


def _peel_job(rng: random.Random, seed: int, r: int, template) -> dict:
    name, set_name, kind, patterns = template
    pool = PEEL_SETS[set_name]["pool"]
    sums = []
    for position, sizes in enumerate(patterns):
        picks = []
        for slot, size in enumerate(sizes):
            tier = [k for k, (nodes, _) in enumerate(pool) if len(nodes) == size]
            picks.append(tier[(r + position + slot) % len(tier)])
        sums.append(sorted(picks))
    expect = [sorted(pool[k] for k in picks) for picks in sums]
    return {
        "id": f"peel/s{seed}/r{r}/{name}",
        "set": set_name,
        "kind": kind,
        "sums": sums,
        "expect": {"factors": expect,
                   "raises": "NegativeLeadingCoefficient" if kind == "refuse" else None},
    }


# -- cli: one kmf process per job --------------------------------------------------

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_GOLDEN = os.path.join(HERE, "cli_golden.json")

_A2 = {"matrix": [[2, -1], [-1, 2]]}
_B2 = {"matrix": [[2, -1], [-2, 2]], "labels": ["s", "l"]}
_G2 = {"matrix": [[2, -1], [-3, 2]]}
_A2AFF = {"matrix": cycle(3), "labels": ["a", "b", "c"]}
_A3 = {"matrix": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]}
_A1AFF = {"matrix": [[2, -2], [-2, 2]]}
_FIG1 = {"matrix": ALGEBRAS["figure1"]["rows"]}


def _doc(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# template -> list of (extra arguments, stdin payload).  Every case is run in
# both output modes.  Payloads are small, so each process is dominated by
# interpreter start, import, argument parsing and validation.
CLI_CASES: dict[str, list[tuple[list[str], str]]] = {
    "validate": [([], _doc({"gcm": g})) for g in (_A2, _B2, _A2AFF)],
    "numerator": [
        ([], _doc({"gcm": _A2AFF, "degree": 6, "I": ["a", "b"], "lam": {"a": 0, "b": 1}})),
        ([], _doc({"gcm": _B2, "degree": 8, "I": [1], "lam": {"s": 2}})),
        (["--degree", "5"], _doc({"gcm": _A3, "I": [1, 2, 3], "lam": {"1": 0, "2": 0, "3": 0}})),
    ],
    "logseries": [
        ([], _doc({"gcm": _A2AFF, "degree": 6, "I": ["a"], "lam": {"a": 1}})),
        ([], _doc({"gcm": _G2, "degree": 7, "I": [1, 2], "lam": {"1": 0, "2": 0}})),
        ([], _doc({"gcm": _A1AFF, "degree": 6, "I": [1, 2], "lam": {"1": 0, "2": 0}})),
    ],
    "character": [
        ([], _doc({"gcm": _A2AFF, "degree": 5, "I": ["b"], "lam": {"b": 0}, "offset": [1, 0, 0]})),
        ([], _doc({"gcm": _B2, "degree": 6, "I": ["s"], "lam": {"s": 1}})),
        ([], _doc({"gcm": _A1AFF, "degree": 6, "I": [1], "lam": {"1": 0}})),
    ],
    "multiplicities": [
        ([], _doc({"gcm": _A2AFF, "degree": 5})),
        ([], _doc({"gcm": _A1AFF, "degree": 8})),
        ([], _doc({"gcm": _G2, "degree": 6})),
    ],
    "leading-coeff": [
        ([], _doc({"gcm": _A3, "I": [1, 2, 3]})),
        ([], _doc({"gcm": _A2AFF, "I": ["a", "b", "c"]})),
        ([], _doc({"gcm": _FIG1, "I": [1, 2, 3, 4, 5]})),
    ],
    "orbits": [
        ([], _doc({"gcm": _A3, "automorphisms": [[3, 2, 1]]})),
        ([], _doc({"gcm": _A2AFF, "automorphisms": [["b", "c", "a"]]})),
        ([], _doc({"gcm": _FIG1, "classes": [[1], [2], [3], [4, 5]]})),
    ],
    "transversal": [
        ([], _doc({"gcm": _A3, "automorphisms": [[3, 2, 1]]})),
        ([], _doc({"gcm": _FIG1, "classes": [[1], [2], [3], [4, 5]]})),
        ([], _doc({"gcm": _A2AFF, "automorphisms": [["b", "c", "a"]]})),
    ],
    "lean-lifts": [
        ([], _doc({"gcm": _FIG1, "classes": [[1], [2], [3], [4, 5]], "K": [1, 2, 3, 4, 5]})),
        ([], _doc({"gcm": _FIG1, "classes": [[1], [2], [3], [4, 5]], "K": [3, 4, 5]})),
        ([], _doc({"gcm": _A3, "automorphisms": [[3, 2, 1]], "K": [1, 2, 3]})),
    ],
    "factor": [
        ([], _doc({"gcm": _A2AFF, "degree": 6, "log_sum_of": [
            {"I": ["a"], "lam": {"a": 1}}, {"I": ["a", "b"], "lam": {"a": 0, "b": 0}}]})),
        ([], _doc({"gcm": _B2, "degree": 8, "log_sum_of": [
            {"I": ["s"], "lam": {"s": 2}}, {"I": ["l"], "lam": {"l": 0}}]})),
        ([], _doc({"gcm": _A2, "degree": 4, "series": {"terms": [[[1, 0], "1"], [[2, 0], "1/2"],
                                                                  [[3, 0], "1/3"], [[4, 0], "1/4"]]}})),
    ],
    "factor-folded": [
        ([], _doc({"gcm": _A3, "degree": 8, "automorphisms": [[3, 2, 1]],
                   "log_sum_of": [{"I": [1, 2, 3], "lam": {"1": 1, "2": 0, "3": 1}}]})),
        ([], _doc({"gcm": _A1AFF, "degree": 8, "automorphisms": [[2, 1]],
                   "log_sum_of": [{"I": [1, 2], "lam": {"1": 0, "2": 0}},
                                  {"I": [1, 2], "lam": {"1": 1, "2": 1}}]})),
        ([], _doc({"gcm": _FIG1, "degree": 6, "classes": [[1], [2], [3], [4, 5]],
                   "log_sum_of": [{"I": [3, 4, 5], "lam": {"3": 0, "4": 0, "5": 0}}]})),
    ],
    "verify": [
        ([], _doc({"gcm": _A2, "left": [{"I": [1], "lam": {"1": 0}}, {"I": [2], "lam": {"2": 1}}],
                   "right": [{"I": [2], "lam": {"2": 1}}, {"I": [1], "lam": {"1": 0}}]})),
        ([], _doc({"gcm": _A2, "left": [{"I": [1], "lam": {"1": 0}}],
                   "right": [{"I": [1], "lam": {"1": 1}}]})),
        ([], _doc({"gcm": _B2, "left": [{"I": ["s"], "lam": {"s": 0}}],
                   "right": [{"I": [1], "lam": {"s": 0}}],
                   "offsets_left": [[1, 0]], "offsets_right": [["1", 0]]})),
    ],
    "selftest": [(["--seed", str(s)], "") for s in (1, 2, 3)],
    # malformed input: exit 2 with a JSON-pointer error document
    "schema-error": [
        ([], "{not json"),
        ([], _doc({"gcm": {"matrix": [[2, "x"], [-1, 2]]}})),
        ([], _doc({"gcm": _A2, "degree": 4, "I": [3], "lam": {"3": 0}})),
    ],
    # well-formed input that breaks a domain rule: exit 1
    "domain-error": [
        ([], _doc({"gcm": {"matrix": [[2, -1, -2], [-1, 2, -1], [-1, -2, 2]]}})),
        ([], _doc({"gcm": _A2, "degree": 3, "series": {"terms": [[[1, 0], "-1"]]}})),
        ([], _doc({"gcm": {"matrix": [[3, -1], [-1, 2]]}})),
    ],
}

# Commands of the error templates: the command each payload is sent to.
CLI_ERROR_COMMANDS = {
    "schema-error": ["validate", "validate", "numerator"],
    "domain-error": ["validate", "factor", "validate"],
}


def cli_case(template: str, variant: int, mode: str) -> dict:
    """Command line and stdin of one recorded kmf case."""
    extra, payload = CLI_CASES[template][variant]
    if template in CLI_ERROR_COMMANDS:
        command = CLI_ERROR_COMMANDS[template][variant]
    else:
        command = template
    args = [command] + extra + ["--output", mode]
    if payload:
        args += ["--input", "-"]
    return {"key": f"{template}/{variant}/{mode}", "args": args, "stdin": payload}


def all_cli_cases() -> list[dict]:
    return [cli_case(t, v, mode) for t in CLI_CASES
            for v in range(len(CLI_CASES[t])) for mode in ("json", "text")]


@functools.cache
def _golden() -> dict:
    with open(CLI_GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _cli_job(rng: random.Random, seed: int, r: int, template: str) -> dict:
    # variant and output mode cycle with the round, like the other workloads
    variant = r % len(CLI_CASES[template])
    case = cli_case(template, variant, ("json", "text")[r // len(CLI_CASES[template]) % 2])
    golden = _golden()[case["key"]]
    return {"id": f"cli/s{seed}/r{r}/{case['key']}", "args": case["args"],
            "stdin": case["stdin"],
            "expect": {"exit": golden["exit"], "stdout": golden["stdout"]}}


# -- rounds ------------------------------------------------------------------------

# A round holds one job per template.  Rounds of 5, 7 or 15 jobs keep the
# median and the 90th percentile of a job list away from the edge between
# two templates, where the estimate would jump.
TEMPLATES = {
    "characters": CHARACTER_TEMPLATES,
    "peel": PEEL_TEMPLATES,
    "cli": tuple(CLI_CASES),
}

_MAKERS = {"characters": _character_job, "peel": _peel_job, "cli": _cli_job}


def round_jobs(workload: str, seed: int, r: int) -> list[dict]:
    """Jobs of round ``r``: one per template, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    templates = list(TEMPLATES[workload])
    rng.shuffle(templates)
    make = _MAKERS[workload]
    return [make(rng, seed, r, t) for t in templates]
