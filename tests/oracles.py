"""Independent reimplementations used as oracles.

Everything here computes expected values by a different route than the
package: Weyl orbits on exponent tuples, term-by-term sums, scaling and
folding on the Fractions of ``items()``, definitional power sums for
log/inverse built on them, pairwise convolution for products, the
root-multiplicity convolution recurrence driven by the invariant bilinear
form, brute-force graph search, lifts from a banned-set enumeration of connected
subsets on frozensets, a transversal by scanning matrix entries,
the dominance order on indices that the peel loop must respect, the
peel candidate by its definition, and the peel loop on immutable series
with decoders that test connectivity on node tuples.  Nothing imports the
code paths under test beyond the plain Series and LiftData containers,
validated matrices, the lift node limit and, for the folded decoder, a
FoldContext's lift data.
"""

from __future__ import annotations

import argparse
import math
from collections import deque
from fractions import Fraction
from itertools import product

from kmfactor.cartan import connected_components
from kmfactor.cli import _COMMANDS
from kmfactor.errors import (
    DisconnectedCandidateSupport,
    DivisibilityFailure,
    DomainError,
    NegativeLeadingCoefficient,
    NoLift,
    NonzeroResidual,
    NotClassUnion,
    NotEquiconnectedCandidate,
    NoTransversal,
    SizeLimit,
    TermLimit,
)
from kmfactor.folding import _LIFT_NODE_LIMIT, LiftData
from kmfactor.series import _DENSE_TERM_LIMIT, Series
from kmfactor.weyl import PVIndex


# -- definitional series arithmetic ---------------------------------------------

def naive_mul(a: Series, b: Series) -> Series:
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            if sum(key) <= a.cap:
                terms[key] = terms.get(key, Fraction(0)) + ca * cb
    return Series(a.nvars, a.cap, terms)


def naive_add(a: Series, b: Series, sign=1) -> Series:
    """``a + sign * b``, term by term on the Fractions of ``items()``."""
    terms = dict(a.items())
    for e, c in b.items():
        terms[e] = terms.get(e, Fraction(0)) + sign * c
    return Series(a.nvars, a.cap, terms)


def naive_scale(a: Series, q) -> Series:
    return Series(a.nvars, a.cap, {e: q * c for e, c in a.items()})


def naive_fold(a: Series, classes) -> Series:
    """Sum the coordinates of each class (tuples of 1-based variables)."""
    terms = {}
    for e, c in a.items():
        key = tuple(sum(e[i - 1] for i in part) for part in classes)
        terms[key] = terms.get(key, Fraction(0)) + c
    return Series(len(classes), a.cap, terms)


def naive_log1(a: Series) -> Series:
    one = Series.one(a.nvars, a.cap)
    u = naive_add(a, one, -1)
    out = Series.zero(a.nvars, a.cap)
    power = one
    for k in range(1, a.cap + 1):
        power = naive_mul(power, u)
        out = naive_add(out, naive_scale(power, Fraction((-1) ** (k + 1), k)))
    return out


def naive_invert(a: Series) -> Series:
    one = Series.one(a.nvars, a.cap)
    v = naive_add(one, a, -1)
    out = one
    power = one
    for _ in range(a.cap):
        power = naive_mul(power, v)
        out = naive_add(out, power)
    return out


def geometric_log(nvars: int, cap: int, roots: dict[tuple[int, ...], int]) -> Series:
    """-log of prod (1 - x^root)^mult as the explicit double sum."""
    terms = {}
    for root, mult in roots.items():
        d = sum(root)
        for k in range(1, cap // d + 1):
            exp = tuple(k * r for r in root)
            terms[exp] = terms.get(exp, Fraction(0)) + Fraction(mult, k)
    return Series(nvars, cap, terms)


# -- Weyl orbits on exponent tuples ---------------------------------------------

def naive_orbit(cm, pv, cap: int) -> list[tuple[tuple[int, ...], int]]:
    """The parabolic orbit as (offset, sign) pairs sorted by (degree, lex),
    by the same breadth-first search as the package but on offset tuples
    rebuilt at every step, with no budget and no collision guard."""
    n, I = cm.n, pv.nodes
    zero = (0,) * n
    out = {zero: 1}
    queue = deque([(tuple(p + 1 for p in pv.pairings), zero, 1)])
    while queue:
        values, offset, sign = queue.popleft()
        for node, v in zip(I, values):
            if v <= 0:
                continue
            noffset = offset[:node - 1] + (offset[node - 1] + v,) + offset[node:]
            if sum(noffset) > cap or noffset in out:
                continue
            out[noffset] = -sign
            queue.append((tuple(w - v * cm.entry(i, node) for w, i in zip(values, I)),
                          noffset, -sign))
    return sorted(out.items(), key=lambda t: (sum(t[0]), t[0]))


# -- root multiplicities from the bilinear-form recurrence ------------------------

def convolution_multiplicities(cm, cap: int) -> dict[tuple[int, ...], int]:
    """Root multiplicities via the classical convolution recurrence.

    Uses the symmetrized bilinear form (a_i, a_j) = d_i * entry(i, j) and
    the shift pairing (2rho, x) = sum 2 d_i x_i.  For each non-simple
    exponent in degree order,

        ((x, x) - (2rho, x)) * c_x = sum over x = b + g, b,g > 0 of
                                     (b, g) * c_b * c_g,

    where c_x collects mult(x/k)/k over all divisors.  The divisor sums are
    then stripped to recover multiplicities.  The degenerate case of a
    vanishing left factor only happens at proper multiples of real roots,
    which carry multiplicity zero.
    """
    n = cm.n
    d = cm.symmetrizer
    bil = [[d[i] * cm.rows[i][j] for j in range(n)] for i in range(n)]

    def form(x, y):
        return sum(bil[i][j] * x[i] * y[j]
                   for i in range(n) for j in range(n) if x[i] and y[j])

    def shift(x):
        return sum(2 * d[i] * x[i] for i in range(n))

    exps = sorted((e for e in product(*(range(cap + 1) for _ in range(n)))
                   if 0 < sum(e) <= cap), key=lambda e: (sum(e), e))
    c: dict[tuple[int, ...], Fraction] = {}
    mult: dict[tuple[int, ...], int] = {}

    def divisor_tail(e):
        total = Fraction(0)
        g = math.gcd(*e)
        for k in range(2, g + 1):
            if g % k:
                continue
            base = tuple(v // k for v in e)
            total += Fraction(mult.get(base, 0), k)
        return total

    for e in exps:
        if sum(e) == 1:
            c[e] = Fraction(1)
            mult[e] = 1
            continue
        rhs = Fraction(0)
        for b in product(*(range(v + 1) for v in e)):
            if not any(b) or b == e:
                continue
            cb = c.get(b)
            if not cb:
                continue
            g = tuple(x - y for x, y in zip(e, b))
            cg = c.get(g)
            if cg:
                rhs += form(b, g) * cb * cg
        denom = form(e, e) - shift(e)
        tail = divisor_tail(e)
        if denom == 0:
            assert rhs == 0, f"degenerate recurrence with nonzero data at {e}"
            value = tail  # multiples of real roots have multiplicity zero
        else:
            value = rhs / denom
        m = value - tail
        assert m.denominator == 1 and m >= 0, f"bad multiplicity {m} at {e}"
        if value:
            c[e] = value
        if m:
            mult[e] = int(m)
    return mult


# -- dominance of parabolic Verma indices -----------------------------------------
#
# One index dominates another when its node set strictly contains the other's,
# or the node sets coincide and every pairing is at most the matching one.
# Dominance is reflexive and transitive but not antisymmetric; indices with
# equal node sets and pairings are equivalent and share a numerator.  The peel
# loop must always remove a maximal factor in this order; it finds one from
# the series alone, so this is an independent statement of its choice.

def dominates(a, b) -> bool:
    """Whether index ``a`` dominates index ``b``."""
    if set(a.nodes) > set(b.nodes):
        return True
    if a.nodes != b.nodes:
        return False
    return all(x <= y for x, y in zip(a.pairings, b.pairings))


def equivalent(a, b) -> bool:
    """Equal node sets and equal pairings on them."""
    return a.nodes == b.nodes and a.pairings == b.pairings


def maximal_indices(items) -> list[int]:
    """Positions whose every dominator in the list is equivalent to them."""
    if not items:
        raise ValueError("maximal-element selection needs a nonempty list")
    return [k for k, cand in enumerate(items)
            if all(equivalent(other, cand) for other in items if dominates(other, cand))]


def naive_select_candidate(residual: Series) -> tuple[int, ...]:
    """The peel candidate by the definition: among the stored supports not
    strictly contained in another, the lexicographically smallest; within it
    the componentwise-minimal exponents, and of those the smallest."""
    def support(e):
        return tuple(i for i, x in enumerate(e, start=1) if x)

    exps = residual.exponents()
    supports = {support(e) for e in exps}
    maximal = min(s for s in supports
                  if not any(set(s) < set(t) for t in supports))
    pool = [e for e in exps if support(e) == maximal]
    minimal = [e for e in pool
               if not any(o != e and all(x <= y for x, y in zip(o, e))
                          for o in pool)]
    return min(minimal)


def naive_peel(total: Series, decode, term) -> tuple:
    """The peel loop on immutable series: the candidate by its definition,
    the multiplicity as a quotient of coefficients, and a new residual by
    series subtraction at every step.  Returns the factors in peel order and
    raises what the package's loop raises, with the same messages."""
    residual, factors, peeled = total, [], set()
    while not residual.is_zero:
        candidate = naive_select_candidate(residual)
        coeff = residual.coefficient(candidate)
        if coeff <= 0:
            raise NegativeLeadingCoefficient(f"coefficient {coeff} at candidate {candidate}")
        if candidate in peeled:
            raise NonzeroResidual(f"candidate {candidate} came back after it was peeled")
        pv = decode(candidate)
        t = term(pv, total.cap)
        marker = t.coefficient(candidate)
        m = Fraction(coeff) / marker if marker > 0 else Fraction(0)
        if m.denominator != 1 or m < 1:
            raise NonzeroResidual(
                f"coefficient {coeff} at candidate {candidate} "
                f"is no whole multiple of the marker coefficient {marker}")
        m = int(m)
        if len(factors) + m > _DENSE_TERM_LIMIT:
            raise TermLimit(f"{len(factors) + m} factors exceed the budget of "
                            f"{_DENSE_TERM_LIMIT}")
        residual = residual - t.scale(m)
        factors += [pv] * m
        peeled.add(candidate)
    return tuple(factors)


def naive_plain_decoder(cm):
    """A candidate's support is the factor's node set, connected by search."""
    def decode(beta):
        nodes = tuple(i for i, e in enumerate(beta, start=1) if e)
        if len(connected_components(cm, nodes)) != 1:
            raise DisconnectedCandidateSupport(f"candidate {beta} has support {list(nodes)}")
        return PVIndex(nodes, tuple(beta[i - 1] - 1 for i in nodes))
    return decode


def naive_folded_decoder(ctx):
    """A candidate's classes give a connected, equiconnected class union;
    each coordinate is q times its lean-lift count, with pairing q - 1."""
    def decode(gamma):
        nodes = tuple(sorted(i for c, e in enumerate(gamma) if e
                             for i in ctx.partition.classes[c]))
        if len(connected_components(ctx.cm, nodes)) != 1:
            raise NotEquiconnectedCandidate(
                f"class union {list(nodes)} of candidate {gamma} is disconnected")
        try:
            data = ctx.lift_data(nodes)
        except NoLift as exc:
            raise NotEquiconnectedCandidate(str(exc)) from exc
        if data.lean_counts is None:
            raise NotEquiconnectedCandidate(
                f"class union {list(nodes)} of candidate {gamma} is not equiconnected")
        class_pairings = {}
        for c, m in zip(data.class_indices, data.lean_counts):
            q, r = divmod(gamma[c], m)
            if r or q < 1:
                raise DivisibilityFailure(
                    f"coordinate {gamma[c]} at class {c + 1} is not a positive "
                    f"multiple of the lean-lift count {m}")
            class_pairings[c] = q - 1
        return ctx.symmetric_index(nodes, class_pairings)
    return decode


# -- brute-force graph helpers -----------------------------------------------------

def brute_connected_subsets(cm, nodes) -> set[frozenset[int]]:
    """All nonempty connected subsets, by checking every subset."""
    from itertools import combinations
    nodes = tuple(nodes)
    out = set()
    for size in range(1, len(nodes) + 1):
        for sub in combinations(nodes, size):
            if _is_connected_subset(cm, set(sub)):
                out.add(frozenset(sub))
    return out


def _is_connected_subset(cm, sub: set[int]) -> bool:
    start = next(iter(sub))
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in sub:
            if j not in seen and cm.entry(i, j) != 0:
                seen.add(j)
                stack.append(j)
    return seen == sub


def naive_connected_subsets(cm, vertices):
    """All nonempty connected subsets of the induced graph, each exactly once.

    Subsets are grouped by their minimum vertex v and grown inside
    {u : u >= v}; the branch that skips a frontier vertex forbids it in all
    later branches, which is what makes the enumeration duplicate-free.
    Neighbours are read off nonzero matrix entries.
    """
    verts = sorted(vertices)
    neigh = {i: tuple(j for j in cm.nodes() if j != i and cm.entry(i, j) != 0)
             for i in verts}

    def grow(cur, frontier, banned, allowed):
        yield cur
        for idx, u in enumerate(frontier):
            new_banned = banned | frozenset(frontier[:idx])
            pending = frozenset(frontier[idx + 1:])
            fresh = tuple(w for w in neigh[u]
                          if w in allowed and w not in cur
                          and w not in new_banned and w not in pending and w != u)
            yield from grow(cur | {u}, frontier[idx + 1:] + fresh,
                            new_banned, allowed)

    for i, v in enumerate(verts):
        allowed = frozenset(verts[i:])
        start_frontier = tuple(w for w in neigh[v] if w in allowed and w != v)
        yield from grow(frozenset({v}), start_frontier, frozenset(), allowed)


def naive_lift_data(cm, partition, nodes) -> LiftData:
    """Lift data of a class union: every connected subset of it, the ones
    meeting every class, the inclusion-minimal ones among those and their
    class counts, all on frozensets."""
    K = cm.check_nodes(nodes)
    if not K:
        raise DomainError("class union must be nonempty")
    if len(K) > _LIFT_NODE_LIMIT:
        raise SizeLimit(
            f"lift enumeration is capped at {_LIFT_NODE_LIMIT} nodes, got {len(K)}")
    kset = set(K)
    class_indices = sorted({partition.class_index(i) for i in K})
    for c in class_indices:
        if not set(partition.classes[c]) <= kset:
            raise NotClassUnion(
                f"{list(K)} cuts the class {list(partition.classes[c])}")
    parts = [partition.classes[c] for c in class_indices]
    lifts = [s for s in naive_connected_subsets(cm, K)
             if all(any(i in s for i in p) for p in parts)]
    if not lifts:
        raise NoLift(f"no connected subset of {list(K)} meets every class")
    lifts.sort(key=len)
    minimal = []
    for s in lifts:
        if not any(m <= s for m in minimal):
            minimal.append(s)
    vectors = [tuple(len(s & set(p)) for p in parts) for s in minimal]
    meet = tuple(min(col) for col in zip(*vectors))
    equi = meet in vectors
    ordered = sorted(tuple(sorted(s)) for s in minimal)
    lean = sorted(tuple(sorted(s)) for s, v in zip(minimal, vectors) if v == meet)
    return LiftData(tuple(ordered), tuple(lean) if equi else (),
                    tuple(class_indices), meet if equi else None)


def naive_transversal(cm, partition) -> tuple[int, ...]:
    """Grow from node 1, adding the smallest unchosen node in an unmet class
    that has a nonzero matrix entry against a chosen node."""
    if partition.n != cm.n:
        raise DomainError(f"partition covers 1..{partition.n}, matrix has {cm.n} nodes")
    chosen = {1}
    met = {partition.class_index(1)}
    while len(met) < partition.num_classes:
        candidate = None
        for y in cm.nodes():
            if y in chosen or partition.class_index(y) in met:
                continue
            if any(cm.entry(y, x) != 0 for x in chosen):
                candidate = y
                break
        if candidate is None:
            raise NoTransversal(
                "no unmet class is adjacent to the current set; the partition "
                "is not the orbit partition of a connected diagram")
        chosen.add(candidate)
        met.add(partition.class_index(candidate))
    return tuple(sorted(chosen))


def brute_automorphisms(cm) -> list[tuple[int, ...]]:
    """All node permutations preserving the matrix, in lexicographic order.

    Images are chosen node by node, and a partial permutation is dropped as
    soon as it moves an entry among the nodes placed so far.
    """
    n = cm.n
    out = []

    def extend(images):
        k = len(images) + 1
        if k > n:
            out.append(tuple(images))
            return
        for y in range(1, n + 1):
            if y in images or cm.entry(y, y) != cm.entry(k, k):
                continue
            if all(cm.entry(images[i - 1], y) == cm.entry(i, k)
                   and cm.entry(y, images[i - 1]) == cm.entry(k, i) for i in range(1, k)):
                extend(images + [y])

    extend([])
    return out


# -- the command line -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmf",
        description="Characters and unique factorization for parabolic Verma "
                    "modules over symmetrizable Kac-Moody algebras.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", default=None,
                        help="JSON input file, or '-' for stdin")
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--degree", type=int, default=None,
                        help="override the payload's truncation degree")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the selftest random suite")
    return parser
