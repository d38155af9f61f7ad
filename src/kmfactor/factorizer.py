"""Constructive unique factorization of sums of log-numerators.

Peeling works because a sum of log-numerators over connected indices always
exposes a dominance-maximal contributor: among exponents carrying nonzero
coefficients, those with inclusion-maximal support have the support of some
maximal factor, and the componentwise-minimal exponents with exactly that
support are the marker exponents of maximal factors, each with a strictly
positive coefficient.  That coefficient is the factor's multiplicity times
its marker coefficient, so subtracting the recomputed log-numerator of the
selected factor that many times cancels every copy of it, and the loop
terminates with a zero residual precisely when the input was such a sum.
The folded variant runs the same loop in class variables, decoding markers
through lean-lift counts.

The loop keeps its residual in the accumulator behind series sums and
subtracts each peeled log-numerator in place, one dict lookup for each
key that vanishes, so a step builds no series.
For a fixed matrix, partition and cap, a candidate key determines its
factor and that factor's log-numerator, so each step is one call of a
bounded cache keyed on the packed key: a warm step is one cache hit, and
a refused candidate is not cached, so it is checked again every time.  On
a miss the step decodes the key, tests connectivity on node bitmasks, and
the folded one reads lift data for the node tuples it builds without
checking them again.  Both build each factor through ``PVIndex._new``,
the trusted constructor every value type inherits from its base: the
nodes they read off a candidate are sorted and distinct and the pairings
nonnegative ints, so the checks of the public constructor would only
repeat that.  The result is built the same way.

A sum of cached log-numerators starts its peel with its candidate known:
the loop fills the top of a step's log-numerator at the step's first
cache hit, a sum of series with known tops mostly knows its own (see
:mod:`kmfactor.series`), and the loop takes its first candidate from the
top of its input; later candidates scan the residual.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Sequence

from .cartan import CartanMatrix, _Frozen
from .errors import (
    _CACHE_SIZE,
    DisconnectedCandidateSupport,
    DivisibilityFailure,
    DomainError,
    LengthMismatch,
    NegativeLeadingCoefficient,
    NonzeroResidual,
    NotEquiconnectedCandidate,
    TermLimit,
    TooManyFactors,
    _coefficient,
    _count,
    _number_text,
)
from .folding import FoldContext, Partition, _folded_log_numerator, _lift_data
from .numerators import log_numerator
from .series import _DENSE_TERM_LIMIT, Series, _packing, _Sum, support
from .weyl import PVIndex, _full_index


class FactorizationResult(_Frozen):
    """Recovered factors plus bookkeeping.

    ``factors`` lists one index per peeled factor in peel order (a multiset
    up to equivalence); ``empty_count`` counts inferred empty-node-set
    factors, which contribute nothing to any series; ``certified_degree``
    is the truncation cap the result is certified to.
    """

    __slots__ = ("factors", "empty_count", "residual_zero", "certified_degree")


class _Residual(_Sum):
    """The running residual of a peel: a series sum that also picks the
    next candidate."""

    __slots__ = ()

    def add(self, t: Series, step: int) -> None:
        """Add ``step`` times ``t`` with one lookup for a key that vanishes
        and two for one that survives: nine in ten keys of a peeled
        log-numerator vanish here, and a residual is never copied, so the
        deleted slot a surviving key leaves behind is never copied either."""
        step = self._multiplier(t, step)
        terms = self.terms
        pop = terms.pop
        for key, n in t._terms.items():
            acc = pop(key, 0) + n * step
            if acc:
                terms[key] = acc

    def candidate(self) -> int:
        """Key of the deterministic peel candidate: support-maximal, then minimal.

        Among stored exponents, keep those whose support is not strictly
        contained in another stored support, break ties by lexicographically
        smallest sorted support; within that support take the
        lexicographically smallest exponent, which is componentwise minimal
        among them.  One scan of the keys finds it, the same
        :meth:`~kmfactor.series._Packing.top` that fills a series' top.
        """
        return self.pack.top(self.terms.keys())


class _Step:
    """A cached peel step: the factor ``pv`` of a candidate key and its
    log-numerator ``t``.  The peel fills ``t``'s top at the entry's first
    hit, so a sum of cached log-numerators starts its next peel with its
    candidate known, while a cold peel, whose steps all miss, still scans
    once per step."""

    __slots__ = ("pv", "t", "seen")

    def __init__(self, pv: PVIndex, t: Series):
        self.pv, self.t, self.seen = pv, t, False


def _peel(total: Series, step: Callable) -> FactorizationResult:
    """The one peel loop: ``step(key)`` gives the :class:`_Step` of a
    positive candidate key, the factor read off it and its log-numerator,
    and that log-numerator times the factor's multiplicity is subtracted in
    one step.

    The multiplicity is the candidate's coefficient over the factor's
    marker coefficient, which for a sum of log-numerators is the number of
    copies of that factor.  A multiplicity that is not a positive integer,
    or a candidate that was already peeled and comes back, means the input
    is no such sum.  Every step removes one candidate for good, so the loop
    ends after at most as many steps as there are exponents under the cap;
    a result of more than ``_DENSE_TERM_LIMIT`` factors is refused.  The
    loop runs on one :class:`_Residual`, so a step builds no series, and a
    candidate is decoded only to name it in a refusal.  The first candidate
    is ``total``'s top, known without a scan when ``total`` is a sum of
    log-numerators whose tops are known; later ones scan the residual.
    """
    residual = _Residual(total)
    exponent = residual.pack.exponent
    factors: list[PVIndex] = []
    peeled: set[int] = set()
    pick = total._candidate
    while residual.terms:
        key = pick()
        pick = residual.candidate
        coeff = residual.terms[key]
        if coeff <= 0:
            raise NegativeLeadingCoefficient(
                f"coefficient {_number_text(Fraction(coeff, residual.den))} "
                f"at candidate {exponent(key)}")
        if key in peeled:
            raise NonzeroResidual(f"candidate {exponent(key)} came back after it was peeled")
        entry = step(key)
        pv, t = entry.pv, entry.t
        if t._top is None:
            if entry.seen:
                t._candidate()
            entry.seen = True
        marker = t._terms.get(key, 0)
        m, r = divmod(coeff * t._den, residual.den * marker) if marker > 0 else (0, 1)
        if r or m < 1:
            candidate = exponent(key)
            raise NonzeroResidual(
                f"coefficient {_number_text(Fraction(coeff, residual.den))} "
                f"at candidate {candidate} "
                f"is no whole multiple of the marker coefficient {t.coefficient(candidate)}")
        if len(factors) + m > _DENSE_TERM_LIMIT:
            raise TermLimit(f"{len(factors) + m} factors exceed the budget of "
                            f"{_DENSE_TERM_LIMIT}")
        residual.add(t, -m)
        factors += [pv] * m
        peeled.add(key)
    return FactorizationResult._new(tuple(factors), 0, True, total.cap)


@lru_cache(maxsize=_CACHE_SIZE)
def _plain_step(cm: CartanMatrix, cap: int, key: int) -> _Step:
    """The factor of a plain candidate key and its log-numerator.

    The candidate's support must be connected; it is the factor's node set,
    and the candidate's coordinates there minus one are the pairings.
    """
    beta = _packing(cm.n, cap).exponent(key)
    nodes = support(beta)
    if not cm._connected(nodes):
        raise DisconnectedCandidateSupport(f"candidate {beta} has support {list(nodes)}")
    pv = PVIndex._new(nodes, tuple(beta[i - 1] - 1 for i in nodes))
    return _Step(pv, log_numerator(cm, pv, cap))


@lru_cache(maxsize=_CACHE_SIZE)
def _folded_step(cm: CartanMatrix, partition: Partition, cap: int, key: int) -> _Step:
    """The factor of a folded candidate key and its folded log-numerator.

    The candidate's class support gives the class union K, which must be
    connected and equiconnected; each coordinate must be a multiple
    q * (lean-lift count) with q >= 1, and q - 1 is the symmetric pairing
    on that class.
    """
    gamma = _packing(partition.num_classes, cap).exponent(key)
    classes = partition.classes
    nodes = tuple(sorted(i for c in support(gamma) for i in classes[c - 1]))
    if not cm._connected(nodes):
        raise NotEquiconnectedCandidate(
            f"class union {list(nodes)} of candidate {gamma} is disconnected")
    data = _lift_data(cm, partition, nodes)
    if data.lean_counts is None:
        raise NotEquiconnectedCandidate(
            f"class union {list(nodes)} of candidate {gamma} is not equiconnected")
    pairings: dict[int, int] = {}
    for c, m in zip(data.class_indices, data.lean_counts):
        value = gamma[c]
        q, r = divmod(value, m)
        if r or q < 1:
            raise DivisibilityFailure(
                f"coordinate {value} at class {c + 1} is not a positive "
                f"multiple of the lean-lift count {m}")
        pairings.update(dict.fromkeys(classes[c], q - 1))
    pv = PVIndex._new(nodes, tuple(pairings[i] for i in nodes))
    return _Step(pv, _folded_log_numerator(cm, partition, pv, cap))


def peel_log_sum(cm: CartanMatrix, total: Series) -> FactorizationResult:
    """Recover the factor multiset from a sum of log-numerators.

    Runs :func:`_peel` with the steps of :func:`_plain_step`.
    """
    if total.nvars != cm.n:
        raise DomainError(f"series has {total.nvars} variables, matrix has {cm.n} nodes")
    if total._terms.get(0):  # key 0 is the zero exponent
        raise DomainError("a sum of log-numerators has zero constant term")
    return _peel(total, partial(_plain_step, cm, total.cap))


def recover_from_character_product(cm: CartanMatrix, product: Series,
                                   count: int) -> FactorizationResult:
    """Factor a normalized product of parabolic Verma characters.

    The product of ``count`` normalized character bodies equals the product
    of the factor numerators divided by the full-set numerator to the
    ``count``; adding back count-many full-set log-numerators to minus its
    log therefore gives the plain sum of factor log-numerators, which is
    peeled as usual.  Factors with empty node set have numerator 1 and are
    invisible, so ``count`` minus the number of recovered factors is
    reported as the empty count; factors given with disconnected node sets
    come back as their connected components.
    """
    _count(count, "factor count", 0)
    if product.nvars != cm.n:
        raise DomainError(f"series has {product.nvars} variables, matrix has {cm.n} nodes")
    cap = product.cap
    total = -(product.log1()) + log_numerator(cm, _full_index(cm), cap).scale(count)
    result = peel_log_sum(cm, total)
    if len(result.factors) > count:
        raise TooManyFactors(
            f"recovered {len(result.factors)} connected factors from a "
            f"product declared to have {count}")
    return FactorizationResult._new(result.factors, count - len(result.factors),
                                    result.residual_zero, cap)


def peel_folded(ctx: FoldContext, total: Series) -> FactorizationResult:
    """Recover symmetric factors from a folded sum of log-numerators.

    Runs :func:`_peel` in class variables, with the steps of
    :func:`_folded_step`.
    """
    if total.nvars != ctx.partition.num_classes:
        raise DomainError(
            f"series has {total.nvars} variables, partition has "
            f"{ctx.partition.num_classes} classes")
    if total._terms.get(0):
        raise DomainError("a folded sum of log-numerators has zero constant term")

    return _peel(total, partial(_folded_step, ctx.cm, ctx.partition, total.cap))


def verify_equivalence(left: Sequence[PVIndex], right: Sequence[PVIndex],
                       offsets_left: Sequence[Sequence] | None = None,
                       offsets_right: Sequence[Sequence] | None = None
                       ) -> list[int] | None:
    """Match two factor lists as multisets, checking offset sums if given.

    Returns a permutation ``sigma`` with ``left[k]`` equivalent to
    ``right[sigma[k]]`` for all k, or None if no matching exists or the
    componentwise sums of the offset vectors differ.  Offsets must be
    ``int`` or ``Fraction``, like series coefficients; anything else raises
    :class:`DomainError`.
    """
    if len(left) != len(right):
        raise LengthMismatch(f"{len(left)} factors versus {len(right)}")
    if (offsets_left is None) != (offsets_right is None):
        raise LengthMismatch("offsets must be given for both sides or neither")
    if offsets_left is not None and offsets_right is not None:
        if len(offsets_left) != len(left) or len(offsets_right) != len(right):
            raise LengthMismatch("one offset vector per factor is required")
        sums = []
        for offsets in (offsets_left, offsets_right):
            vecs = [tuple(_coefficient(x, "offset") for x in off) for off in offsets]
            if len({len(v) for v in vecs}) > 1:
                raise DomainError("offset vectors must share a dimension")
            sums.append(tuple(map(sum, zip(*vecs))) if vecs else ())
        if sums[0] != sums[1]:
            return None
    available: dict[tuple, list[int]] = {}
    for pos, pv in enumerate(right):
        available.setdefault((pv.nodes, pv.pairings), []).append(pos)
    sigma = []
    for pv in left:
        bucket = available.get((pv.nodes, pv.pairings))
        if not bucket:
            return None
        sigma.append(bucket.pop(0))
    return sigma
