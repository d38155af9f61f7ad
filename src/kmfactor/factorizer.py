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
subtracts each peeled log-numerator in place, so a step builds no series;
the decoders test connectivity on node bitmasks, and the folded one reads
lift data for the node tuples it builds without checking them again.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import compress
from typing import Callable, Sequence

from .cartan import CartanMatrix, _Frozen
from .errors import (
    DisconnectedCandidateSupport,
    DivisibilityFailure,
    DomainError,
    LengthMismatch,
    NegativeLeadingCoefficient,
    NoLift,
    NonzeroResidual,
    NotEquiconnectedCandidate,
    TermLimit,
    TooManyFactors,
    _number_text,
)
from .folding import FoldContext
from .numerators import log_numerator
from .series import _DENSE_TERM_LIMIT, Series, _coefficient, _Sum, support
from .weyl import PVIndex


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

    def candidate(self) -> int:
        """Key of the deterministic peel candidate: support-maximal, then minimal.

        Among stored exponents, keep those whose support is not strictly
        contained in another stored support, break ties by lexicographically
        smallest sorted support; within that support take the
        lexicographically smallest exponent, which is componentwise minimal
        among them.  The support of a key is read with three integer
        operations into a mask that holds the first coordinate's bit
        highest.  A strict superset has the larger mask, and among supports
        none of which contains another the lexicographically smallest has
        the largest mask, so the largest mask is the chosen support.  The
        low fields of a key read in lexicographic order.
        """
        pack, keys = self.pack, self.terms.keys()
        masks = list(pack.supports(keys))
        return min(compress(keys, map(max(masks).__eq__, masks)), key=pack.lex.__and__)


def _peel(total: Series, decode: Callable, term: Callable) -> FactorizationResult:
    """The one peel loop: ``decode`` reads a factor off each positive
    candidate, and ``term(factor, cap)`` times the factor's multiplicity is
    subtracted in one step.

    The multiplicity is the candidate's coefficient over the factor's
    marker coefficient, which for a sum of log-numerators is the number of
    copies of that factor.  A multiplicity that is not a positive integer,
    or a candidate that was already peeled and comes back, means the input
    is no such sum.  Every step removes one candidate for good, so the loop
    ends after at most as many steps as there are exponents under the cap;
    a result of more than ``_DENSE_TERM_LIMIT`` factors is refused.  The
    loop runs on one :class:`_Residual`, so a step builds no series.
    """
    cap = total.cap
    residual = _Residual(total)
    factors: list[PVIndex] = []
    peeled: set[int] = set()
    while residual.terms:
        key = residual.candidate()
        candidate = residual.pack.exponent(key)
        coeff = residual.terms[key]
        if coeff <= 0:
            raise NegativeLeadingCoefficient(
                f"coefficient {_number_text(Fraction(coeff, residual.den))} "
                f"at candidate {candidate}")
        if key in peeled:
            raise NonzeroResidual(f"candidate {candidate} came back after it was peeled")
        pv = decode(candidate)
        t = term(pv, cap)
        marker = t._terms.get(key, 0)
        m, r = divmod(coeff * t._den, residual.den * marker) if marker > 0 else (0, 1)
        if r or m < 1:
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
    return FactorizationResult(tuple(factors), 0, True, cap)


def peel_log_sum(cm: CartanMatrix, total: Series) -> FactorizationResult:
    """Recover the factor multiset from a sum of log-numerators.

    Runs :func:`_peel`; a candidate must have connected support, which is
    the factor's node set, and its coordinates minus one are the pairings.
    """
    if total.nvars != cm.n:
        raise DomainError(f"series has {total.nvars} variables, matrix has {cm.n} nodes")
    if total.constant_term:
        raise DomainError("a sum of log-numerators has zero constant term")

    def decode(beta: tuple[int, ...]) -> PVIndex:
        nodes = support(beta)
        if not cm._connected(nodes):
            raise DisconnectedCandidateSupport(f"candidate {beta} has support {list(nodes)}")
        return PVIndex(nodes, tuple(beta[i - 1] - 1 for i in nodes))

    return _peel(total, decode, functools.partial(log_numerator, cm))


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
    if count < 0:
        raise DomainError("factor count must be nonnegative")
    if product.nvars != cm.n:
        raise DomainError(f"series has {product.nvars} variables, matrix has {cm.n} nodes")
    cap = product.cap
    full = PVIndex(cm.nodes(), (0,) * cm.n)
    total = -(product.log1()) + log_numerator(cm, full, cap).scale(count)
    result = peel_log_sum(cm, total)
    if len(result.factors) > count:
        raise TooManyFactors(
            f"recovered {len(result.factors)} connected factors from a "
            f"product declared to have {count}")
    return FactorizationResult(result.factors, count - len(result.factors),
                               result.residual_zero, cap)


def peel_folded(ctx: FoldContext, total: Series) -> FactorizationResult:
    """Recover symmetric factors from a folded sum of log-numerators.

    Runs :func:`_peel` in class variables.  A candidate's class support
    determines the class union K, which must be connected and
    equiconnected; each coordinate must be a multiple q * (lean-lift count)
    with q >= 1, and q - 1 is the symmetric pairing on that class.
    """
    if total.nvars != ctx.partition.num_classes:
        raise DomainError(
            f"series has {total.nvars} variables, partition has "
            f"{ctx.partition.num_classes} classes")
    if total.constant_term:
        raise DomainError("a folded sum of log-numerators has zero constant term")

    classes = ctx.partition.classes

    def decode(gamma: tuple[int, ...]) -> PVIndex:
        nodes = tuple(sorted(i for c in support(gamma) for i in classes[c - 1]))
        if not ctx.cm._connected(nodes):
            raise NotEquiconnectedCandidate(
                f"class union {list(nodes)} of candidate {gamma} is disconnected")
        try:
            data = ctx._lift_data(nodes)
        except NoLift as exc:
            raise NotEquiconnectedCandidate(str(exc)) from exc
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
        return PVIndex(nodes, [pairings[i] for i in nodes])

    return _peel(total, decode, ctx.fold_log_numerator)


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
