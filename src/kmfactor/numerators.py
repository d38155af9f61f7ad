"""Log-numerators, parabolic Verma characters, and root multiplicities.

The log-numerator of an index is minus the logarithm of its normalized
numerator; its coefficients drive every factorization argument in the
package.  The marker exponent of an index has coordinate pairing+1 on each
of its nodes: it is the smallest exponent of the log-numerator whose support
fills the whole node set, its coefficient is positive and independent of the
weight, and a closed form for that coefficient counts ordered covers of the
node set by totally disconnected pieces.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .cartan import CartanMatrix, _Frozen, _mask
from .errors import DomainError, NonIntegralCharacter, NonIntegralMultiplicity, SizeLimit
from .series import Series
from .weyl import _CACHE_SIZE, PVIndex, normalized_numerator

_CLOSED_FORM_NODE_LIMIT = 12  # 13 isolated nodes already take about 20 s


def marker_exponent(cm: CartanMatrix, pv: PVIndex) -> tuple[int, ...]:
    """Exponent with coordinate pairing+1 on each index node, 0 elsewhere."""
    cm.check_nodes(pv.nodes)
    out = [0] * cm.n
    for i, p in zip(pv.nodes, pv.pairings):
        out[i - 1] = p + 1
    return tuple(out)


@lru_cache(maxsize=_CACHE_SIZE)
def log_numerator(cm: CartanMatrix, pv: PVIndex, cap: int) -> Series:
    """Minus the log of the normalized numerator; constant term 0."""
    return -(normalized_numerator(cm, pv, cap).log1())


class CharacterValue(_Frozen):
    """A normalized character body together with an opaque highest-weight tag.

    The body is the character divided by the exponential of the highest
    weight, so its constant term is 1; the tag is caller-supplied data
    (typically a vector) compared only by equality.  A ``Series`` is not
    hashable, so neither is a character value.
    """

    __slots__ = ("offset", "body")


def character(cm: CartanMatrix, pv: PVIndex, offset, cap: int) -> CharacterValue:
    """Normalized parabolic Verma character: numerator over the full-set one.

    Every coefficient of the body is a weight multiplicity, so a coefficient
    that is negative or non-integral is a bug and raises rather than being
    dropped.
    """
    full = PVIndex(cm.nodes(), (0,) * cm.n)
    body = normalized_numerator(cm, pv, cap).divide(normalized_numerator(cm, full, cap))
    # the stored form is unique, so integral means a denominator of 1
    if body._den != 1 or min(body._terms.values()) < 0:
        exp, c = next((e, c) for e, c in body.items() if c.denominator != 1 or c < 0)
        raise NonIntegralCharacter(f"coefficient {c} at exponent {exp}")
    return CharacterValue(offset, body)


def leading_coefficient_closed_form(cm: CartanMatrix, nodes: Iterable[int]) -> Fraction:
    """Marker coefficient of a log-numerator, from the combinatorial closed form.

    Counts ordered tuples (J_1, ..., J_k) of pairwise disjoint nonempty
    totally disconnected subsets covering the node set, and evaluates
    (-1)^|I| * sum_k (-1)^k |covers_k| / k.  Exponential in |I|; the
    enumeration memoizes on the remaining-set bitmask and is meant for the
    small node sets a Dynkin diagram provides, so node sets over
    ``_CLOSED_FORM_NODE_LIMIT`` are refused with :class:`SizeLimit`.
    """
    I = cm.check_nodes(nodes)
    if not I:
        raise DomainError("node set must be nonempty")
    if len(I) > _CLOSED_FORM_NODE_LIMIT:
        raise SizeLimit(f"the closed form is capped at {_CLOSED_FORM_NODE_LIMIT} "
                        f"nodes, got {len(I)}")
    adjacency = cm._adjacency  # node masks, bit i-1 for node i

    def independent_subsets(mask: int) -> list[int]:
        # nonempty submasks of mask inducing no Dynkin edge
        out: list[int] = []

        def grow(avail: int, cur: int) -> None:
            if not avail:
                if cur:
                    out.append(cur)
                return
            low = avail & -avail
            grow(avail & ~low, cur)
            grow(avail & ~(low | adjacency[low.bit_length() - 1]), cur | low)

        grow(mask, 0)
        return out

    memo: dict[tuple[int, int], int] = {}

    def covers(mask: int, parts: int) -> int:
        if not mask:
            return 1 if parts == 0 else 0
        if parts == 0:
            return 0
        key = (mask, parts)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = sum(covers(mask & ~j, parts - 1) for j in independent_subsets(mask))
        memo[key] = total
        return total

    full = _mask(I)
    acc = Fraction(0)
    for parts in range(1, len(I) + 1):
        acc += Fraction((-1) ** parts * covers(full, parts), parts)
    return (-1) ** len(I) * acc


def root_multiplicities(cm: CartanMatrix, cap: int) -> dict[tuple[int, ...], int]:
    """Positive-root multiplicities up to the degree cap.

    The full-set log-numerator has coefficients c_e = sum over k | e of
    mult(e/k)/k, so multiplying each by its degree gives the integers
    deg(e)*c_e = sum over k | e of deg(e/k)*mult(e/k).  By increasing
    degree, deg(e)*mult(e) is that minus the terms of the proper divisors,
    and one exact division by deg(e) gives the multiplicity.  Only nonzero
    multiplicities are returned; a negative or non-integral value means the
    inputs were inconsistent and raises.

    The work runs on the packed keys and integer numerators of the
    log-numerator.  Packing is linear, so the base e/k of an exponent e has
    key key(e)/k; k divides both the degree and the coordinate fields of
    key(e), and a quotient key that is a stored root is exactly e/k.
    """
    if cap < 1:
        raise DomainError("cap must be at least 1")
    full = PVIndex(cm.nodes(), (0,) * cm.n)
    log_full = log_numerator(cm, full, cap)
    terms, den, pack = log_full._terms, log_full._den, log_full._pack
    out: dict[int, int] = {}
    for key in sorted(terms):  # key order is ascending degree
        d = key >> pack.shift
        rest = terms[key] * d  # den * deg(e) * mult(e), once the divisors are out
        g = math.gcd(d, key & pack.lex)
        for k in range(2, g + 1):
            if g % k == 0:
                mb = out.get(key // k)
                if mb:
                    rest -= den * (d // k) * mb
        m, r = divmod(rest, d * den)
        if r or m < 0:
            raise NonIntegralMultiplicity(
                f"value {Fraction(rest, d * den)} at exponent {pack.exponent(key)}")
        if m:
            out[key] = m
    return {pack.exponent(key): m for key, m in out.items()}
