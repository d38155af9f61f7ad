"""Parabolic Weyl-orbit enumeration and normalized numerators.

Weights are never realized on a Cartan subalgebra: a highest weight enters
only through its coroot pairings on the integrable node set, and orbit
points are tracked as (pairing vector, root-coordinate offset) pairs.  The
offset of an orbit point is the difference between the shifted dominant
start weight and the point, written in simple-root coordinates, so it is a
nonnegative integer vector supported inside the node set.  Offsets are
carried as the packed keys of :mod:`kmfactor.series`, so a numerator takes
them as its terms unchanged and only :func:`orbit_terms` decodes them.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Iterable, Mapping

from .cartan import CartanMatrix, _Frozen
from .errors import (_CACHE_SIZE, DomainError, NegativeIntegrability, TermLimit, _count,
                     _iterable, _node_ints, _number_text)
from .series import _DENSE_TERM_LIMIT, Series, _packing


class PVIndex(_Frozen):
    """Index of a parabolic Verma factor.

    ``nodes`` is the sorted integrable node set and ``pairings[k]`` the
    coroot pairing of the highest weight at ``nodes[k]``.  Only this data
    enters any computation, so two indices compare equal exactly when they
    are interchangeable everywhere.
    """

    __slots__ = ("nodes", "pairings")

    def __init__(self, nodes: Iterable[int], pairings: Iterable[int]):
        nodes = _node_ints(nodes)
        pairings = tuple(_iterable(pairings, "a pairing list"))
        if list(nodes) != sorted(set(nodes)):
            raise DomainError(f"node set {nodes} is not strictly increasing")
        if len(pairings) != len(nodes):
            raise DomainError(
                f"{len(pairings)} pairings given for {len(nodes)} nodes")
        for i, p in zip(nodes, pairings):
            if _count(p, "pairing") < 0:
                raise NegativeIntegrability(f"pairing at node {i} is {p} < 0")
        super().__init__(nodes, pairings)

    @classmethod
    def from_map(cls, nodes: Iterable[int], lam: Mapping[int, int]) -> "PVIndex":
        """The index of the nodes, in any order, with the pairing ``lam[i]`` at
        node i; a repeated node, or a ``lam`` that is no mapping of exactly
        the nodes, is refused."""
        if not isinstance(lam, Mapping):
            raise DomainError(f"pairings of type {type(lam).__name__} are not a mapping")
        I = tuple(sorted(_node_ints(nodes)))
        if set(lam) != set(I):
            raise DomainError(
                f"pairing keys {sorted(lam)} do not match node set {list(I)}")
        return cls(I, tuple(lam[i] for i in I))

    def pairing(self, i: int) -> int:
        if _count(i, "node") not in self.nodes:
            raise DomainError(
                f"node {_number_text(i)} is not in the node set {list(self.nodes)}")
        return self.pairings[self.nodes.index(i)]

    def as_map(self) -> dict[int, int]:
        return dict(zip(self.nodes, self.pairings))


def _full_index(cm: CartanMatrix) -> PVIndex:
    """The index of the whole node set with every pairing 0, built trusted:
    its fields are valid by construction."""
    return PVIndex._new(cm.nodes(), (0,) * cm.n)


class OrbitTerm(_Frozen):
    """One orbit point: its offset exponent and the sign of the group element."""

    __slots__ = ("exponent", "sign")


def orbit_terms(cm: CartanMatrix, nodes: Iterable[int],
                lam: Mapping[int, int], cap: int) -> list[OrbitTerm]:
    """Enumerate the parabolic orbit of the shifted weight up to a degree cap.

    Starting from the pairing vector lam(i)+1 on the node set (regular
    dominant), a breadth-first search applies at node i the reflection rule
    values_j -= values_i * entry(j, i) together with offset_i += values_i,
    but only while values_i > 0; the sign alternates with depth.  The offset
    degree strictly increases along every edge, so cutting at the cap is
    exhaustive, and offsets identify group elements uniquely because the
    start vector is regular.  The search runs on packed offset keys; terms
    are decoded here and come back sorted by (degree, lex), which is key
    order.
    """
    I = cm.check_nodes(nodes)
    pv = PVIndex.from_map(I, lam)
    signs = _orbit(cm, pv, cap)
    exponent = _packing(cm.n, cap).exponent
    return [OrbitTerm._new(exponent(key), signs[key]) for key in sorted(signs)]


def _orbit(cm: CartanMatrix, pv: PVIndex, cap: int) -> dict[int, int]:
    """The orbit of :func:`orbit_terms` as a map from packed offset keys to signs."""
    _count(cap, "cap", 0)
    I = cm.check_nodes(pv.nodes)
    pack = _packing(cm.n, cap)
    # reflecting at node j moves the value at i by entry(i, j) and, packing
    # being linear, adds the unit key of coordinate j to the key, each times v
    rows = cm.rows
    moves = [(pack.unit(j - 1), tuple(rows[i - 1][j - 1] for i in I)) for j in I]
    limit = (cap + 1) << pack.shift  # the least key over the cap
    start = tuple(p + 1 for p in pv.pairings)
    signs = {0: 1}  # every key seen so far
    key_of = {start: 0}  # guards pairing-vector key uniqueness
    queue = deque([(start, 0, 1)])
    while queue:
        values, key, sign = queue.popleft()
        for v, (weight, column) in zip(values, moves):
            if v <= 0:
                continue
            nkey = key + v * weight
            if nkey >= limit or nkey in signs:
                continue
            nvalues = tuple([w - v * c for w, c in zip(values, column)])
            prior = key_of.get(nvalues)
            if prior is not None and prior != nkey:
                raise RuntimeError("pairing-vector key collision in orbit enumeration")
            key_of[nvalues] = nkey
            signs[nkey] = -sign
            if len(signs) > _DENSE_TERM_LIMIT:
                raise TermLimit(
                    f"orbit holds more than {_DENSE_TERM_LIMIT} points below cap {cap}")
            queue.append((nvalues, nkey, -sign))
    return signs


@lru_cache(maxsize=_CACHE_SIZE, typed=True)  # a bool cap misses, and is refused
def normalized_numerator(cm: CartanMatrix, pv: PVIndex, cap: int) -> Series:
    """The alternating orbit sum as a series with constant term 1.

    One term of coefficient +1/-1 per enumerated orbit point; the identity
    contributes the constant term.  The orbit's keys and signs become the
    series' terms as they are, with no exponent decoded or checked.
    """
    return Series._new(cm.n, cap, _orbit(cm, pv, cap), 1)
