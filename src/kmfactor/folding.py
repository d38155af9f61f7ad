"""Node partitions, diagram automorphisms, lifts, and folded markers.

A partition of the Dynkin nodes (given directly, or as the orbits of a
group of diagram automorphisms) induces the variable-collapsing map
realized by :meth:`kmfactor.series.Series.fold`.  For a union of classes K,
a *lift* is a connected subset of K meeting every class of K; K is
*equiconnected* when some lift (a *lean* one) simultaneously minimizes the
intersection count with every class.  The folded marker exponent of a
symmetric index is built from those counts and does not depend on the lean
lift chosen.  Lifts and transversals grow on node bitmasks, one neighbour at
a time, and a lift is grown no further: its strict supersets are not minimal.

:class:`Partition` and :class:`DiagramAutomorphism` check their input in
their one constructor.  :class:`FoldContext` is an immutable pair of a
matrix and a partition; its lift data and folded log-numerators live in the
package's bounded caches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

from . import numerators, weyl
from .cartan import CartanMatrix, _Frozen, _mask, _nodes, connected_components
from .errors import (
    _CACHE_SIZE,
    DomainError,
    NoLift,
    NotClassUnion,
    NotCompatible,
    NotEquiconnected,
    NotSymmetric,
    NoTransversal,
    SizeLimit,
    _count,
    _iterable,
    _node,
    _node_ints,
)

if TYPE_CHECKING:
    from .series import Series
    from .weyl import PVIndex

_LIFT_NODE_LIMIT = 16


class Partition(_Frozen):
    """Nonempty disjoint classes covering 1..n, each sorted, ordered by
    smallest member; any other input is refused with :class:`DomainError`."""

    __slots__ = ("n", "classes")

    def __init__(self, n: int, classes: Iterable[Iterable[int]]):
        _count(n, "partition size", 0)
        parts = sorted(tuple(sorted(_node_ints(p))) for p in _iterable(classes, "a class list"))
        if () in parts:
            raise DomainError("a class is empty")
        nodes = sorted(i for p in parts for i in p)
        if len(nodes) != n or nodes != list(range(1, n + 1)):  # no list longer than the input
            raise DomainError(f"classes do not partition 1..{n}")
        super().__init__(n, tuple(parts))

    @classmethod
    def of(cls, n: int, classes: Iterable[Iterable[int]]) -> "Partition":
        return cls(n, classes)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_index(self, node: int) -> int:
        """0-based position of the class containing the node."""
        _node(node, self.n)
        return next(c for c, part in enumerate(self.classes) if node in part)


class DiagramAutomorphism(_Frozen):
    """A node permutation preserving the Cartan matrix; images[i-1] = image of i."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = _node_ints(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise DomainError(f"{list(images)} is not a permutation of 1..{len(images)}")
        super().__init__(images)

    def apply(self, node: int) -> int:
        return self.images[_node(node, len(self.images)) - 1]


def check_automorphism(cm: CartanMatrix, perm: Sequence[int]) -> DiagramAutomorphism:
    """Validate a permutation of 1..n as a diagram automorphism."""
    images = _node_ints(perm)
    if len(images) != cm.n:
        raise DomainError(f"{list(images)} is not a permutation of 1..{cm.n}")
    auto = DiagramAutomorphism(images)
    rows = cm.rows
    for i, row in enumerate(rows, start=1):
        image = rows[images[i - 1] - 1]
        for j, value in enumerate(row, start=1):
            if image[images[j - 1] - 1] != value:
                raise NotCompatible(
                    f"entry ({i},{j}) is not preserved by the permutation")
    return auto


def orbit_partition(cm: CartanMatrix,
                    gens: Iterable[DiagramAutomorphism | Sequence[int]]) -> Partition:
    """Orbits of the group generated by the given automorphisms.

    Every generator, an automorphism object or a raw permutation, goes
    through :func:`check_automorphism` first.  Computed by union-find over
    the generator images, which suffices because group orbits are generated
    by the relations i ~ g(i).
    """
    parent = list(range(cm.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for gen in gens:
        gen = check_automorphism(cm, gen.images if isinstance(gen, DiagramAutomorphism) else gen)
        for i, image in enumerate(gen.images, start=1):
            ri, rj = find(i), find(image)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in cm.nodes():
        groups.setdefault(find(i), []).append(i)
    return Partition.of(cm.n, groups.values())


def connected_transversal(cm: CartanMatrix, partition: Partition) -> tuple[int, ...]:
    """A connected node set meeting every class exactly once.

    Grows greedily from node 1, always adding the smallest node that is
    adjacent to the current set and lies in a class not met yet.  When the
    partition consists of automorphism orbits of a connected diagram this
    never gets stuck: a class met by the current set contains a translate
    of any boundary edge's inner endpoint, so some eligible neighbor exists.
    For arbitrary partitions the search may exhaust its options and raises.
    """
    if partition.n != cm.n:
        raise DomainError(f"partition covers 1..{partition.n}, matrix has {cm.n} nodes")
    classes = [_mask(p) for p in partition.classes]
    chosen = 1
    met = classes[0]  # nodes of the classes met; the first class holds node 1
    while met != (1 << cm.n) - 1:
        free = cm._neighbours(chosen) & ~met
        if not free:
            raise NoTransversal(
                "no unmet class is adjacent to the current set; the partition "
                "is not the orbit partition of a connected diagram")
        low = free & -free
        chosen |= low
        met |= next(m for m in classes if m & low)
    return _nodes(chosen)


class LiftData(_Frozen):
    """Inclusion-minimal lifts of one class union and the derived counts.

    ``class_indices`` lists the classes making up the union and
    ``lean_counts`` the sizes |lean lift ∩ class|, aligned with them, or
    None when no lift is lean.
    """

    __slots__ = ("lifts", "lean", "class_indices", "lean_counts")

    @property
    def equiconnected(self) -> bool:
        """Some lift is lean exactly when lean counts exist."""
        return self.lean_counts is not None


class FoldContext(_Frozen):
    """A Cartan matrix with a node partition of the same size; an immutable
    value, whose lift data and folded log-numerators are computed on first
    use into the package's bounded caches, so equal contexts share them."""

    __slots__ = ("cm", "partition")

    def __init__(self, cm: CartanMatrix, partition: Partition):
        if partition.n != cm.n:
            raise DomainError(
                f"partition covers 1..{partition.n}, matrix has {cm.n} nodes")
        super().__init__(cm, partition)

    # -- lifts -----------------------------------------------------------

    def lift_data(self, nodes: Iterable[int]) -> LiftData:
        return _lift_data(self.cm, self.partition, self.cm.check_nodes(nodes))

    def lean_lifts(self, nodes: Iterable[int]):
        """Inclusion-minimal lifts, the lean ones among them, and the verdict."""
        data = self.lift_data(nodes)
        return data.lifts, data.lean, data.equiconnected

    # -- symmetric indices and folded markers ------------------------------

    def check_symmetric(self, pv: PVIndex) -> None:
        """Pairings must agree within every class meeting the index nodes."""
        lam = pv.as_map()
        for part in self.partition.classes:
            values = {lam[i] for i in part if i in lam}
            if len(values) > 1:
                raise NotSymmetric(
                    f"pairings differ on the class {list(part)}")

    def marker_exponent(self, pv: PVIndex) -> tuple[int, ...]:
        """Folded marker of a symmetric index, where :func:`peel_folded` reads
        it: at each class, lean-lift count times (pairing + 1).  Lean lifts
        share their counts, so no choice of one matters.  Like the plain
        marker, it sums over the connected parts of the index, each an
        equiconnected class union; the empty index has the zero marker."""
        self.check_symmetric(pv)
        lam, classes = pv.as_map(), self.partition.classes
        out = [0] * len(classes)
        for part in connected_components(self.cm, pv.nodes):
            data = self.lift_data(part)
            if data.lean_counts is None:
                raise NotEquiconnected(f"{list(part)} is not equiconnected")
            for c, count in zip(data.class_indices, data.lean_counts):
                out[c] = count * (lam[classes[c][0]] + 1)
        return tuple(out)

    # -- series ------------------------------------------------------------

    def fold_series(self, series: Series) -> Series:
        """Collapse a node-indexed series to class variables."""
        return series.fold(self.partition)

    def fold_log_numerator(self, pv: PVIndex, cap: int) -> Series:
        """The folded log-numerator of an index, cached across contexts."""
        return _folded_log_numerator(self.cm, self.partition, pv, cap)

    def symmetric_index(self, nodes: Iterable[int], class_pairings: dict[int, int]) -> PVIndex:
        """Build the symmetric index from one pairing per class the nodes meet."""
        K = self.cm.check_nodes(nodes)
        index = self.partition.class_index
        classes = sorted({index(i) for i in K})
        if set(class_pairings) != set(classes):
            raise DomainError(f"class pairing keys {list(class_pairings)} do not match "
                              f"the classes {classes} that {list(K)} meets")
        return weyl.PVIndex(K, [class_pairings[index(i)] for i in K])


@lru_cache(maxsize=_CACHE_SIZE, typed=True)  # a bool cap misses, and is refused
def _folded_log_numerator(cm: CartanMatrix, partition: Partition, pv: PVIndex,
                          cap: int) -> Series:
    return numerators.log_numerator(cm, pv, cap).fold(partition)


@lru_cache(maxsize=_CACHE_SIZE)
def _lift_data(cm: CartanMatrix, partition: Partition, K: tuple[int, ...]) -> LiftData:
    """Lift data of a node tuple known to be valid, distinct and sorted.

    Connected masks grow from each node of K one neighbour at a time, and
    one that meets every class is kept as a lift and grown no further.
    Every minimal lift is reached, through connected proper subsets, each
    of which misses a class.
    """
    if not K:
        raise DomainError("class union must be nonempty")
    if len(K) > _LIFT_NODE_LIMIT:
        raise SizeLimit(
            f"lift enumeration is capped at {_LIFT_NODE_LIMIT} nodes, got {len(K)}")
    union = _mask(K)
    classes = [_mask(p) for p in partition.classes]
    class_indices = [c for c, m in enumerate(classes) if m & union]
    for c in class_indices:
        if classes[c] & ~union:
            raise NotClassUnion(
                f"{list(K)} cuts the class {list(partition.classes[c])}")
    parts = [classes[c] for c in class_indices]
    stack = [1 << (i - 1) for i in K]
    seen, lifts = set(stack), []
    while stack:
        s = stack.pop()
        if all(s & p for p in parts):
            lifts.append(s)
            continue
        for j in _nodes(cm._neighbours(s) & union & ~s):
            grown = s | 1 << (j - 1)
            if grown not in seen:
                seen.add(grown)
                stack.append(grown)
    if not lifts:
        raise NoLift(f"no connected subset of {list(K)} meets every class")
    lifts.sort(key=int.bit_count)
    minimal: list[int] = []
    for s in lifts:
        if not any(m & s == m for m in minimal):
            minimal.append(s)
    vectors = [tuple((s & p).bit_count() for p in parts) for s in minimal]
    meet = tuple(min(col) for col in zip(*vectors))
    equi = meet in vectors
    ordered = sorted(map(_nodes, minimal))
    lean = sorted(_nodes(s) for s, v in zip(minimal, vectors) if v == meet)
    return LiftData._new(tuple(ordered), tuple(lean) if equi else (),
                         tuple(class_indices), meet if equi else None)
