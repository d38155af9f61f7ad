"""Validated Cartan matrices and Dynkin-graph connectivity.

Nodes are numbered 1..n in every public argument and result; ``labels`` are
display strings used by the CLI.  All pairing arithmetic in the package goes
through :meth:`CartanMatrix.entry`.  Connectivity, transversals and lifts
walk node bitmasks, bit i-1 for node i, via :meth:`CartanMatrix._neighbours`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import (
    DiagonalNotTwo,
    DomainError,
    NotSymmetrizable,
    PositiveOffDiagonal,
    ZeroPatternAsymmetric,
)


class _Frozen:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__``; private slots, named with
    a leading underscore, hold derived data and are not fields.  From the
    fields, read once per class into ``_fields`` and the ``_key`` getter,
    the base derives:

    - ``__init__``, taking fields by position or by name; a missing, extra,
      repeated or unknown field raises ``TypeError``;
    - ``__eq__``: ``NotImplemented`` for another type, else equal keys;
    - ``__hash__``: the hash of the key;
    - the repr ``Name(field=value, ...)`` and a ``__reduce__`` that rebuilds
      an instance through its constructor, for copying and pickling.

    Setting an attribute raises.  A subclass that checks its input or
    stores derived data writes its own ``__init__`` and sets its slots with
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(fields)} once each; "
                f"got {len(args)} by position and {sorted(kwargs)} by name")
        for field in fields:
            object.__setattr__(self, field, values[field])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def _mask(nodes: Iterable[int]) -> int:
    """The bitmask of a node set, bit i-1 for node i."""
    return sum(1 << (i - 1) for i in nodes)


def _node_ints(values: Iterable) -> tuple[int, ...]:
    """The values as a tuple; one that is not an int, or is a bool, is refused."""
    out = tuple(values)
    for x in out:
        if not isinstance(x, int) or isinstance(x, bool):
            raise DomainError(f"node {x!r} is not an integer")
    return out


def _nodes(mask: int) -> tuple[int, ...]:
    """The nodes of a bitmask, in increasing order."""
    return tuple(i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1)


class CartanMatrix(_Frozen):
    """A symmetrizable generalized Cartan matrix with labelled nodes.

    ``entry(i, j)`` is the integer pairing of the j-th simple root against
    the i-th simple coroot.  ``symmetrizer`` is a witness: positive rationals
    d with d_i * entry(i, j) == d_j * entry(j, i) for all i, j.  Construct
    instances through :func:`validate_gcm`.  The hash is computed once, from
    the rows and labels, since every cache lookup in the package hashes the
    matrix.  So are the adjacency masks behind the connectivity test: bit
    j-1 of the i-th mask is set when node j is a neighbour of node i.
    """

    __slots__ = ("rows", "labels", "symmetrizer", "_hash", "_adjacency")

    def __init__(self, rows: tuple[tuple[int, ...], ...], labels: tuple[str, ...],
                 symmetrizer: tuple[Fraction, ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "symmetrizer", symmetrizer)
        object.__setattr__(self, "_hash", hash((rows, labels)))
        object.__setattr__(self, "_adjacency", tuple(
            sum(1 << j for j, v in enumerate(row) if v and j != i)
            for i, row in enumerate(rows)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.rows)

    def nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def label(self, i: int) -> str:
        return self.labels[i - 1]

    def node_of_label(self, label: str) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise DomainError(f"unknown node label {label!r}") from None

    def neighbors(self, i: int) -> tuple[int, ...]:
        return _nodes(self._adjacency[i - 1])

    def check_nodes(self, nodes: Iterable[int]) -> tuple[int, ...]:
        """Validate a node set and return it as a sorted tuple."""
        seen: set[int] = set()
        for x in _node_ints(nodes):
            if not 1 <= x <= self.n:
                raise DomainError(f"node {x} out of range 1..{self.n}")
            if x in seen:
                raise DomainError(f"node {x} listed twice")
            seen.add(x)
        return tuple(sorted(seen))

    def _connected(self, nodes: Iterable[int]) -> bool:
        """:func:`is_connected` for nodes known to be valid and distinct."""
        mask = _mask(nodes)
        return mask != 0 and self._component(mask) == mask

    def _neighbours(self, mask: int) -> int:
        """The bitmask of all neighbours of the nodes of ``mask``."""
        adjacency = self._adjacency
        out = 0
        while mask:
            low = mask & -mask
            out |= adjacency[low.bit_length() - 1]
            mask ^= low
        return out

    def _component(self, mask: int) -> int:
        """The connected part of a node bitmask that holds its lowest node,
        by a frontier search with one :meth:`_neighbours` step per layer."""
        reached = frontier = mask & -mask
        while frontier:
            frontier = self._neighbours(frontier) & mask & ~reached
            reached |= frontier
        return reached


def validate_gcm(matrix: Sequence[Sequence[int]],
                 labels: Sequence[str] | None = None) -> CartanMatrix:
    """Validate a generalized Cartan matrix and find a symmetrizer.

    Checks, in order: squareness, 2's on the diagonal, nonpositive
    off-diagonal entries, symmetric zero pattern, and symmetrizability.
    The symmetrizer is assigned along a spanning tree of each Dynkin-graph
    component and verified on the remaining edges, so the test is exact.
    """
    rows = []
    for r in matrix:
        row = []
        for v in r:
            if not isinstance(v, int) or isinstance(v, bool):
                raise DomainError(f"matrix entry {v!r} is not an integer")
            row.append(v)
        rows.append(tuple(row))
    n = len(rows)
    if n < 1:
        raise DomainError("matrix must have at least one row")
    if any(len(r) != n for r in rows):
        raise DomainError("matrix must be square")

    for i in range(n):
        if rows[i][i] != 2:
            raise DiagonalNotTwo(f"entry ({i + 1},{i + 1}) is {rows[i][i]}, expected 2")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise PositiveOffDiagonal(f"entry ({i + 1},{j + 1}) is {rows[i][j]} > 0")
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise ZeroPatternAsymmetric(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                    "do not vanish together")

    # Spanning-tree assignment of the symmetrizer, one root per component.
    d: list[Fraction | None] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or rows[i][j] == 0 or d[j] is not None:
                    continue
                d[j] = d[i] * rows[i][j] / rows[j][i]
                stack.append(j)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != 0 and d[i] * rows[i][j] != d[j] * rows[j][i]:
                raise NotSymmetrizable(
                    f"no positive symmetrizer exists: edge ({i + 1},{j + 1}) "
                    "is inconsistent with the spanning-tree assignment")

    if labels is None:
        labels = tuple(str(i) for i in range(1, n + 1))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise DomainError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise DomainError("labels must be distinct")
    return CartanMatrix(tuple(rows), labels, tuple(d))  # type: ignore[arg-type]


def connected_components(cm: CartanMatrix, nodes: Iterable[int]) -> list[tuple[int, ...]]:
    """Partition a node set into maximal connected parts.

    Connectivity is judged in the Dynkin graph restricted to the given set;
    parts are sorted and listed in order of their smallest member.
    """
    remaining = _mask(cm.check_nodes(nodes))
    parts = []
    while remaining:
        part = cm._component(remaining)
        parts.append(_nodes(part))
        remaining ^= part
    return parts


def is_connected(cm: CartanMatrix, nodes: Iterable[int]) -> bool:
    """Whether the set is nonempty and induces a connected Dynkin subgraph."""
    return cm._connected(cm.check_nodes(nodes))
