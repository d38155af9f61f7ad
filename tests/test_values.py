"""The package's immutable value types and the hash their base caches."""

import copy
import fractions
import pickle
from array import array

import pytest

from catalog import cartan
from kmfactor import (
    CartanMatrix,
    CharacterValue,
    DiagramAutomorphism,
    FactorizationResult,
    FoldContext,
    OrbitTerm,
    Partition,
    PVIndex,
    Series,
    log_numerator,
    orbit_terms,
    validate_gcm,
)
from kmfactor.cartan import _Frozen
from kmfactor.errors import DomainError
from kmfactor.folding import LiftData

A2_ROWS = ((2, -1), (-1, 2))


def _series(c):
    return Series(2, 3, {(0, 0): 1, (1, 0): c})


# (class, field values, field to change, its changed value)
CASES = [
    (CartanMatrix,
     {"rows": A2_ROWS, "labels": ("1", "2"),
      "symmetrizer": (fractions.Fraction(1), fractions.Fraction(1))},
     "labels", ("a", "b")),
    (PVIndex, {"nodes": (1, 2), "pairings": (0, 3)}, "pairings", (0, 4)),
    (OrbitTerm, {"exponent": (1, 0), "sign": -1}, "sign", 1),
    (Partition, {"n": 3, "classes": ((1, 3), (2,))}, "classes", ((1,), (2, 3))),
    (DiagramAutomorphism, {"images": (3, 2, 1)}, "images", (1, 2, 3)),
    (FoldContext, {"cm": validate_gcm(((2, -1, 0), (-1, 2, -1), (0, -1, 2))),
                   "partition": Partition(3, ((1, 3), (2,)))},
     "partition", Partition(3, ((1,), (2,), (3,)))),
    (LiftData, {"lifts": ((1, 2), (2, 3)), "lean": ((1, 2),), "class_indices": (0, 1),
                "lean_counts": (1, 1)}, "lean_counts", None),
    (CharacterValue, {"offset": [1, 0], "body": _series(2)}, "body", _series(3)),
    (FactorizationResult, {"factors": (PVIndex((1,), (0,)),), "empty_count": 0,
                           "residual_zero": True, "certified_degree": 5},
     "empty_count", 1),
]


@pytest.mark.parametrize("cls, fields, key, other", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type(cls, fields, key, other):
    a = cls(**fields)
    b = cls(*fields.values())
    assert a == b and not a != b
    assert a != cls(**{**fields, key: other})
    assert (a == object()) is False and (a == tuple(fields.values())) is False
    if cls is CharacterValue:  # a Series is not hashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a) == copy.deepcopy(a)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, fields[name])
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == "{}({})".format(
        cls.__name__, ", ".join(f"{k}={v!r}" for k, v in fields.items()))


FIELDS = {case[0]: case[1] for case in CASES}


def test_every_value_type_is_checked():
    assert set(_Frozen.__subclasses__()) == set(FIELDS)


@pytest.mark.parametrize("cls", sorted(_Frozen.__subclasses__(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_value_contract(cls, monkeypatch):
    """Built checked or unchecked, copied or pickled, a value is equal and
    hashes alike, from a hash taken once, outside the fields and the repr."""
    values = FIELDS[cls].values()
    value = cls(*values)
    assert cls._new(*values) == value
    assert "_hash" not in cls._fields and "_hash" not in repr(value)
    copies = [cls._new(*values), copy.copy(value), copy.deepcopy(value),
              pickle.loads(pickle.dumps(value))]
    assert all(type(c) is cls and c == value for c in copies)
    if cls is CharacterValue:  # a Series is not hashable
        for v in [value, *copies]:
            with pytest.raises(TypeError):
                hash(v)
        return
    h = hash(value)
    assert h == hash(value._key(value)) and [hash(c) for c in copies] == [h] * len(copies)
    monkeypatch.setattr(cls, "_key", None)  # the fields are not read again
    assert hash(value) == h and [hash(c) for c in copies] == [h] * len(copies)


def test_generic_constructor():
    fields = {"factors": (), "empty_count": 2, "residual_zero": False, "certified_degree": 7}
    a = FactorizationResult(**fields)
    assert FactorizationResult((), 2, residual_zero=False, certified_degree=7) == a
    with pytest.raises(TypeError):
        FactorizationResult(*fields.values(), 1)
    with pytest.raises(TypeError):
        FactorizationResult((), 2, False)
    with pytest.raises(TypeError):
        FactorizationResult(**fields, cap=7)
    with pytest.raises(TypeError):
        FactorizationResult((), 2, False, 7, empty_count=2)


def test_pvindex_normalizes_and_checks():
    pv = PVIndex([1, 3], iter([2, 0]))
    assert pv.nodes == (1, 3) and pv.pairings == (2, 0)
    assert pv == PVIndex((1, 3), (2, 0))
    with pytest.raises(DomainError):
        PVIndex([3, 1], [0, 0])
    with pytest.raises(DomainError):
        PVIndex([1, 1], [0, 0])
    with pytest.raises(DomainError):
        PVIndex([1], [True])
    # a node that is not an int, or nodes or pairings that are not iterable,
    # are refused before the nodes are sorted; "ab" is not read as two nodes
    for nodes, pairings in (("ab", (0, 0)), ((1.5,), (0,)), ((1, "a"), (0, 0)),
                            (5, ()), ((1,), 5)):
        with pytest.raises(DomainError, match="is not an int$|is not iterable$"):
            PVIndex(nodes, pairings)
    with pytest.raises(DomainError, match="^node 'a' is not an int$"):
        PVIndex.from_map((1, "a"), {1: 0, "a": 0})


# bytes iterate as ints, so b"\x01" passed as the node list (1,)
@pytest.mark.parametrize("build", [
    lambda: PVIndex(b"\x01", (0,)),
    lambda: Partition.of(2, [b"\x01", b"\x02"]),
    lambda: DiagramAutomorphism(b"\x02\x01"),
    lambda: validate_gcm(A2_ROWS).check_nodes(b"\x01"),
    lambda: validate_gcm(A2_ROWS).check_nodes(bytearray(b"\x01")),
], ids=["PVIndex", "Partition.of", "DiagramAutomorphism", "check_nodes",
        "check_nodes-bytearray"])
def test_bytes_are_no_node_list(build):
    with pytest.raises(DomainError, match="node list of type (bytes|bytearray) is refused"):
        build()


# a memoryview iterates as its exporter's items: bytes as ints, an array as its values
@pytest.mark.parametrize("build", [
    lambda: PVIndex(memoryview(b"\x01"), (0,)),
    lambda: validate_gcm(A2_ROWS).check_nodes(memoryview(b"\x02")),
    lambda: validate_gcm(A2_ROWS).check_nodes(memoryview(bytearray(b"\x02"))[1:]),
], ids=["PVIndex", "check_nodes", "check_nodes-bytearray-slice"])
def test_memoryviews_of_bytes_are_no_node_list(build):
    with pytest.raises(DomainError, match="node list of type memoryview is refused, "
                                          "as its bytes would pass for ints"):
        build()


def test_memoryviews_of_int_arrays_are_node_lists():
    cm = validate_gcm(A2_ROWS)
    assert cm.check_nodes(memoryview(array("i", [2, 1]))) == cm.check_nodes([1, 2])
    assert PVIndex(memoryview(array("i", [1])), (0,)) == PVIndex((1,), (0,))


def test_a_released_memoryview_is_no_node_list():
    view = memoryview(array("i", [1]))
    view.release()
    with pytest.raises(DomainError, match="node list of type memoryview is not iterable"):
        validate_gcm(A2_ROWS).check_nodes(view)


# terms that are not pairs ended in ValueError from unpacking, and orbit_terms
# read its pairings through dict(), which refused a str or a tuple of ints
# with ValueError or TypeError
@pytest.mark.parametrize("build, message", [
    (lambda: Series(3, 4, "1"), "a term of type str is not an"),
    (lambda: Series(1, 2, [((1,), 1, 2)]), "a term of type tuple is not an"),
    (lambda: Series(1, 2, 5), "a term list of type int is not iterable"),
    (lambda: orbit_terms(validate_gcm(A2_ROWS), (), "1", 3),
     "pairings of type str are not a mapping"),
    (lambda: orbit_terms(validate_gcm(A2_ROWS), (), (0,), 3),
     "pairings of type tuple are not a mapping"),
], ids=["Series-str", "Series-triple", "Series-int", "orbit_terms-str", "orbit_terms-tuple"])
def test_malformed_terms_and_pairings_are_refused(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_cartan_matrix_hash_follows_rows_and_labels():
    cm = validate_gcm(A2_ROWS)
    relabelled = validate_gcm(A2_ROWS, ["a", "b"])
    assert cm == validate_gcm([[2, -1], [-1, 2]])
    assert hash(cm) == hash(validate_gcm([[2, -1], [-1, 2]]))
    assert cm != relabelled


def test_cartan_matrix_is_hashed_once(monkeypatch):
    """Warm cache lookups keyed on a matrix hash no Fraction."""
    cm = cartan("A3aff")
    ctx = FoldContext(cm, Partition.of(4, [[1], [2, 4], [3]]))
    pv = PVIndex((1, 2, 4), (0, 1, 1))
    log_numerator(cm, pv, 8)
    ctx.fold_log_numerator(pv, 8)
    calls = []
    original = fractions.Fraction.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(fractions.Fraction, "__hash__", counting)
    assert hash(fractions.Fraction(1, 2)) == hash(fractions.Fraction(2, 4))
    assert len(calls) == 2  # the wrapper is in place
    calls.clear()
    for _ in range(50):
        log_numerator(cm, pv, 8)
        ctx.fold_log_numerator(pv, 8)
    assert calls == []


def test_indices_and_partitions_are_hashed_once(monkeypatch):
    """Equal values hash alike however they are built, from a hash taken
    once, outside the fields and the repr."""
    pv = PVIndex((1, 3), (2, 0))
    p = Partition(3, [[3, 1], [2]])
    same = {pv: [PVIndex._new((1, 3), (2, 0)), PVIndex.from_map([3, 1], {1: 2, 3: 0})],
            p: [Partition.of(3, [(2,), [1, 3]])]}
    for value, built in same.items():
        built += [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
        for other in built:
            assert other == value and hash(other) == hash(value) == hash(value._key(value))
        assert "_hash" in _Frozen.__slots__ and "_hash" not in type(value).__slots__
    assert repr(pv) == "PVIndex(nodes=(1, 3), pairings=(2, 0))"
    assert repr(p) == "Partition(n=3, classes=((1, 3), (2,)))"
    for cls in (PVIndex, Partition):
        monkeypatch.setattr(cls, "_key", None)  # the fields are not read again
    assert hash(pv) == hash(((1, 3), (2, 0))) and hash(p) == hash((3, ((1, 3), (2,))))
