import random

import pytest

from catalog import CORRUPTED, MATRICES, random_simply_laced
from kmfactor import connected_components, is_connected, validate_gcm
from kmfactor.errors import (
    DiagonalNotTwo,
    DomainError,
    NotSymmetrizable,
    PositiveOffDiagonal,
    ZeroPatternAsymmetric,
)


def test_a2_valid():
    cm = validate_gcm([[2, -1], [-1, 2]])
    assert cm.n == 2
    assert cm.symmetrizer == (1, 1)
    assert cm.labels == ("1", "2")


def test_affine_a1_valid():
    cm = validate_gcm([[2, -2], [-2, 2]])
    assert cm.symmetrizer == (1, 1)


def test_asymmetric_zero_pattern_rejected():
    with pytest.raises(ZeroPatternAsymmetric):
        validate_gcm([[2, -1], [0, 2]])


def test_diagonal_not_two_rejected():
    with pytest.raises(DiagonalNotTwo):
        validate_gcm(CORRUPTED["diag3"])


def test_positive_offdiagonal_rejected():
    with pytest.raises(PositiveOffDiagonal):
        validate_gcm(CORRUPTED["positive_offdiag"])


def test_unsymmetrizable_cycle_rejected():
    with pytest.raises(NotSymmetrizable):
        validate_gcm(CORRUPTED["unsymmetrizable"])


def test_catalog_accepted_and_corruptions_rejected():
    for name, rows in MATRICES.items():
        cm = validate_gcm(rows)
        # the symmetrizer witness really symmetrizes
        d = cm.symmetrizer
        for i in range(cm.n):
            for j in range(cm.n):
                assert d[i] * rows[i][j] == d[j] * rows[j][i], name
    for rows in CORRUPTED.values():
        with pytest.raises(DomainError):
            validate_gcm(rows)


def test_non_square_and_bad_entries():
    with pytest.raises(DomainError):
        validate_gcm([[2, -1]])
    with pytest.raises(DomainError):
        validate_gcm([])
    with pytest.raises(DomainError):
        validate_gcm([[2.0]])


def test_validate_gcm_refuses_instead_of_converting():
    for matrix in (5, [5], [[2, True]], [[2, -1], [-1, 2.0]]):
        with pytest.raises(DomainError, match="is not iterable$|is not an int$"):
            validate_gcm(matrix)
    # a label that is not a str was converted with str: [1] gave the label "1"
    for labels in ([1], [b"a"], 5):
        with pytest.raises(DomainError, match="is not a str$|is not iterable$"):
            validate_gcm([[2]], labels)


def test_custom_labels():
    cm = validate_gcm([[2, -1], [-1, 2]], labels=["a", "b"])
    assert cm.label(2) == "b"
    assert cm.node_of_label("a") == 1
    with pytest.raises(DomainError):
        validate_gcm([[2]], labels=["a", "b"])
    with pytest.raises(DomainError):
        validate_gcm([[2, -1], [-1, 2]], labels=["a", "a"])


def test_components_a2(a2):
    assert connected_components(a2, (1, 2)) == [(1, 2)]
    assert is_connected(a2, (1, 2))


def test_components_block():
    cm = validate_gcm([[2, -1, 0], [-1, 2, 0], [0, 0, 2]])
    assert connected_components(cm, (1, 2, 3)) == [(1, 2), (3,)]
    assert not is_connected(cm, (1, 2, 3))


def test_components_empty(a2):
    assert connected_components(a2, ()) == []
    assert not is_connected(a2, ())


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_mask_connectivity_matches_components(name):
    # every node subset, unchecked and checked
    cm = validate_gcm(MATRICES[name])
    for mask in range(1 << cm.n):
        nodes = tuple(i for i in cm.nodes() if mask >> (i - 1) & 1)
        expect = len(connected_components(cm, nodes)) == 1
        assert cm._connected(nodes) == expect
        assert is_connected(cm, nodes) == expect


def test_is_connected_checks_nodes(a2):
    for bad in ((0,), (3,), (1, 1), (1.0,)):
        with pytest.raises(DomainError):
            is_connected(a2, bad)


def test_figure2_graph_connected():
    # 9-node path graph; classes from the folded fixtures live elsewhere
    n = 9
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n):
        rows[k - 1][k] = rows[k][k - 1] = -1
    cm = validate_gcm(rows)
    assert is_connected(cm, cm.nodes())


def test_node_validation(a2):
    with pytest.raises(DomainError):
        connected_components(a2, (0,))
    with pytest.raises(DomainError):
        connected_components(a2, (3,))
    with pytest.raises(DomainError):
        connected_components(a2, (1, 1))


def test_node_accessors_refuse_what_is_not_a_node(a2):
    # a raw index read 0 as the last node, True as node 1, and ended in an
    # IndexError past the end; a node too long to print is named by its size
    for bad in (0, 3, -1, True, False, 1.0, "1", None, 10**30, 10**5000):
        for read in (lambda: a2.entry(bad, 1), lambda: a2.entry(1, bad),
                     lambda: a2.entry(True, 10**30), lambda: a2.label(bad),
                     lambda: a2.neighbors(bad), lambda: a2.check_nodes([bad])):
            with pytest.raises(DomainError):
                read()
    assert a2.entry(1, 2) == -1 and a2.label(2) == "2" and a2.neighbors(1) == (2,)


def test_components_partition_and_maximality():
    rng = random.Random(11)
    for _ in range(25):
        cm = random_simply_laced(rng, rng.randint(2, 7))
        nodes = tuple(i for i in cm.nodes() if rng.random() < 0.7)
        parts = connected_components(cm, nodes)
        # a partition of the input
        flat = [i for p in parts for i in p]
        assert sorted(flat) == sorted(nodes)
        assert all(is_connected(cm, p) for p in parts)
        # merging any two parts disconnects
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                assert not is_connected(cm, parts[a] + parts[b])
