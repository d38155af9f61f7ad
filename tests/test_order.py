"""The dominance order on indices (an oracle) and the peel's use of it."""

import random

import pytest

from kmfactor import PVIndex, log_numerator, marker_exponent, normalized_numerator, peel_log_sum
from kmfactor.selftest import random_factors
from kmfactor.series import Series
from oracles import dominates, equivalent, maximal_indices


def test_strict_containment_dominates():
    assert dominates(PVIndex((1, 2), (5, 5)), PVIndex((1,), (0,)))
    assert not dominates(PVIndex((1,), (0,)), PVIndex((1, 2), (5, 5)))


def test_same_nodes_componentwise():
    a = PVIndex((1,), (1,))
    b = PVIndex((1,), (3,))
    assert dominates(a, b)
    assert not dominates(b, a)


def test_incomparable_weights():
    a = PVIndex((1, 2), (1, 0))
    b = PVIndex((1, 2), (0, 1))
    assert not dominates(a, b) and not dominates(b, a)


def test_disjoint_nodes_incomparable():
    a = PVIndex((1,), (0,))
    b = PVIndex((2,), (5,))
    assert not dominates(a, b) and not dominates(b, a)


def test_equivalent():
    assert equivalent(PVIndex((1, 2), (3, 4)), PVIndex.from_map((2, 1), {2: 4, 1: 3}))
    assert not equivalent(PVIndex((1,), (0,)), PVIndex((2,), (0,)))
    assert not equivalent(PVIndex((1,), (0,)), PVIndex((1,), (1,)))


def test_maximal_containment():
    items = [PVIndex((1,), (1,)), PVIndex((1, 2), (0, 0))]
    assert maximal_indices(items) == [1]


def test_maximal_duplicates_and_incomparables():
    twice = [PVIndex((1,), (2,)), PVIndex((1,), (2,))]
    assert maximal_indices(twice) == [0, 1]
    apart = [PVIndex((1,), (0,)), PVIndex((2,), (5,))]
    assert maximal_indices(apart) == [0, 1]


def test_maximal_empty():
    with pytest.raises(ValueError):
        maximal_indices([])


def _random_index(rng):
    nodes = tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 3))))
    return PVIndex(nodes, tuple(rng.randint(0, 2) for _ in nodes))


def test_preorder_laws():
    rng = random.Random(3)
    items = [_random_index(rng) for _ in range(30)]
    for a in items:
        assert dominates(a, a)
    for a in items:
        for b in items:
            if dominates(a, b) and dominates(b, a):
                assert equivalent(a, b)
            for c in items:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


def test_equivalent_indices_share_numerator_and_marker(a3):
    rng = random.Random(9)
    for _ in range(10):
        nodes = tuple(sorted(rng.sample(a3.nodes(), rng.randint(1, 3))))
        pairings = tuple(rng.randint(0, 2) for _ in nodes)
        a, b = PVIndex(nodes, pairings), PVIndex(nodes, pairings)
        assert equivalent(a, b)
        assert marker_exponent(a3, a) == marker_exponent(a3, b)
        assert normalized_numerator(a3, a, 6) == normalized_numerator(a3, b, 6)


def test_peel_removes_a_dominance_maximal_factor(a3):
    rng = random.Random(5)
    for _ in range(20):
        factors = random_factors(rng, a3, max_count=4, max_pairing=2)
        cap = max(sum(marker_exponent(a3, pv)) for pv in factors)
        total = Series.zero(a3.n, cap)
        for pv in factors:
            total = total + log_numerator(a3, pv, cap)
        remaining = list(factors)
        for pv in peel_log_sum(a3, total).factors:
            assert pv in [remaining[k] for k in maximal_indices(remaining)]
            remaining.remove(pv)
        assert remaining == []
