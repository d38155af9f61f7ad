import random

import pytest

from catalog import MATRICES, all_connected_subsets, cartan
from kmfactor import (
    FoldContext,
    Partition,
    PVIndex,
    character,
    factorizer,
    folding,
    log_numerator,
    normalized_numerator,
    orbit_terms,
    peel_folded,
    peel_log_sum,
    weyl,
)
from kmfactor import series as series_module
from kmfactor.cartan import validate_gcm
from kmfactor.errors import DomainError, NegativeIntegrability, TermLimit
from kmfactor.series import Series, support
from kmfactor.weyl import OrbitTerm
from oracles import naive_orbit

# Finite Weyl group orders for the term-count checks.
GROUP_ORDERS = {"A2": 6, "A3": 24, "B2": 8}


def test_pvindex_validation():
    with pytest.raises(NegativeIntegrability):
        PVIndex((1,), (-1,))
    with pytest.raises(DomainError):
        PVIndex((2, 1), (0, 0))
    with pytest.raises(DomainError):
        PVIndex((1,), (0, 0))
    with pytest.raises(DomainError):
        PVIndex.from_map((1, 2), {1: 0})
    pv = PVIndex.from_map((2, 1), {1: 3, 2: 5})
    assert pv.nodes == (1, 2) and pv.pairings == (3, 5)
    assert pv.pairing(2) == 5
    assert pv.as_map() == {1: 3, 2: 5}


def test_pairing_outside_node_set_refuses():
    with pytest.raises(DomainError, match="node 3 is not in the node set"):
        PVIndex((1, 2), (0, 0)).pairing(3)


def test_pvindex_refuses_instead_of_coercing():
    # True read as node 1, a repeat was dropped, and bytes ended in IndexError
    with pytest.raises(DomainError, match="node True is not an int"):
        PVIndex((1, 2), (3, 0)).pairing(True)
    with pytest.raises(DomainError, match="is not strictly increasing"):
        PVIndex.from_map([2, 1, 1], {1: 0, 2: 3})
    with pytest.raises(DomainError, match="not a mapping"):
        PVIndex.from_map(b"x", b"x")
    with pytest.raises(DomainError, match="about 5001 digits"):
        PVIndex((1, 2), (3, 0)).pairing(10 ** 5000)
    assert PVIndex((1, 2), (3, 0)).pairing(1) == 3


@pytest.mark.parametrize("m", [0, 1, 3])
def test_a1_two_terms(a1, m):
    terms = orbit_terms(a1, (1,), {1: m}, m + 2)
    assert terms == [OrbitTerm((0,), 1), OrbitTerm((m + 1,), -1)]


def test_a2_orbit_of_zero(a2):
    terms = orbit_terms(a2, (1, 2), {1: 0, 2: 0}, 4)
    signed = {t.exponent: t.sign for t in terms}
    assert signed == {(0, 0): 1, (1, 0): -1, (0, 1): -1,
                      (2, 1): 1, (1, 2): 1, (2, 2): -1}


def test_empty_node_set(a2):
    assert orbit_terms(a2, (), {}, 5) == [OrbitTerm((0, 0), 1)]


def test_cap_prunes(a1):
    assert orbit_terms(a1, (1,), {1: 4}, 3) == [OrbitTerm((0,), 1)]


@pytest.mark.parametrize("name", sorted(GROUP_ORDERS))
def test_term_count_equals_group_order(name):
    cm = cartan(name)
    nodes = cm.nodes()
    terms = orbit_terms(cm, nodes, {i: 0 for i in nodes}, 40)
    assert len(terms) == GROUP_ORDERS[name]
    assert sum(t.sign for t in terms) == 0


def test_terms_lie_in_cone_with_support_inside(a3):
    rng = random.Random(5)
    for _ in range(10):
        nodes = tuple(sorted(rng.sample(a3.nodes(), rng.randint(0, 3))))
        lam = {i: rng.randint(0, 2) for i in nodes}
        terms = orbit_terms(a3, nodes, lam, 8)
        exps = [t.exponent for t in terms]
        assert len(set(exps)) == len(exps)
        assert exps[0] == (0, 0, 0) and terms[0].sign == 1
        for t in terms[1:]:
            assert min(t.exponent) >= 0
            assert set(support(t.exponent)) <= set(nodes)


def test_affine_orbit_grows(a1aff):
    terms = orbit_terms(a1aff, (1, 2), {1: 0, 2: 0}, 9)
    signed = {t.exponent: t.sign for t in terms}
    # identity, two reflections, and the degree-4 and degree-9 layers
    assert signed[(0, 0)] == 1
    assert signed[(1, 0)] == -1 and signed[(0, 1)] == -1
    assert signed[(1, 3)] == 1 and signed[(3, 1)] == 1
    assert signed[(3, 6)] == -1 and signed[(6, 3)] == -1
    assert len(terms) == 7


def test_numerator_a1(a1):
    for m in (0, 2):
        num = normalized_numerator(a1, PVIndex((1,), (m,)), 6)
        assert num == Series(1, 6, {(0,): 1, (m + 1,): -1})


def test_numerator_a2_matches_product(a2):
    num = normalized_numerator(a2, PVIndex((1, 2), (0, 0)), 6)
    prod = Series.one(2, 6)
    for e in [(1, 0), (0, 1), (1, 1)]:
        prod = prod * (Series.one(2, 6) - Series.monomial(2, 6, e))
    assert num == prod


def test_numerator_empty_index(a2):
    assert normalized_numerator(a2, PVIndex((), ()), 5) == Series.one(2, 5)


def test_numerator_depends_only_on_index_data(a2):
    a = normalized_numerator(a2, PVIndex.from_map((1,), {1: 2}), 7)
    b = normalized_numerator(a2, PVIndex((1,), (2,)), 7)
    assert a == b


def test_invalid_nodes_rejected(a2):
    with pytest.raises(DomainError):
        orbit_terms(a2, (3,), {3: 0}, 4)
    with pytest.raises(NegativeIntegrability):
        orbit_terms(a2, (1,), {1: -2}, 4)


def test_orbit_term_budget(a3, monkeypatch):
    # the full A3 orbit has 24 points (the Weyl group order) below cap 40
    full = PVIndex((1, 2, 3), (0, 0, 0))
    monkeypatch.setattr(weyl, "_DENSE_TERM_LIMIT", 24)
    assert len(normalized_numerator(a3, full, 40)) == 24
    monkeypatch.setattr(weyl, "_DENSE_TERM_LIMIT", 23)
    with pytest.raises(TermLimit):
        normalized_numerator(a3, full, 41)


def test_orbit_cap_must_be_an_int(a2):
    with pytest.raises(DomainError, match="cap 3.5 is not an int"):
        orbit_terms(a2, [1], {1: 0}, 3.5)
    with pytest.raises(DomainError, match="^cap must be nonnegative$"):
        orbit_terms(a2, [1], {1: 0}, -1)


def test_caches_are_bounded():
    # relabelled copies are distinct matrices, so every call adds new entries
    pv = PVIndex((1, 2), (0, 1))
    symmetric = PVIndex((1, 2), (0, 0))
    flip = Partition.of(2, [[1, 2]])
    for k in range(300):
        cm = validate_gcm([[2, -1], [-1, 2]], [f"a{k}", f"b{k}"])
        ctx = FoldContext(cm, flip)
        character(cm, pv, None, 4)
        peel_log_sum(cm, log_numerator(cm, pv, 4))
        ctx.lift_data((1, 2))
        peel_folded(ctx, ctx.fold_log_numerator(symmetric, 4))
    for cache in (weyl.normalized_numerator, log_numerator, folding._lift_data,
                  folding._folded_log_numerator, factorizer._plain_step,
                  factorizer._folded_step):
        assert cache.cache_info().maxsize == 256
        assert cache.cache_info().currsize == 256
    assert series_module._packing.cache_info().maxsize == 256


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_orbit_matches_naive(name):
    cm = cartan(name)
    rng = random.Random(name)
    for nodes in [()] + all_connected_subsets(cm):
        vectors = {(p,) * len(nodes) for p in range(3)}
        vectors |= {tuple(rng.randint(0, 2) for _ in nodes) for _ in range(3)}
        for pairings in sorted(vectors):
            pv = PVIndex(nodes, pairings)
            for cap in (0, 3, 7, 12):
                expect = naive_orbit(cm, pv, cap)
                got = orbit_terms(cm, nodes, dict(zip(nodes, pairings)), cap)
                assert [(t.exponent, t.sign) for t in got] == expect
                assert normalized_numerator(cm, pv, cap) == Series(cm.n, cap, expect)


def test_numerator_checks_no_exponents(monkeypatch):
    # a relabelled A3(1) misses every cache, so the orbit is enumerated here
    cm = validate_gcm(cartan("A3aff").rows, ["p", "q", "r", "s"])
    calls = []
    check = series_module._check_exponent
    monkeypatch.setattr(series_module, "_check_exponent",
                        lambda *args: calls.append(args) or check(*args))
    num = normalized_numerator(cm, PVIndex(cm.nodes(), (0, 0, 0, 0)), 7)
    assert len(num) == 51 and calls == []
