import functools
import random
from fractions import Fraction
from unittest import mock

import pytest

from catalog import MATRICES, all_connected_subsets, cartan
from kmfactor import (
    FoldContext,
    Partition,
    PVIndex,
    character,
    connected_components,
    is_connected,
    leading_coefficient_closed_form,
    log_numerator,
    marker_exponent,
    normalized_numerator,
    recover_from_character_product,
    root_multiplicities,
    validate_gcm,
)
from kmfactor import folding, numerators
from kmfactor.errors import DomainError, NonIntegralCharacter, NonIntegralMultiplicity
from kmfactor.series import Series, support
from oracles import convolution_multiplicities, geometric_log


def test_cap_must_be_an_int():
    # a matrix of its own, so every cache entry below is made here
    cm = validate_gcm([[2, -1], [-1, 2]], ["cap-a", "cap-b"])
    pv = PVIndex((1, 2), (0, 1))
    for bad in (True, 2.5):
        with pytest.raises(DomainError, match="is not an int"):
            log_numerator(cm, pv, bad)
    for bad in (2.5, None):  # None failed the comparison with 1, a TypeError
        with pytest.raises(DomainError, match="^cap .* is not an int$"):
            root_multiplicities(cm, bad)
    with pytest.raises(DomainError, match="^cap must be nonnegative$"):
        log_numerator(cm, pv, -1)
    # a bool equal to a cached cap misses that entry, so it is refused as
    # well, and the refusal adds no entry
    ctx = FoldContext(cm, Partition.of(2, [[1, 2]]))
    for cache, term in ((log_numerator, functools.partial(log_numerator, cm, pv)),
                        (normalized_numerator, functools.partial(normalized_numerator, cm, pv)),
                        (folding._folded_log_numerator, functools.partial(
                            ctx.fold_log_numerator, PVIndex((1, 2), (1, 1))))):
        assert type(term(1).cap) is int
        size = cache.cache_info().currsize
        with pytest.raises(DomainError, match="^cap True is not an int$"):
            term(True)
        assert cache.cache_info().currsize == size


def test_marker_exponent(a2, a1):
    assert marker_exponent(a2, PVIndex.from_map((1, 2), {1: 2, 2: 3})) == (3, 4)
    assert marker_exponent(a2, PVIndex((), ())) == (0, 0)
    assert marker_exponent(a1, PVIndex((1,), (4,))) == (5,)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_log_numerator_a1(a1, m):
    cap = 8
    got = log_numerator(a1, PVIndex((1,), (m,)), cap)
    expected = {(k * (m + 1),): Fraction(1, k) for k in range(1, cap // (m + 1) + 1)}
    assert got == Series(1, cap, expected)


def test_log_numerator_a2_height_two(a2):
    L = log_numerator(a2, PVIndex((1, 2), (0, 0)), 6)
    assert L.coefficient((1, 1)) == 1
    assert L.constant_term == 0


def test_log_numerator_empty(a2):
    assert log_numerator(a2, PVIndex((), ()), 5) == Series.zero(2, 5)


def test_character_a1_simple_module(a1):
    value = character(a1, PVIndex((1,), (2,)), "tag", 6)
    assert value.offset == "tag"
    assert value.body == Series(1, 6, {(0,): 1, (1,): 1, (2,): 1})


def test_character_empty_is_full_inverse(a2):
    full = normalized_numerator(a2, PVIndex((1, 2), (0, 0)), 6)
    value = character(a2, PVIndex((), ()), None, 6)
    assert value.body == full.invert()


def test_character_a2_trivial_module(a2):
    value = character(a2, PVIndex((1, 2), (0, 0)), None, 6)
    assert value.body == Series.one(2, 6)
    assert value.body.coefficient((1, 1)) == 0


def test_character_coefficients_are_counts(b2):
    value = character(b2, PVIndex((1,), (1,)), None, 7)
    for _, c in value.body.items():
        assert c.denominator == 1 and c >= 0


def test_leading_coefficient_examples(a2):
    assert leading_coefficient_closed_form(a2, (1,)) == 1
    assert leading_coefficient_closed_form(a2, (1, 2)) == 1
    disconnected = cartan("mixed3")
    # nodes 2 and 3 are not adjacent there
    assert leading_coefficient_closed_form(disconnected, (2, 3)) == 0
    with pytest.raises(DomainError):
        leading_coefficient_closed_form(a2, ())


def test_leading_coefficient_nontrivial_value():
    a3 = cartan("A3")
    # the closed form can exceed 1: it equals the series coefficient below
    value = leading_coefficient_closed_form(a3, (1, 2, 3))
    L = log_numerator(a3, PVIndex((1, 2, 3), (0, 0, 0)), 3)
    assert value == L.coefficient((1, 1, 1))


def test_root_multiplicities_a2(a2):
    assert root_multiplicities(a2, 4) == {(1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_root_multiplicities_b2(b2):
    assert root_multiplicities(b2, 5) == {
        (1, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1}


def test_root_multiplicities_affine_a1(a1aff):
    got = root_multiplicities(a1aff, 6)
    expected = {}
    for k in range(7):
        for e in ((k, k), (k + 1, k), (k, k + 1)):
            if 0 < sum(e) <= 6:
                expected[e] = 1
    assert got == expected
    assert got == convolution_multiplicities(a1aff, 6)


def test_root_multiplicities_match_convolution_oracle():
    # every catalog matrix; cap 11 keeps the oracle to about 2 s in total
    for name in MATRICES:
        cm = cartan(name)
        assert root_multiplicities(cm, 11) == convolution_multiplicities(cm, 11), name


def test_full_set_index_is_built_trusted(a2):
    # the full-set index is valid by construction, so no call checks it
    pv = PVIndex((1,), (1,))
    body = character(a2, pv, None, 5).body
    init = PVIndex.__init__
    calls = []

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    with mock.patch.object(PVIndex, "__init__", counted):
        character(a2, pv, None, 5)
        root_multiplicities(a2, 5)
        assert recover_from_character_product(a2, body, 1).factors == (pv,)
        assert calls == []
        PVIndex((1, 2), (0, 0))
    assert calls == [((1, 2), (0, 0))]  # the counter is in place


def test_log_full_set_equals_geometric_sum_over_roots(b2):
    # independent route: -log prod (1-x^root) expanded directly
    mult = {(1, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1}
    L = log_numerator(b2, PVIndex((1, 2), (0, 0)), 8)
    assert L == geometric_log(2, 8, mult)


def test_zero_exponent_absent(a2):
    assert (0, 0) not in root_multiplicities(a2, 3)
    with pytest.raises(DomainError):
        root_multiplicities(a2, 0)


# -- structural properties of log-numerator coefficients -------------------------

SAMPLE = ("A2", "A3", "B2", "G2", "A1aff", "mixed3")


def test_marker_coefficient_weight_independent_positive():
    rng = random.Random(23)
    for name in SAMPLE:
        cm = cartan(name)
        for nodes in all_connected_subsets(cm):
            seen = set()
            for _ in range(3):
                pv = PVIndex(nodes, tuple(rng.randint(0, 3) for _ in nodes))
                beta = marker_exponent(cm, pv)
                cap = sum(beta)
                coeff = log_numerator(cm, pv, cap).coefficient(beta)
                seen.add(coeff)
            assert len(seen) == 1, (name, nodes)
            value = seen.pop()
            assert value > 0
            assert value == leading_coefficient_closed_form(cm, nodes)


def test_supports_connected_inside_index():
    rng = random.Random(29)
    for name in ("A3", "B2", "A1aff"):
        cm = cartan(name)
        for _ in range(6):
            size = rng.randint(1, cm.n)
            nodes = tuple(sorted(rng.sample(cm.nodes(), size)))
            pv = PVIndex(nodes, tuple(rng.randint(0, 2) for _ in nodes))
            L = log_numerator(cm, pv, 7)
            for exp, _ in L.items():
                sup = support(exp)
                assert set(sup) <= set(nodes)
                assert is_connected(cm, sup)


def test_restriction_consistency():
    a3 = cartan("A3")
    rng = random.Random(31)
    for _ in range(6):
        lam_full = {i: rng.randint(0, 2) for i in a3.nodes()}
        pv_full = PVIndex.from_map(a3.nodes(), lam_full)
        L_full = log_numerator(a3, pv_full, 7)
        for exp, c in L_full.items():
            sup = support(exp)
            pv_sub = PVIndex.from_map(sup, {i: lam_full[i] for i in sup})
            assert c == log_numerator(a3, pv_sub, 7).coefficient(exp)


def test_component_additivity():
    d4 = cartan("D4")
    rng = random.Random(37)
    for _ in range(8):
        size = rng.randint(1, 4)
        nodes = tuple(sorted(rng.sample(d4.nodes(), size)))
        lam = {i: rng.randint(0, 2) for i in nodes}
        pv = PVIndex.from_map(nodes, lam)
        total = log_numerator(d4, pv, 6)
        parts = Series.zero(4, 6)
        for comp in connected_components(d4, nodes):
            parts = parts + log_numerator(
                d4, PVIndex.from_map(comp, {i: lam[i] for i in comp}), 6)
        assert total == parts


def test_gap_below_marker():
    # full-support coefficients only occur at or above the marker exponent
    rng = random.Random(41)
    for name in ("A2", "B2", "A1aff"):
        cm = cartan(name)
        nodes = cm.nodes()
        pv = PVIndex(nodes, tuple(rng.randint(0, 2) for _ in nodes))
        beta = marker_exponent(cm, pv)
        L = log_numerator(cm, pv, sum(beta) + 3)
        for exp, _ in L.items():
            if support(exp) == nodes:
                assert all(x >= y for x, y in zip(exp, beta))


def test_integrality_checks_on_forged_inputs(a1, monkeypatch):
    # the checks read the stored numerators; feed them series no algebra gives
    pv = PVIndex((1,), (1,))
    for bad in (Fraction(1, 2), -1):
        monkeypatch.setattr(numerators, "normalized_numerator", lambda cm, index, cap: (
            Series(1, 3, {(0,): 1, (2,): bad}) if index == pv else Series.one(1, 3)))
        with pytest.raises(NonIntegralCharacter, match=f"coefficient {bad} at exponent \\(2,\\)"):
            character(a1, pv, None, 3)
    monkeypatch.undo()
    forged = {Fraction(1, 2): {(1,): Fraction(1, 2)}, -1: {(1,): 1, (2,): Fraction(-1, 2)}}
    for value, terms in forged.items():
        monkeypatch.setattr(numerators, "log_numerator", lambda cm, index, cap: Series(1, 4, terms))
        with pytest.raises(NonIntegralMultiplicity, match=f"value {value} at exponent"):
            root_multiplicities(a1, 4)
    # x + x^2/2 is -log(1 - x): the base (1,) accounts for all of (2,)
    monkeypatch.setattr(numerators, "log_numerator", lambda cm, index, cap: Series(
        1, 4, {(1,): 1, (2,): Fraction(1, 2), (4,): Fraction(1, 4)}))
    assert root_multiplicities(a1, 4) == {(1,): 1}
