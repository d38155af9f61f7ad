from collections import Counter
from contextlib import ExitStack
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from catalog import MATRICES, all_connected_subsets, cartan
from kmfactor import (
    FactorizationResult,
    FoldContext,
    factorizer,
    PVIndex,
    character,
    check_automorphism,
    is_connected,
    log_numerator,
    orbit_partition,
    peel_folded,
    peel_log_sum,
    recover_from_character_product,
    validate_gcm,
    verify_equivalence,
)
from kmfactor.cartan import CartanMatrix, _Frozen
from kmfactor.errors import (
    DisconnectedCandidateSupport,
    DivisibilityFailure,
    DomainError,
    LengthMismatch,
    NegativeLeadingCoefficient,
    NonzeroResidual,
    NotEquiconnectedCandidate,
    TermLimit,
    TooManyFactors,
)
from kmfactor.factorizer import _peel, _Residual, _Step
from kmfactor.series import Series, _Packing
from oracles import (
    brute_automorphisms,
    naive_folded_decoder,
    naive_peel,
    naive_plain_decoder,
    naive_select_candidate,
)
from test_folding import FIGURE1_CLASSES, FIGURE2_CLASSES, figure1, figure2
from test_series import WIDE_SHAPES, wide_key_series, wide_variables
from kmfactor.folding import Partition


def log_sum(cm, factors, cap):
    total = Series.zero(cm.n, cap)
    for pv in factors:
        total = total + log_numerator(cm, pv, cap)
    return total


def test_two_factor_example(a2):
    factors = [PVIndex((1,), (1,)), PVIndex((1, 2), (0, 0))]
    result = peel_log_sum(a2, log_sum(a2, factors, 6))
    assert result.residual_zero
    assert result.certified_degree == 6
    # the full-support factor peels first, then the rank-one one
    assert result.factors == (PVIndex((1, 2), (0, 0)), PVIndex((1,), (1,)))


def test_zero_input(a2):
    result = peel_log_sum(a2, Series.zero(2, 5))
    assert result.factors == () and result.residual_zero


def test_single_a1_factor(a1):
    result = peel_log_sum(a1, log_sum(a1, [PVIndex((1,), (0,))], 5))
    assert result.factors == (PVIndex((1,), (0,)),)


def test_repeated_factors(a2):
    factors = [PVIndex((1, 2), (1, 0))] * 3
    result = peel_log_sum(a2, log_sum(a2, factors, 10))
    assert Counter(result.factors) == Counter(factors)


def test_incomparable_maximal_factors(a2):
    factors = [PVIndex((1, 2), (1, 0)), PVIndex((1, 2), (0, 1))]
    result = peel_log_sum(a2, log_sum(a2, factors, 9))
    assert Counter(result.factors) == Counter(factors)


def test_peel_rejects_nonzero_constant(a1, a3):
    # the check reads the stored numerator: no coefficient is built
    ctx = FoldContext(a3, orbit_partition(a3, [[3, 2, 1]]))
    with mock.patch.object(Series, "constant_term", property(lambda s: 1 / 0)):
        with pytest.raises(DomainError, match="^a sum of log-numerators has zero constant term$"):
            peel_log_sum(a1, Series.one(1, 4))
        with pytest.raises(DomainError, match="^a folded sum of log-numerators has zero "):
            peel_folded(ctx, Series.one(2, 4))
        pv = PVIndex((1,), (0,))
        assert peel_log_sum(a1, log_sum(a1, [pv], 4)).factors == (pv,)


def test_negative_leading_coefficient(a1):
    total = -log_sum(a1, [PVIndex((1,), (0,))], 4)
    with pytest.raises(NegativeLeadingCoefficient):
        peel_log_sum(a1, total)


def test_disconnected_candidate_support(a3):
    with pytest.raises(DisconnectedCandidateSupport):
        peel_log_sum(a3, Series.monomial(3, 4, (1, 0, 1)))


def test_budget_exhaustion_raises(a1):
    # three copies of (1;0) peel at once and leave -3/2 x1^2 behind
    total = Series.monomial(1, 2, (1,), 3)
    with pytest.raises(NegativeLeadingCoefficient):
        peel_log_sum(a1, total)


def test_more_factors_than_the_cap(a1):
    # every marker fits under the cap, however many factors there are
    isolated = validate_gcm([[2, 0], [0, 2]])
    factors = [PVIndex((1,), (0,)), PVIndex((1,), (1,)), PVIndex((2,), (0,)), PVIndex((2,), (1,))]
    result = peel_log_sum(isolated, log_sum(isolated, factors, 2))
    assert Counter(result.factors) == Counter(factors)
    pv = PVIndex((1,), (0,))
    body = character(a1, pv, None, 2).body
    result = recover_from_character_product(a1, body * body * body, 3)
    assert result.factors == (pv,) * 3 and result.empty_count == 0


def test_peel_refuses_partial_multiplicity(a1):
    with pytest.raises(NonzeroResidual):
        peel_log_sum(a1, Series.monomial(1, 2, (1,), Fraction(1, 2)))


# forged terms, each of which puts the other candidate back
RETURNING_TERMS = {(1,): Series(1, 2, {(1,): 1, (2,): -1}),
                   (2,): Series(1, 2, {(2,): 1, (1,): -1})}


def forged_step(total, terms):
    """A peel step that decodes a key of the sum and looks its term up; the
    decoded exponent stands in for the factor."""
    def step(key):
        beta = total._pack.exponent(key)
        return _Step(beta, terms[beta])
    return step


def test_peel_refuses_a_candidate_that_comes_back():
    # a forged term that puts the first candidate back keeps the loop finite
    total = Series.monomial(1, 2, (1,))
    with pytest.raises(NonzeroResidual, match="came back"):
        _peel(total, forged_step(total, RETURNING_TERMS))


def test_peel_factor_budget(a1):
    # a million copies of (1;0) at cap 1 are a valid sum, refused by size
    with pytest.raises(TermLimit):
        peel_log_sum(a1, Series.monomial(1, 1, (1,), 10**6))


def test_determinism(b2):
    factors = [PVIndex((1, 2), (0, 1)), PVIndex((2,), (2,)), PVIndex((1, 2), (0, 1))]
    total = log_sum(b2, factors, 9)
    first = peel_log_sum(b2, total)
    second = peel_log_sum(b2, total)
    assert first == second


# -- character-product recovery -------------------------------------------------

def test_product_roundtrip_single(a1):
    pv = PVIndex((1,), (2,))
    body = character(a1, pv, None, 8).body
    result = recover_from_character_product(a1, body, 1)
    assert result.factors == (pv,) and result.empty_count == 0


def test_product_two_vermas(a2):
    body = character(a2, PVIndex((), ()), None, 6).body
    product = body * body
    result = recover_from_character_product(a2, product, 2)
    assert result.factors == () and result.empty_count == 2


def test_product_mixed(a2):
    full = PVIndex((1, 2), (0, 0))
    product = character(a2, full, None, 7).body * character(a2, PVIndex((), ()), None, 7).body
    result = recover_from_character_product(a2, product, 2)
    assert result.factors == (full,) and result.empty_count == 1


def test_product_disconnected_comes_back_as_components(a3):
    # a 2-product of a disconnected-index character and a Verma: the first
    # splits into its connected components, which absorb the empty slot
    pv = PVIndex((1, 3), (0, 1))
    product = character(a3, pv, None, 6).body * character(a3, PVIndex((), ()), None, 6).body
    result = recover_from_character_product(a3, product, 2)
    assert Counter(result.factors) == Counter([PVIndex((1,), (0,)), PVIndex((3,), (1,))])
    assert result.empty_count == 0
    # without the empty slot the component count exceeds the declared count
    with pytest.raises(TooManyFactors):
        recover_from_character_product(a3, character(a3, pv, None, 6).body, 1)


@pytest.mark.parametrize("count", [None, True, Fraction(2), Fraction(5, 2)])
def test_product_count_must_be_an_int(a2, count):
    # each was a TypeError, a refusal after the whole log, a Fraction empty
    # count or a NonzeroResidual; now the count is checked before any work
    body = character(a2, PVIndex((1, 2), (0, 0)), None, 6).body
    with mock.patch.object(Series, "log1", side_effect=AssertionError("log taken")):
        with pytest.raises(DomainError, match="^factor count .* is not an int$") as caught:
            recover_from_character_product(a2, body, count)
    assert type(caught.value) is DomainError


# -- folded peeling ----------------------------------------------------------------

def test_folded_figure1_roundtrip():
    cm = figure1()
    ctx = FoldContext(cm, Partition.of(5, FIGURE1_CLASSES))
    pv = PVIndex(tuple(range(1, 6)), (0,) * 5)
    total = ctx.fold_log_numerator(pv, 8)
    result = peel_folded(ctx, total)
    assert result.factors == (pv,) and result.residual_zero


def test_folded_a3_flip_roundtrip(a3):
    ctx = FoldContext(a3, orbit_partition(a3, [[3, 2, 1]]))
    pv = ctx.symmetric_index((1, 2, 3), {0: 1, 1: 1})
    total = ctx.fold_log_numerator(pv, 10)
    result = peel_folded(ctx, total)
    assert result.factors == (pv,)


def test_folded_zero(a3):
    ctx = FoldContext(a3, orbit_partition(a3, [[3, 2, 1]]))
    assert peel_folded(ctx, Series.zero(2, 5)).factors == ()


def test_folded_multiset(a1aff):
    ctx = FoldContext(a1aff, orbit_partition(a1aff, [[2, 1]]))
    factors = [ctx.symmetric_index((1, 2), {0: 1}),
               ctx.symmetric_index((1, 2), {0: 0})]
    total = Series.zero(1, 12)
    for pv in factors:
        total = total + ctx.fold_log_numerator(pv, 12)
    result = peel_folded(ctx, total)
    assert Counter(result.factors) == Counter(factors)


def test_folded_disconnected_class_union_rejected(a3):
    ctx3 = FoldContext(a3, orbit_partition(a3, [[3, 2, 1]]))
    # candidate supported on the folded class {1,3} alone: K={1,3} is disconnected
    with pytest.raises(NotEquiconnectedCandidate):
        peel_folded(ctx3, Series.monomial(2, 4, (1, 0)))
    f1 = figure1()
    ctxf = FoldContext(f1, Partition.of(5, FIGURE1_CLASSES))
    with pytest.raises(NotEquiconnectedCandidate):
        peel_folded(ctxf, Series.monomial(4, 4, (0, 0, 0, 1)))


def test_folded_connected_class_union_not_equiconnected():
    # every class of figure 2 is met: the union is the whole path, which is
    # connected, but its two minimal lifts cut the classes differently
    ctx = FoldContext(figure2(), Partition.of(9, FIGURE2_CLASSES))
    with pytest.raises(NotEquiconnectedCandidate, match="is not equiconnected"):
        peel_folded(ctx, Series.monomial(4, 9, (1, 1, 2, 1)))


def test_peels_refuse_a_series_of_the_wrong_size(a2):
    with pytest.raises(DomainError, match="series has 3 variables, matrix has 2 nodes"):
        peel_log_sum(a2, Series.zero(3, 4))
    with pytest.raises(DomainError, match="series has 1 variables, matrix has 2 nodes"):
        recover_from_character_product(a2, Series.one(1, 4), 1)
    ctx = FoldContext(a2, orbit_partition(a2, [[2, 1]]))
    with pytest.raises(DomainError, match="series has 2 variables, partition has 1 classes"):
        peel_folded(ctx, Series.zero(2, 4))


def test_folded_divisibility_failure():
    # path 1-2-3-4-5 where classes {1},{3},{5} pin the whole path as the only
    # lift, so class {2,4} has lean count 2 and odd coordinates cannot occur
    rows = [[2 if i == j else 0 for j in range(5)] for i in range(5)]
    for k in range(1, 5):
        rows[k - 1][k] = rows[k][k - 1] = -1
    cm = validate_gcm(rows)
    ctx = FoldContext(cm, Partition.of(5, [[1], [2, 4], [3], [5]]))
    lifts, lean, equi = ctx.lean_lifts((1, 2, 3, 4, 5))
    assert equi and lifts == ((1, 2, 3, 4, 5),)
    with pytest.raises(DivisibilityFailure):
        peel_folded(ctx, Series.monomial(4, 6, (1, 1, 1, 1)))
    # even coordinate but quotient derived from a forged series still peels
    pv = ctx.symmetric_index((1, 2, 3, 4, 5), {0: 0, 1: 0, 2: 0, 3: 0})
    assert ctx.marker_exponent(pv) == (1, 2, 1, 1)
    result = peel_folded(ctx, ctx.fold_log_numerator(pv, 8))
    assert result.factors == (pv,)


def test_folded_negative_coefficient(a3):
    ctx = FoldContext(a3, orbit_partition(a3, [[3, 2, 1]]))
    pv = ctx.symmetric_index((1, 2, 3), {0: 0, 1: 0})
    with pytest.raises(NegativeLeadingCoefficient):
        peel_folded(ctx, -ctx.fold_log_numerator(pv, 8))


# -- multiset verification -----------------------------------------------------------

def test_verify_identity():
    items = [PVIndex((1,), (0,)), PVIndex((1, 2), (1, 1))]
    assert verify_equivalence(items, items) == [0, 1]


def test_verify_shuffle():
    left = [PVIndex((1,), (0,)), PVIndex((2,), (3,)), PVIndex((1,), (0,))]
    right = [left[1], left[0], left[2]]
    sigma = verify_equivalence(left, right)
    assert sigma is not None
    for k, pos in enumerate(sigma):
        assert left[k] == right[pos]
    assert sorted(sigma) == [0, 1, 2]


def test_verify_mismatch():
    left = [PVIndex((1,), (0,))]
    right = [PVIndex((1,), (1,))]
    assert verify_equivalence(left, right) is None


def test_verify_length_mismatch():
    with pytest.raises(LengthMismatch):
        verify_equivalence([PVIndex((1,), (0,))], [])


def test_verify_offsets():
    items = [PVIndex((1,), (0,)), PVIndex((1,), (1,))]
    shuffled = [items[1], items[0]]
    assert verify_equivalence(items, shuffled, [(1, 0), (0, 1)], [(0, 0), (1, 1)]) == [1, 0]
    assert verify_equivalence(items, shuffled, [(1, 0), (0, 1)], [(0, 0), (0, 1)]) is None
    with pytest.raises(LengthMismatch):
        verify_equivalence(items, shuffled, [(1, 0)], [(0, 0), (1, 1)])
    with pytest.raises(LengthMismatch):
        verify_equivalence(items, shuffled, offsets_left=[(1, 0), (0, 1)])


def test_verify_rational_offsets():
    items = [PVIndex((1,), (2,))]
    assert verify_equivalence(items, items, [(Fraction(1, 2), 1)], [(Fraction(2, 4), Fraction(1))]) == [0]
    assert verify_equivalence(items, items, [(Fraction(1, 2),)], [(Fraction(1, 3),)]) is None


def test_verify_inexact_offsets_refused():
    # offsets follow the rule of series coefficients: int or Fraction only
    items = [PVIndex((1,), (2,))]
    for bad in (0.1, 1.0, "1/2", None, True):
        with pytest.raises(DomainError):
            verify_equivalence(items, items, [(bad,)], [(bad,)])
        with pytest.raises(DomainError):
            verify_equivalence(items, items, [(0,)], [(bad,)])


# -- candidate selection against its definition ----------------------------------

def candidate(residual):
    """The selected candidate as an exponent tuple."""
    return residual._pack.exponent(_Residual(residual).candidate())


@st.composite
def plain_sums(draw):
    """A catalog matrix and a sum of 1 to 5 of its log-numerators."""
    cm = cartan(draw(st.sampled_from(("A2", "A3", "B2", "G2", "A1aff", "A2aff",
                                      "C2aff", "mixed3"))))
    subsets = all_connected_subsets(cm)
    factors = []
    for _ in range(draw(st.integers(1, 5))):
        nodes = draw(st.sampled_from(subsets))
        pairings = draw(st.lists(st.integers(0, 2), min_size=len(nodes), max_size=len(nodes)))
        factors.append(PVIndex(nodes, tuple(pairings)))
    cap = max(sum(p + 1 for p in pv.pairings) for pv in factors) + draw(st.integers(0, 2))
    return cm, log_sum(cm, factors, cap)


@st.composite
def log_sums(draw):
    """A sum of 1 to 5 log-numerators, or its negation, on a catalog matrix."""
    _, total = draw(plain_sums())
    return -total if draw(st.booleans()) else total


@settings(max_examples=60, deadline=None)
@given(log_sums())
def test_candidate_matches_naive_on_log_sums(total):
    assert candidate(total) == naive_select_candidate(total)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in range(4))),
                       st.integers(-3, 3).filter(bool), min_size=1, max_size=12))
def test_candidate_matches_naive_on_any_series(terms):
    s = Series(4, 12, terms)
    assert candidate(s) == naive_select_candidate(s)


@pytest.mark.parametrize("nvars,cap", WIDE_SHAPES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_candidate_matches_naive_on_wide_keys(nvars, cap, data):
    used = data.draw(wide_variables(nvars))
    s = data.draw(wide_key_series(nvars, cap, used).filter(lambda s: not s.is_zero))
    assert candidate(s) == naive_select_candidate(s)


# -- the peel loop against the series-based oracle loop -------------------------------

@st.composite
def folded_sums(draw):
    """A fold context from one automorphism of a catalog matrix and a folded
    sum of 1 to 4 of its symmetric log-numerators."""
    cm = cartan(draw(st.sampled_from(("A2", "A3", "A1aff", "A2aff", "C2aff", "A3aff", "D4"))))
    images = draw(st.sampled_from(brute_automorphisms(cm)))
    ctx = FoldContext(cm, orbit_partition(cm, [check_automorphism(cm, images)]))
    classes = ctx.partition.classes
    unions = []
    for mask in range(1, 1 << len(classes)):
        nodes = tuple(sorted(i for c, part in enumerate(classes) if mask >> c & 1 for i in part))
        if is_connected(cm, nodes) and ctx.lift_data(nodes).lean_counts is not None:
            unions.append(nodes)
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        nodes = draw(st.sampled_from(unions))
        data = ctx.lift_data(nodes)
        factors.append(ctx.symmetric_index(nodes, {c: draw(st.integers(0, 2))
                                                   for c in data.class_indices}))
    cap = max(sum(ctx.marker_exponent(pv)) for pv in factors) + draw(st.integers(0, 2))
    total = Series.zero(len(classes), cap)
    for pv in factors:
        total = total + ctx.fold_log_numerator(pv, cap)
    return ctx, total


def spoiled(draw, total):
    """The sum as drawn, negated, at a partial multiplicity, or with one
    unit term added at an arbitrary exponent."""
    how = draw(st.sampled_from(("valid", "negated", "partial", "perturbed")))
    if how == "negated":
        return -total
    if how == "partial":
        return total.scale(draw(st.sampled_from((Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)))))
    if how == "perturbed":
        exp = draw(st.tuples(*(st.integers(0, 2) for _ in range(total.nvars))).filter(any))
        return total + Series.monomial(total.nvars, total.cap, exp, draw(st.sampled_from((-1, 1))))
    return total


def outcome(peel, *args):
    """Factors in peel order, or the refusal's type and message."""
    try:
        result = peel(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else result.factors


@settings(max_examples=80, deadline=None)
@given(plain_sums(), st.data())
def test_peel_matches_naive_loop(case, data):
    cm, total = case
    total = spoiled(data.draw, total)
    expect = outcome(naive_peel, total, naive_plain_decoder(cm), partial(log_numerator, cm))
    assert outcome(peel_log_sum, cm, total) == expect


@settings(max_examples=60, deadline=None)
@given(folded_sums(), st.data())
def test_folded_peel_matches_naive_loop(case, data):
    ctx, total = case
    total = spoiled(data.draw, total)
    expect = outcome(naive_peel, total, naive_folded_decoder(ctx), ctx.fold_log_numerator)
    assert outcome(peel_folded, ctx, total) == expect


def test_returning_candidate_matches_naive_loop():
    total = Series.monomial(1, 2, (1,))
    expect = outcome(naive_peel, total, lambda beta: beta, lambda beta, cap: RETURNING_TERMS[beta])
    assert expect[0] is NonzeroResidual and "came back" in expect[1]
    assert outcome(_peel, total, forged_step(total, RETURNING_TERMS)) == expect


def test_peel_builds_no_series(a3):
    # the residual is one accumulator changed in place, whatever the sum
    factors = [PVIndex((1, 2, 3), (0, 1, 0)), PVIndex((1, 2), (1, 0)),
               PVIndex((2, 3), (0, 0)), PVIndex((2, 3), (0, 0))]
    total = log_sum(a3, factors, 8)
    calls = Counter()

    def counted(name):
        original = getattr(Series, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return mock.patch.object(Series, name, wrapper)

    with counted("__sub__"), counted("_combine"), counted("_new"):
        result = peel_log_sum(a3, total)
    assert Counter(result.factors) == Counter(factors)
    assert calls == Counter()


def test_warm_folded_peel_checks_no_nodes():
    # the folded decoder builds its node tuples itself, sorted and distinct
    cm = cartan("A3aff")
    ctx = FoldContext(cm, orbit_partition(cm, [[3, 2, 1, 4]]))
    factors = [PVIndex((1, 2, 3), (0, 0, 0)), PVIndex((2,), (1,))]
    total = ctx.fold_log_numerator(factors[0], 8) + ctx.fold_log_numerator(factors[1], 8)
    assert Counter(peel_folded(ctx, total).factors) == Counter(factors)
    check = CartanMatrix.check_nodes
    calls = []

    def counted(self, nodes):
        calls.append(nodes)
        return check(self, nodes)

    with mock.patch.object(CartanMatrix, "check_nodes", counted):
        assert Counter(peel_folded(ctx, total).factors) == Counter(factors)
    assert calls == []
    with pytest.raises(DomainError):
        ctx.lift_data((True, 2, 3, 4))


def assert_valid_indices(factors):
    """Each factor equals, and hashes like, the checked index of its fields."""
    for f in factors:
        assert type(f.nodes) is tuple and type(f.pairings) is tuple
        rebuilt = PVIndex(f.nodes, f.pairings)
        assert rebuilt == f and hash(rebuilt) == hash(f)


def warm_peels(a3):
    """Peel a plain sum on A3 and a folded one on A3aff once, and return a
    function that peels both again, with the factors of each sum."""
    plain = [PVIndex((1, 2, 3), (0, 1, 0)), PVIndex((2, 3), (0, 0)), PVIndex((1,), (2,))]
    total = log_sum(a3, plain, 8)
    cm = cartan("A3aff")
    ctx = FoldContext(cm, orbit_partition(cm, [[3, 2, 1, 4]]))
    folded = [PVIndex((1, 2, 3), (0, 0, 0)), PVIndex((2,), (1,))]
    folded_total = ctx.fold_log_numerator(folded[0], 8) + ctx.fold_log_numerator(folded[1], 8)

    def peel_both():
        return peel_log_sum(a3, total).factors, peel_folded(ctx, folded_total).factors
    peel_both()
    return peel_both, plain, folded


def clear_step_caches():
    factorizer._plain_step.cache_clear()
    factorizer._folded_step.cache_clear()


def test_warm_peels_build_indices_unchecked(a3):
    # both decoders build valid fields themselves, so no factor is checked
    peel_both, plain, folded = warm_peels(a3)
    init = PVIndex.__init__
    calls = []

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    with mock.patch.object(PVIndex, "__init__", counted):
        got_plain, got_folded = peel_both()
    assert calls == []
    assert Counter(got_plain) == Counter(plain) and Counter(got_folded) == Counter(folded)
    assert_valid_indices(got_plain + got_folded)


def test_warm_peels_build_no_value_checked(a3):
    # factors come from the step caches and each result is built unchecked
    peel_both, plain, folded = warm_peels(a3)
    init = _Frozen.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(type(self).__name__)
        init(self, *args, **kwargs)

    with mock.patch.object(_Frozen, "__init__", counted):
        got_plain, got_folded = peel_both()
        assert calls == []
        FactorizationResult((), 0, True, 8)
        PVIndex((1,), (0,))
    assert calls == ["FactorizationResult", "PVIndex"]  # the counter is in place
    assert Counter(got_plain) == Counter(plain) and Counter(got_folded) == Counter(folded)


def test_warm_peel_steps_are_one_lookup(a3):
    # a second peel of the same sum finds every factor and term in the step caches
    peel_both, plain, folded = warm_peels(a3)
    patches = [mock.patch.object(factorizer, name, wraps=getattr(factorizer, name))
               for name in ("log_numerator", "_folded_log_numerator", "_lift_data")]
    patches.append(mock.patch.object(CartanMatrix, "_connected", autospec=True,
                                     side_effect=CartanMatrix._connected))
    with ExitStack() as stack:
        spies = [stack.enter_context(p) for p in patches]
        got_plain, got_folded = peel_both()
        assert [spy.call_count for spy in spies] == [0, 0, 0, 0]
        clear_step_caches()
        assert peel_both() == (got_plain, got_folded)
        assert all(spy.call_count for spy in spies)  # the spies see a cold step
    assert Counter(got_plain) == Counter(plain) and Counter(got_folded) == Counter(folded)


# -- scans for the peel candidate ---------------------------------------------------

def counted_scans():
    """A spy on the one scan that finds a peel candidate."""
    return mock.patch.object(_Packing, "top", autospec=True, side_effect=_Packing.top)


def test_sums_of_cached_log_numerators_start_their_peel_without_a_scan():
    # fresh labels, so every step cache entry starts cold whatever ran before
    cm = validate_gcm(MATRICES["A3"], ["warm.1", "warm.2", "warm.3"])
    plain = [PVIndex((1, 2, 3), (0, 1, 0)), PVIndex((2, 3), (0, 0)), PVIndex((2, 3), (0, 0)),
             PVIndex((1,), (2,))]
    affine = validate_gcm(MATRICES["A3aff"], ["warm.a", "warm.b", "warm.c", "warm.d"])
    ctx = FoldContext(affine, orbit_partition(affine, [[3, 2, 1, 4]]))
    folded = [PVIndex((1, 2, 3), (0, 0, 0)), PVIndex((2,), (1,))]
    cases = [(partial(peel_log_sum, cm), partial(log_numerator, cm), plain),
             (partial(peel_folded, ctx), ctx.fold_log_numerator, folded)]
    for peel, term, factors in cases:
        def total():  # a new sum of the cached log-numerators
            return sum((term(pv, 8) for pv in factors[1:]), term(factors[0], 8))
        peel(total())  # every step misses
        peel(total())  # every step hits and fills its log-numerator's top
        with counted_scans() as scan:
            result = peel(total())
            assert scan.call_count == len(set(factors)) - 1  # once per step after step 0
            scan.reset_mock()
            with pytest.raises(NegativeLeadingCoefficient):
                peel(-total())
            assert scan.call_count == 0
        assert Counter(result.factors) == Counter(factors)


def test_a_cold_recovery_scans_once_per_step():
    # the log of a product has no known top, and a step that misses fills none
    cm = validate_gcm(MATRICES["A2"], ["cold.1", "cold.2"])
    factors = [PVIndex((1,), (1,)), PVIndex((1, 2), (0, 0)), PVIndex((2,), (0,)),
               PVIndex((1,), (1,))]
    bodies = [character(cm, pv, None, 6).body for pv in factors]
    product = bodies[0] * bodies[1] * bodies[2] * bodies[3]
    with counted_scans() as scan:
        result = recover_from_character_product(cm, product, len(factors))
    assert Counter(result.factors) == Counter(factors)
    assert scan.call_count == len(set(factors))


@settings(max_examples=40, deadline=None)
@given(plain_sums(), folded_sums(), st.data())
def test_cold_and_warm_steps_match_naive_loop(plain, folded, data):
    # refusals are not cached, so a warm peel refuses as a cold one does
    (cm, total), (ctx, folded_total) = plain, folded
    cases = [(peel_log_sum, cm, spoiled(data.draw, total),
              naive_plain_decoder(cm), partial(log_numerator, cm)),
             (peel_folded, ctx, spoiled(data.draw, folded_total),
              naive_folded_decoder(ctx), ctx.fold_log_numerator)]
    for peel, first, total, decode, term in cases:
        expect = outcome(naive_peel, total, decode, term)
        clear_step_caches()
        assert outcome(peel, first, total) == expect
        assert outcome(peel, first, total) == expect


@settings(max_examples=40, deadline=None)
@given(plain_sums(), folded_sums())
def test_decoded_factors_are_valid_indices(plain, folded):
    assert_valid_indices(peel_log_sum(*plain).factors)
    assert_valid_indices(peel_folded(*folded).factors)
