import ast
import copy
import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kmfactor.errors import CapMismatch, ConstantTermNotOne, DomainError, TermLimit
from kmfactor.folding import Partition
from kmfactor import series as series_module
from kmfactor.series import Series, degree, support
from oracles import naive_add, naive_fold, naive_invert, naive_log1, naive_mul, naive_scale

# Hand expansion of (1-x1)(1-x2)(1-x1x2); also the A2 full-set numerator.
A2_PRODUCT = {
    (0, 0): 1, (1, 0): -1, (0, 1): -1,
    (2, 1): 1, (1, 2): 1, (2, 2): -1,
}


def series(nvars, cap, terms):
    return Series(nvars, cap, terms)


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def series_strategy(nvars=2, cap=4, unit=False):
    exps = st.tuples(*(st.integers(min_value=0, max_value=cap) for _ in range(nvars)))
    base = st.dictionaries(exps, coeffs, max_size=6)

    def build(terms):
        if unit:
            terms = dict(terms)
            terms[(0,) * nvars] = Fraction(1)
        return Series(nvars, cap, terms)

    return base.map(build)


# -- construction and bookkeeping ---------------------------------------------

def test_normalization_drops_zero_and_overcap():
    s = series(2, 3, {(1, 0): 0, (2, 2): 5, (0, 1): Fraction(1, 2)})
    assert s.items() == [((0, 1), Fraction(1, 2))]
    assert s.coefficient((2, 2)) == 0


def test_coefficients_are_ints_over_denominator_one():
    whole = series(2, 3, {(1, 0): 2, (0, 1): Fraction(-6, 3), (0, 0): 1})
    half = series(2, 3, {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): 1})
    for s, kind in ((whole, int), (half, Fraction)):
        assert {type(c) for _, c in s.items()} == {kind}
        assert {type(c) for _, c in s} == {kind}
        assert type(s.coefficient((1, 0))) is kind
        assert type(s.coefficient((2, 1))) is kind  # not stored
        assert type(s.coefficient((9, 9))) is kind  # over the cap
        assert type(s.constant_term) is kind
        assert type((s - Series.one(2, 3)).constant_term) is kind
    assert whole.items() == [((0, 0), 1), ((0, 1), -2), ((1, 0), 2)]
    assert half.items() == [((0, 0), 1), ((0, 1), Fraction(1, 2)), ((1, 0), 2)]
    # an int prints like the Fraction it equals
    assert whole.text() == "1 - 2*x2 + 2*x1"
    assert [str(c) for _, c in whole.items()] == [str(Fraction(c)) for _, c in whole.items()]


def test_coefficient_never_aliases():
    s = series(3, 2, {(1, 0, 0): 5})
    assert s.coefficient((1, 0, 0)) == 5
    # (0, 4, -3) packs to the radix-3 key of (1, 0, 0), and (0, 9, -8) to its
    # key in 3-bit fields; neither is stored, and neither are the rest
    for exp in ((0, 4, -3), (0, 9, -8), (1, 0), (1, 0, 0, 0), (-1, 1, 0),
                (3, 0, 0), (2, 1, 0), (0, 0, 0), (), (True, 0, 0), (1.0, 0, 0)):
        assert s.coefficient(exp) == 0
    assert series(2, 3, {(1, 0): 5}).coefficient((True, 0)) == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.data())
def test_coefficient_matches_stored_terms(nvars, cap, data):
    s = data.draw(wide_series(nvars, cap))
    stored = dict(s.items())
    for _ in range(10):
        length = data.draw(st.integers(max(0, nvars - 1), nvars + 1))
        exp = tuple(data.draw(st.lists(st.integers(-cap - 2, 2 * cap + 2),
                                       min_size=length, max_size=length)))
        assert s.coefficient(exp) == stored.get(exp, 0)
    for exp, c in stored.items():
        assert s.coefficient(exp) == c


def test_bad_exponents_rejected():
    with pytest.raises(DomainError):
        series(2, 3, {(1,): 1})
    with pytest.raises(DomainError):
        series(2, 3, {(-1, 0): 1})


def test_inexact_coefficients_rejected():
    for bad in (0.1, 1.0, "1/2", None, True, complex(1, 0)):
        with pytest.raises(DomainError):
            series(1, 2, {(1,): bad})
        with pytest.raises(DomainError):  # checked before truncation drops the term
            series(1, 2, {(5,): bad})
    with pytest.raises(DomainError):
        series(1, 2, {(1,): 1}).scale(0.5)


def test_term_order_and_text():
    s = series(2, 4, {(2, 0): 1, (0, 2): -1, (1, 0): Fraction(1, 2), (0, 0): 3})
    assert s.exponents() == [(0, 0), (1, 0), (0, 2), (2, 0)]
    assert s.text() == "3 + 1/2*x1 - x2^2 + x1^2"
    assert Series.zero(2, 4).text() == "0"


def test_copy_and_pickle_round_trip():
    s = series(2, 4, {(0, 0): 1, (1, 0): Fraction(1, 3), (0, 1): Fraction(-5, 2)})
    for x in (s, s * s, s.log1(), series(2, 4, A2_PRODUCT), Series.zero(2, 4)):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert y == x and (y.nvars, y.cap, y.items()) == (x.nvars, x.cap, x.items())


def test_support_and_degree():
    assert degree((2, 0, 1)) == 3
    assert support((2, 0, 1)) == (1, 3)


def test_cap_mismatch():
    with pytest.raises(CapMismatch):
        series(1, 2, {}) + series(1, 3, {})
    with pytest.raises(DomainError):
        series(1, 2, {}) + series(2, 2, {})


# -- sums, differences, negation and scaling ----------------------------------------

wide_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def wide_series(nvars=3, cap=5):
    """Series whose terms carry many different denominators."""
    exps = st.tuples(*(st.integers(min_value=0, max_value=cap) for _ in range(nvars)))
    return st.dictionaries(exps, wide_coeffs, max_size=8).map(
        lambda terms: Series(nvars, cap, terms))


def partitions(n=3):
    """Partitions of 1..n, drawn as a class label per node."""
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
        lambda labels: Partition.of(n, [[i + 1 for i, x in enumerate(labels) if x == c]
                                        for c in set(labels)]))


def stored_form_is_normalized(s):
    nums = list(s._terms.values())
    return s._den >= 1 and all(nums) and math.gcd(s._den, *nums) == 1


@settings(max_examples=80, deadline=None)
@given(wide_series(), wide_series(), wide_coeffs)
def test_linear_operations_match_naive(a, b, q):
    for got, want in ((a + b, naive_add(a, b)), (a - b, naive_add(a, b, -1)),
                      (-a, naive_scale(a, -1)), (a.scale(q), naive_scale(a, q))):
        assert got == want
        assert got.items() == want.items()
        assert stored_form_is_normalized(got)


@settings(max_examples=60, deadline=None)
@given(wide_series(), partitions())
def test_fold_matches_naive(a, partition):
    folded = a.fold(partition)
    assert folded == naive_fold(a, partition.classes)
    assert stored_form_is_normalized(folded)
    # rotating coordinates within each class leaves the fold unchanged, so
    # the difference folds to zero term by term
    image = {}
    for part in partition.classes:
        for k, i in enumerate(part):
            image[i] = part[(k + 1) % len(part)]
    rotated = series(a.nvars, a.cap, {tuple(e[image[i + 1] - 1] for i in range(a.nvars)): c
                                      for e, c in a.items()})
    assert (a - rotated).fold(partition) == Series.zero(len(partition.classes), a.cap)


@settings(max_examples=40, deadline=None)
@given(wide_series())
def test_difference_with_itself_is_zero(a):
    assert (a - a) == Series.zero(a.nvars, a.cap)
    assert (a + -a).is_zero
    assert a.scale(0).is_zero


def test_equality_across_denominators_examples():
    half = series(1, 3, {(1,): Fraction(1, 2)})
    assert half + half == Series.monomial(1, 3, (1,))
    sixths = series(1, 3, {(1,): Fraction(1, 3), (2,): Fraction(1, 6)})
    assert sixths - series(1, 3, {(2,): Fraction(1, 6)}) == series(1, 3, {(1,): Fraction(1, 3)})
    assert series(1, 3, {(1,): 2}).scale(Fraction(1, 2)) == Series.monomial(1, 3, (1,))


@settings(max_examples=60, deadline=None)
@given(wide_series(), wide_series(), wide_coeffs.filter(bool))
def test_equality_across_denominators(a, b, q):
    # the same values reached through different common denominators
    assert (a + b) - b == a
    assert a.scale(q).scale(1 / q) == a
    assert series(a.nvars, a.cap, a.items()) == a
    assert stored_form_is_normalized((a + b) - b)


# -- multiplication --------------------------------------------------------------

def test_mul_telescoping():
    a = series(1, 2, {(0,): 1, (1,): -1})
    b = series(1, 2, {(0,): 1, (1,): 1, (2,): 1})
    assert a * b == Series.one(1, 2)


def test_mul_three_factor_product():
    one = Series.one(2, 4)
    prod = one
    for e in [(1, 0), (0, 1), (1, 1)]:
        prod = prod * (one - Series.monomial(2, 4, e))
    assert prod == series(2, 4, A2_PRODUCT)


def test_mul_identity():
    s = series(2, 4, {(1, 1): Fraction(3, 7), (0, 2): -2})
    assert s * Series.one(2, 4) == s


def test_scalar_mul():
    s = series(1, 3, {(1,): 2})
    assert (s * 3).coefficient((1,)) == 6
    assert (Fraction(1, 2) * s).coefficient((1,)) == 1


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_mul_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_mul_matches_naive(a, b):
    assert a * b == naive_mul(a, b)


# -- log ---------------------------------------------------------------------------

def test_log_scalar():
    s = series(1, 3, {(0,): 1, (1,): -1})
    assert s.log1() == series(1, 3, {(1,): -1, (2,): Fraction(-1, 2), (3,): Fraction(-1, 3)})


def test_log_requires_unit():
    with pytest.raises(ConstantTermNotOne):
        series(1, 3, {(1,): 1}).log1()


def test_log_of_one():
    assert Series.one(2, 4).log1() == Series.zero(2, 4)


def test_log_of_a2_product():
    # multiplicity of the height-two root shows up at (1,1)
    s = series(2, 6, A2_PRODUCT)
    assert (-s.log1()).coefficient((1, 1)) == 1


@settings(max_examples=50, deadline=None)
@given(series_strategy(unit=True))
def test_log_matches_naive(a):
    assert a.log1() == naive_log1(a)


@settings(max_examples=40, deadline=None)
@given(series_strategy(unit=True), series_strategy(unit=True))
def test_log_of_product_is_sum(a, b):
    assert (a * b).log1() == a.log1() + b.log1()


def test_log_and_inverse_are_one_division():
    # divide is the one dense kernel: log1 is E^-1(E f / f) and invert is 1 / f
    f = series(2, 6, A2_PRODUCT)
    divide = Series.divide
    divisors = []

    def counted(num, den):
        divisors.append(den)
        return divide(num, den)

    with mock.patch.object(Series, "divide", counted):
        for op in (Series.log1, Series.invert):
            divisors.clear()
            op(f)
            assert divisors == [f], op


# -- inverse --------------------------------------------------------------------------

def test_invert_geometric():
    s = series(1, 3, {(0,): 1, (1,): -1})
    assert s.invert() == series(1, 3, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})


def test_invert_of_a2_product():
    s = series(2, 6, A2_PRODUCT)
    assert s.invert().coefficient((1, 1)) == 2


def test_invert_of_one():
    assert Series.one(3, 5).invert() == Series.one(3, 5)


def test_invert_requires_unit():
    with pytest.raises(ConstantTermNotOne):
        series(1, 3, {(0,): 2}).invert()
    # a constant term past the interpreter's digit limit is named by its size
    with pytest.raises(ConstantTermNotOne, match="about 5001 digits"):
        series(1, 3, {(0,): Fraction(1, 10**5000)}).invert()


@settings(max_examples=50, deadline=None)
@given(series_strategy(unit=True))
def test_invert_two_sided(a):
    inv = a.invert()
    assert a * inv == Series.one(a.nvars, a.cap)
    assert inv * a == Series.one(a.nvars, a.cap)
    assert inv == naive_invert(a)


# -- exact division -----------------------------------------------------------------

def test_divide_a2_numerator():
    # (1 - x1) / ((1-x1)(1-x2)(1-x1x2)) = 1 / ((1-x2)(1-x1x2))
    num = series(2, 6, {(0, 0): 1, (1, 0): -1})
    want = (Series.one(2, 6) - Series.monomial(2, 6, (0, 1))) \
        * (Series.one(2, 6) - Series.monomial(2, 6, (1, 1)))
    assert num.divide(series(2, 6, A2_PRODUCT)) == want.invert()


def test_divide_requires_unit_and_matching_caps():
    with pytest.raises(ConstantTermNotOne):
        Series.one(1, 3).divide(series(1, 3, {(0,): 2}))
    with pytest.raises(CapMismatch):
        Series.one(1, 3).divide(Series.one(1, 4))


@settings(max_examples=50, deadline=None)
@given(series_strategy(), series_strategy(unit=True))
def test_divide_matches_naive(a, b):
    quotient = a.divide(b)
    assert quotient == naive_mul(a, naive_invert(b))
    assert naive_mul(quotient, b) == a


def non_integer_unit(nvars=2, cap=4):
    """Units with at least one coefficient that is not an integer."""
    exps = st.tuples(*(st.integers(0, cap) for _ in range(nvars))).filter(
        lambda e: 0 < sum(e) <= cap)
    fractional = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
        lambda c: c.denominator > 1)

    def build(t):
        terms, exp, c = t
        return Series(nvars, cap, {**terms, exp: c, (0,) * nvars: 1})

    return st.tuples(st.dictionaries(exps, coeffs, max_size=5), exps, fractional).map(build)


@settings(max_examples=40, deadline=None)
@given(non_integer_unit())
def test_log_and_invert_rational_match_naive(a):
    assert any(c.denominator > 1 for _, c in a.items())
    assert a.log1() == naive_log1(a)
    assert a.invert() == naive_invert(a)


@pytest.mark.parametrize("nvars,cap", [(0, 0), (0, 3), (2, 0), (2, 1), (3, 1)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kernel_edge_shapes(nvars, cap, data):
    a = data.draw(series_strategy(nvars, cap))
    b = data.draw(series_strategy(nvars, cap, unit=True))
    assert a * b == naive_mul(a, b)
    assert b.log1() == naive_log1(b)
    assert b.invert() == naive_invert(b)
    assert a.divide(b) == naive_mul(a, naive_invert(b))


def test_dense_work_budget():
    huge = series(1, 10**9, {(0,): 1, (1,): -1})
    for op in (huge.log1, huge.invert, lambda: huge.divide(huge)):
        with pytest.raises(TermLimit):
            op()
    assert (huge * huge).coefficient((2,)) == 1  # products are bounded by their inputs
    # a log without a non-constant term is 0 at once, whatever the cap, and
    # the quotient behind log(1 - x^cap) has 1 possible term but cap + 1 degrees
    assert Series.one(1, 10**9).log1().is_zero
    with pytest.raises(TermLimit):
        series(1, 10**9, {(0,): 1, (10**9,): -1}).log1()
    # the budget counts only the variables the operands use
    sparse = series(40, 20, {(0,) * 40: 1, (1,) + (0,) * 39: -1})
    assert len(sparse.invert()) == 21


def test_division_budget_counts_quotient_terms():
    # 3 numerator variables and 3 divisor variables: C(26, 6) = 230230 terms
    # in the 6 variables, but the quotient has only those x1*x2*x3 * g with
    # deg(g) <= 17 in the divisor's 3 variables, C(20, 3) = 1140 of them
    num = Series.monomial(12, 20, (1, 1, 1) + (0,) * 9)
    unit = Series(12, 20, {(0,) * 12: 1, (0, 0, 0, 1) + (0,) * 8: -1,
                           (0,) * 4 + (1,) + (0,) * 7: -1, (0,) * 5 + (1,) + (0,) * 6: -1})
    quotient = num.divide(unit)
    assert len(quotient) == 1140
    assert quotient == unit.invert() * num


def test_log_shares_the_quotient_budget():
    # all 12 variables in use: C(32, 12) possible terms, but the quotient
    # E f / f behind log(1 - m), for a monomial m of degree 13, has at most
    # C(19, 12) = 50388 terms m*g with deg(g) <= 7
    m = (2,) + (1,) * 11
    f = Series(12, 20, {(0,) * 12: 1, m: -1})
    assert f.log1() == Series(12, 20, {m: -1})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.data())
def test_quotient_bound_counts_pairs(nvars, cap, data):
    exps = st.tuples(*(st.integers(0, cap) for _ in range(nvars)))
    num = data.draw(st.lists(exps, max_size=5, unique=True))
    unit_vars = data.draw(st.integers(0, nvars))
    # brute force: the pairs (e, g) with g a monomial in unit_vars variables
    # and deg(e) + deg(g) <= cap
    monomials = list(itertools.product(range(cap + 1), repeat=unit_vars))
    pairs = sum(1 for e in num for g in monomials if sum(e) + sum(g) <= cap)
    bound = series_module._quotient_bound(cap, unit_vars, (sum(e) for e in num if sum(e) <= cap))
    assert bound == pairs


@settings(max_examples=60, deadline=None)
@given(series_strategy(3, 5), series_strategy(3, 5, unit=True))
def test_quotient_fits_its_bound(a, b):
    shift = a._pack.shift
    unit_vars = sum(1 for i in range(3) if any(e[i] for e in b.exponents()))
    bound = series_module._quotient_bound(5, unit_vars, (k >> shift for k in a._terms))
    assert len(a.divide(b)) <= bound


@settings(max_examples=60, deadline=None)
@given(wide_series(), wide_series())
def test_pair_budget_predicts_visited_pairs(a, b):
    # the loop visits the pairs of terms whose degrees fit under the cap together
    pairs = sum(1 for ea in a.exponents() for eb in b.exponents() if sum(ea) + sum(eb) <= a.cap)
    with mock.patch.object(series_module, "_PAIR_LIMIT", pairs):
        assert a * b == naive_mul(a, b)
    if pairs:
        with mock.patch.object(series_module, "_PAIR_LIMIT", pairs - 1):
            with pytest.raises(TermLimit):
                a * b


def test_product_pair_budget():
    dense = Series(1, 5000, {(i,): 1 for i in range(5001)})
    with pytest.raises(TermLimit):
        dense * dense  # 12.5 million pairs
    assert len(dense * Series.monomial(1, 5000, (4999,))) == 2


def test_public_helpers_are_left_to_the_tracer():
    # perfbench/tracer.py wraps every public kmfactor function except its
    # per-term helpers, so a new public helper here would be timed per term
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    helpers = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "_PER_TERM_HELPERS")
    public = {name for name, value in vars(series_module).items()
              if not name.startswith("_") and callable(value) and not isinstance(value, type)
              and getattr(value, "__module__", None) == "kmfactor.series"}
    assert public and public <= helpers


def test_tracer_installs():
    # perfbench/tracer.py patches Series and FoldContext methods by name, so
    # removing or inheriting one of them breaks the traced benchmark run
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import kmfactor; "
            "from tracer import Tracer; Tracer().install()")
    done = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"),
                           os.path.join(root, "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# -- fold --------------------------------------------------------------------------------

def test_fold_cancellation():
    s = series(2, 3, {(1, 0): 1, (0, 1): -1})
    assert s.fold(Partition.of(2, [(1, 2)])) == Series.zero(1, 3)


def test_fold_degree_two():
    s = series(2, 3, {(1, 1): 1})
    assert s.fold(Partition.of(2, [(1, 2)])) == Series.monomial(1, 3, (2,))


def test_fold_a2_product():
    s = series(2, 6, A2_PRODUCT)
    folded = s.fold(Partition.of(2, [(1, 2)]))
    assert folded == series(1, 6, {(0,): 1, (1,): -2, (3,): 2, (4,): -1})


def test_fold_partition_checked():
    s = series(3, 2, {})
    # invalid partitions are refused by Partition.of (see test_folding)
    with pytest.raises(DomainError):
        s.fold(Partition.of(2, [(1, 2)]))
    with pytest.raises(DomainError):
        s.fold(Partition.of(4, [(1, 2), (3, 4)]))


def test_fold_class_order_is_canonical():
    s = series(3, 4, {(1, 0, 2): 1})
    assert s.fold(Partition.of(3, [(3,), (1, 2)])) == s.fold(Partition.of(3, [(1, 2), (3,)]))
    assert s.fold(Partition.of(3, [(1, 2), (3,)])).items() == [((1, 2), Fraction(1))]


@settings(max_examples=50, deadline=None)
@given(series_strategy(nvars=3), series_strategy(nvars=3))
def test_fold_linear_multiplicative(a, b):
    classes = Partition.of(3, [(1, 3), (2,)])
    assert (a + b).fold(classes) == a.fold(classes) + b.fold(classes)
    assert (a * b).fold(classes) == a.fold(classes) * b.fold(classes)


# -- integer fast path agrees with the generic recurrence --------------------------

@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(min_value=-3, max_value=3), max_size=5))
def test_log_integer_path_matches_generic(terms):
    terms = dict(terms)
    terms[(0, 0)] = 1
    a = Series(2, 6, terms)
    shifted = Series(2, 6, {e: Fraction(c) * Fraction(1, 1) for e, c in a.items()})
    assert a.log1() == naive_log1(shifted)


# -- wide keys ------------------------------------------------------------------------

# At these shapes every field is 6 bits wide and the degree digit starts at
# bit 66 or 72, so every key but the constant one exceeds 2**64.
WIDE_SHAPES = [(11, 16), (12, 20)]


def wide_variables(nvars):
    """At most 3 of the variables, so that a quotient stays under the term budget."""
    return st.lists(st.integers(0, nvars - 1), min_size=1, max_size=3, unique=True)


@st.composite
def wide_key_series(draw, nvars, cap, used, unit=False):
    """Up to 4 terms on the variables ``used``, each of degree at least
    cap // 4, so that products and the naive power sums stay small."""

    def exponent(coords):
        e = [0] * nvars
        for i, x in zip(used, coords):
            e[i] = x
        return tuple(e)

    exps = st.lists(st.integers(0, cap // len(used)), min_size=len(used),
                    max_size=len(used)).map(exponent).filter(lambda e: sum(e) >= cap // 4)
    terms = draw(st.dictionaries(exps, wide_coeffs.filter(bool), max_size=4))
    if unit:
        terms[(0,) * nvars] = 1
    return Series(nvars, cap, terms)


@pytest.mark.parametrize("nvars,cap", WIDE_SHAPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_wide_keys_match_naive(nvars, cap, data):
    used = data.draw(wide_variables(nvars))
    a = data.draw(wide_key_series(nvars, cap, used))
    b = data.draw(wide_key_series(nvars, cap, used))
    unit = data.draw(wide_key_series(nvars, cap, used, unit=True))
    q = data.draw(wide_coeffs)
    assert a + b == naive_add(a, b)
    assert a - b == naive_add(a, b, -1)
    assert a.scale(q) == naive_scale(a, q)
    assert a * b == naive_mul(a, b)
    assert unit.log1() == naive_log1(unit)
    inverse = naive_invert(unit)
    assert unit.invert() == inverse
    assert a.divide(unit) == naive_mul(a, inverse)
    partition = data.draw(partitions(nvars))
    assert a.fold(partition) == naive_fold(a, partition.classes)
    for s in (a, b, unit):
        assert s.items() == Series(nvars, cap, s.items()).items()
