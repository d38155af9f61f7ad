"""Sparse truncated multivariate power series over exact rationals.

A :class:`Series` lives in Q[[x_1, ..., x_nvars]] truncated at a fixed total
degree ``cap``: it holds finitely many terms whose exponents are tuples of
nonnegative integers with total degree at most ``cap``.  The intended
reading throughout the package is x_i = exp(-a_i) for the i-th simple root
a_i, which is why only nonnegative exponents exist.  Coefficients must be
``int`` or ``Fraction``; anything else, floats included, is refused rather
than converted.

Terms are stored as integer numerators over one common denominator,
``exponent -> int`` plus ``den``, normalized so that zero numerators are
never stored and gcd(den, every numerator) is 1.  That form is unique, so
equality is exact term-map equality.  ``Fraction``s appear only at the
edges: the constructor's input, ``coefficient``, ``constant_term`` and
``items``.  Sums, differences, negation, scaling and folding work on the
numerators and bring the denominators to their lcm first.

All operations are pure, truncate at the common cap, and report terms in a
fixed order (ascending total degree, then lexicographic on coordinates), so
results are deterministic.

Products, logarithms, inverses and exact quotients share one kernel:

* Packed keys.  With radix R = cap+1 an exponent e becomes the integer
  deg(e)*R^n + sum_i e_i*R^(n-i).  Below the cap no coordinate reaches R,
  so adding keys adds exponents without carries, key order is term order,
  and a sum of keys exceeds the cap exactly when it reaches R^(n+1).
* Integer coefficients.  The kernel runs on the stored numerators; the
  result's denominator is the product of the operands' ones.  For the
  recurrences a unit 1+u with denominator D is first rescaled by x -> Dx,
  which makes every coefficient of u an integer.
* One scatter recurrence.  ``log1``, ``invert`` and ``divide`` finish the
  result degree by degree; each finished nonzero term v_a adds w*v_a*u_g
  into the slot of a+g for every term u_g of the divisor, so only pairs of
  nonzero terms are visited.  For the logarithm w = deg(a) (the
  log-derivative recurrence of Brent and Kung) and the slots are scaled by
  lcm(1..cap), which keeps every division by a degree exact.
* Work budget.  Those three produce dense output, so they refuse up front,
  with :class:`TermLimit`, any job whose possible terms, C(cap+m, m) over
  the m variables the operands use, exceed ``_DENSE_TERM_LIMIT``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapMismatch, ConstantTermNotOne, DomainError, TermLimit

Exponent = tuple[int, ...]

# Most terms log1/invert/divide may have to build.  A dense 91390-term inverse
# peaks at about 34 MB; the largest job in the tests and the benchmark has
# 10626 terms.
_DENSE_TERM_LIMIT = 100_000


def degree(exponent: Sequence[int]) -> int:
    """Total degree of an exponent vector."""
    return sum(exponent)


def support(exponent: Sequence[int]) -> tuple[int, ...]:
    """1-based positions of the nonzero coordinates."""
    return tuple(i for i, e in enumerate(exponent, start=1) if e)


def term_order(exponent: Sequence[int]) -> tuple[int, Sequence[int]]:
    """Sort key: ascending total degree, then lexicographic."""
    return (sum(exponent), tuple(exponent))


def _check_exponent(exponent, nvars: int) -> Exponent:
    exp = tuple(exponent)
    if len(exp) != nvars:
        raise DomainError(f"exponent {exp} has {len(exp)} coordinates, expected {nvars}")
    for e in exp:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise DomainError(f"exponent {exp} has a bad coordinate {e!r}")
    return exp


def _coefficient(value, what: str = "coefficient") -> int | Fraction:
    """An exact rational, returned as given; anything else is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DomainError(f"{what} {value!r} is not an int or a Fraction")
    return value


class Series:
    """Immutable sparse truncated series; see the module docstring."""

    __slots__ = ("nvars", "cap", "_terms", "_den")

    def __init__(self, nvars: int, cap: int,
                 terms: Mapping[Exponent, object] | Iterable[tuple[Exponent, object]] = ()):
        if nvars < 0:
            raise DomainError("nvars must be nonnegative")
        if cap < 0:
            raise DomainError("cap must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        exact: dict[Exponent, int | Fraction] = {}
        for exponent, coeff in items:
            exp = _check_exponent(exponent, nvars)
            c = _coefficient(coeff)
            if c and sum(exp) <= cap:  # truncation is silent by contract
                exact[exp] = exact.get(exp, 0) + c
        den = math.lcm(*(c.denominator for c in exact.values()))
        self._init(nvars, cap, {e: c.numerator * (den // c.denominator)
                                for e, c in exact.items() if c}, den)

    def _init(self, nvars: int, cap: int, terms: dict[Exponent, int], den: int) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __reduce__(self):
        return Series, (self.nvars, self.cap, self.items())

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, cap: int) -> "Series":
        return cls(nvars, cap)

    @classmethod
    def one(cls, nvars: int, cap: int) -> "Series":
        return cls(nvars, cap, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, nvars: int, cap: int, exponent: Sequence[int], coeff=1) -> "Series":
        return cls(nvars, cap, {tuple(exponent): coeff})

    # -- inspection ------------------------------------------------------

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(exponent), 0), self._den)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.nvars)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def exponents(self) -> list[Exponent]:
        return sorted(self._terms, key=term_order)

    def items(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order."""
        terms, den = self._terms, self._den
        return [(e, Fraction(terms[e], den)) for e in self.exponents()]

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.nvars == other.nvars and self.cap == other.cap
                and self._den == other._den and self._terms == other._terms)

    def __repr__(self) -> str:
        return f"Series({self.text()!r}, nvars={self.nvars}, cap={self.cap})"

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "Series") -> None:
        if self.nvars != other.nvars:
            raise DomainError(f"variable counts differ: {self.nvars} vs {other.nvars}")
        if self.cap != other.cap:
            raise CapMismatch(f"caps differ: {self.cap} vs {other.cap}")

    def _combine(self, other: "Series", sign: int) -> "Series":
        """``self + sign * other`` over the lcm of the two denominators."""
        self._check_compatible(other)
        den = math.lcm(self._den, other._den)
        lift, step = den // self._den, sign * (den // other._den)
        out = dict(self._terms) if lift == 1 else {e: n * lift for e, n in self._terms.items()}
        get = out.get
        for exp, n in other._terms.items():
            acc = get(exp, 0) + n * step
            if acc:
                out[exp] = acc
            else:
                del out[exp]
        return self._reduced(self.nvars, out, den)

    def __add__(self, other: "Series") -> "Series":
        return self._combine(other, 1) if isinstance(other, Series) else NotImplemented

    def __sub__(self, other: "Series") -> "Series":
        return self._combine(other, -1) if isinstance(other, Series) else NotImplemented

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def scale(self, coeff) -> "Series":
        c = _coefficient(coeff)
        if not c:
            return Series.zero(self.nvars, self.cap)
        p = c.numerator
        return self._reduced(self.nvars, {e: p * n for e, n in self._terms.items()},
                             self._den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        weights, _, limit = _packing(self.nvars, self.cap)
        a = _packed(self._terms, weights)
        b = _packed(other._terms, weights)
        out: dict[int, int] = {}
        for ka, ca in a:
            room = limit - ka
            for kb, cb in b:
                if kb >= room:
                    break
                k = ka + kb
                out[k] = out.get(k, 0) + ca * cb
        return self._unpacked(out, self._den * other._den)

    __rmul__ = __mul__

    def _reduced(self, nvars: int, terms: dict[Exponent, int], den: int) -> "Series":
        """Series at this cap of nonzero numerators over ``den``, with the
        gcd of the denominator and the numerators divided out."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {e: n // g for e, n in terms.items()}
        s = object.__new__(Series)
        s._init(nvars, self.cap, terms, den)
        return s

    def _unpacked(self, packed: dict[int, int], den: int, grade: int = 1) -> "Series":
        """Series of packed int numerators over ``den * grade**degree``.

        Terms are stored in term order, which later sorts find presorted.
        """
        nvars, radix = self.nvars, self.cap + 1
        terms: dict[Exponent, int] = {}
        for key, v in sorted(packed.items()):
            if v:
                exp = [0] * nvars
                for i in range(nvars - 1, -1, -1):
                    key, exp[i] = divmod(key, radix)
                terms[tuple(exp)] = v
        if grade != 1 and terms:  # bring every degree over grade**top
            top = max(map(sum, terms))
            den *= grade ** top
            terms = {e: v * grade ** (top - sum(e)) for e, v in terms.items()}
        return self._reduced(nvars, terms, den)

    # -- series functions ---------------------------------------------------

    def log1(self) -> "Series":
        """Logarithm of a series with constant term 1.

        For integer u the coefficients of log(1+u) up to degree cap have
        denominators dividing lcm(1..cap), so the recurrence runs on slots
        scaled by it; a division by a degree that leaves a remainder raises
        ``ArithmeticError``.
        """
        return self._recurrence(None)

    def invert(self) -> "Series":
        """Multiplicative inverse of a series with constant term 1."""
        return Series.one(self.nvars, self.cap).divide(self)

    def divide(self, den: "Series") -> "Series":
        """Exact quotient ``self / den`` of a divisor with constant term 1."""
        self._check_compatible(den)
        return den._recurrence(self)

    def _recurrence(self, num: "Series | None") -> "Series":
        """``num / self``, or ``log(self)`` when ``num`` is None; see the module doc."""
        nvars, cap = self.nvars, self.cap
        zero = (0,) * nvars
        if self._terms.get(zero) != self._den:
            raise ConstantTermNotOne(f"constant term is {self.constant_term}, expected 1")
        u = {e: c for e, c in self._terms.items() if e != zero}
        if not u:
            return Series.zero(nvars, cap) if num is None else num
        exps = [*u, *(() if num is None else num._terms)]
        used = sum(1 for column in zip(*exps) if any(column))
        if math.comb(cap + used, used) > _DENSE_TERM_LIMIT:
            raise TermLimit(f"up to C({cap}+{used}, {used}) terms exceed the "
                            f"budget of {_DENSE_TERM_LIMIT}")
        weights, top, _ = _packing(nvars, cap)
        grade = self._den
        unit = [(k, c * grade ** (k // top - 1)) for k, c in _packed(u, weights)]  # x -> grade*x
        buckets: list[dict[int, int]] = [{} for _ in range(cap + 1)]
        if num is None:  # slot a starts at deg(a) * lcm(1..cap) * u_a
            den = math.lcm(*range(1, cap + 1))
            for k, c in unit:
                buckets[k // top][k] = (k // top) * den * c
        else:
            den = num._den
            for k, c in _packed(num._terms, weights):
                buckets[k // top][k] = c * grade ** (k // top)
        groups: list[tuple[int, list[tuple[int, int]]]] = []  # unit terms by degree
        for k, c in unit:
            if not groups or groups[-1][0] != k // top:
                groups.append((k // top, []))
            groups[-1][1].append((k, c))
        out: dict[int, int] = {}
        for d, bucket in enumerate(buckets):
            for ka, v in bucket.items():
                if num is None:
                    v, r = divmod(v, d)
                    if r:
                        raise ArithmeticError("log recurrence lost exactness")
                if not v:
                    continue
                out[ka] = v
                w = d * v if num is None else v
                for e, group in groups:
                    if d + e > cap:
                        break
                    target = buckets[d + e]
                    for kg, cg in group:
                        k = ka + kg
                        target[k] = target.get(k, 0) - w * cg
        return self._unpacked(out, den, grade)

    def fold(self, partition) -> "Series":
        """Collapse variables along a :class:`kmfactor.folding.Partition`.

        Coordinates are summed within each class and coefficients of
        colliding exponents add; the cap carries over unchanged because
        folding preserves total degree.  The c-th folded variable is the
        c-th class of the partition, which orders classes by smallest member.
        """
        if partition.n != self.nvars:
            raise DomainError(
                f"partition covers 1..{partition.n}, series has {self.nvars} variables")
        parts = partition.classes
        out: dict[Exponent, int] = {}
        for exp, n in self._terms.items():
            folded = tuple(sum(exp[i - 1] for i in p) for p in parts)
            acc = out.get(folded, 0) + n
            if acc:
                out[folded] = acc
            else:
                del out[folded]
        return self._reduced(len(parts), out, self._den)

    # -- rendering ---------------------------------------------------------

    def text(self, var: str = "x") -> str:
        """Canonical rendering: terms in order, coefficients as p/q."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for exp, c in self.items():
            mono = "*".join(
                f"{var}{i}" if e == 1 else f"{var}{i}^{e}"
                for i, e in enumerate(exp, start=1) if e)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


def _packing(nvars: int, cap: int) -> tuple[list[int], int, int]:
    """Key weights of the coordinates, R^n and the first key above the cap."""
    radix = cap + 1
    top = radix ** nvars
    return [top + radix ** (nvars - 1 - i) for i in range(nvars)], top, top * radix


def _packed(terms: dict[Exponent, int], weights: list[int]) -> list[tuple[int, int]]:
    """The (key, numerator) pairs in term order."""
    return sorted((sum(map(mul, e, weights)), n) for e, n in terms.items())
