"""Sparse truncated multivariate power series over exact rationals.

A :class:`Series` lives in Q[[x_1, ..., x_nvars]] truncated at a fixed total
degree ``cap``: it stores finitely many terms ``exponent -> Fraction`` where
every exponent is a tuple of nonnegative integers with total degree at most
``cap``.  Zero coefficients are never stored, so equality is exact term-map
equality.  The intended reading throughout the package is x_i = exp(-a_i)
for the i-th simple root a_i, which is why only nonnegative exponents exist.
Coefficients must be ``int`` or ``Fraction``; anything else, floats
included, is refused rather than converted.

All operations are pure, truncate at the common cap, and iterate terms in a
fixed order (ascending total degree, then lexicographic on coordinates), so
results are deterministic.

Products, logarithms, inverses and exact quotients share one kernel:

* Packed keys.  With radix R = cap+1 an exponent e becomes the integer
  deg(e)*R^n + sum_i e_i*R^(n-i).  Below the cap no coordinate reaches R,
  so adding keys adds exponents without carries, key order is term order,
  and a sum of keys exceeds the cap exactly when it reaches R^(n+1).
* Integer coefficients.  Operands are scaled to Python ints over one
  common denominator, and Fractions are built once per output term.  For
  the recurrences a unit 1+u with denominators is first rescaled by x -> Dx,
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

_ZERO = Fraction(0)
_ONE = Fraction(1)

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


def _coefficient(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DomainError(f"coefficient {value!r} is not an int or a Fraction")
    return Fraction(value)


class Series:
    """Immutable sparse truncated series; see the module docstring."""

    __slots__ = ("nvars", "cap", "_terms")

    def __init__(self, nvars: int, cap: int,
                 terms: Mapping[Exponent, object] | Iterable[tuple[Exponent, object]] = ()):
        if nvars < 0:
            raise DomainError("nvars must be nonnegative")
        if cap < 0:
            raise DomainError("cap must be nonnegative")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "cap", cap)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for exponent, coeff in items:
            exp = _check_exponent(exponent, nvars)
            if sum(exp) > cap:
                continue  # truncation is silent by contract
            c = _coefficient(coeff)
            if c:
                acc = clean.get(exp, _ZERO) + c
                if acc:
                    clean[exp] = acc
                else:
                    clean.pop(exp, None)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

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
        return self._terms.get(tuple(exponent), _ZERO)

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.nvars, _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def exponents(self) -> list[Exponent]:
        return sorted(self._terms, key=term_order)

    def items(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order."""
        return [(e, self._terms[e]) for e in self.exponents()]

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.nvars == other.nvars and self.cap == other.cap
                and self._terms == other._terms)

    def __repr__(self) -> str:
        return f"Series({self.text()!r}, nvars={self.nvars}, cap={self.cap})"

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "Series") -> None:
        if self.nvars != other.nvars:
            raise DomainError(f"variable counts differ: {self.nvars} vs {other.nvars}")
        if self.cap != other.cap:
            raise CapMismatch(f"caps differ: {self.cap} vs {other.cap}")

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            acc = out.get(exp, _ZERO) + c
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return self._raw(self.nvars, self.cap, out)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Series":
        return self._raw(self.nvars, self.cap,
                         {e: -c for e, c in self._terms.items()})

    def scale(self, coeff) -> "Series":
        c = _coefficient(coeff)
        if not c:
            return Series.zero(self.nvars, self.cap)
        return self._raw(self.nvars, self.cap,
                         {e: c * v for e, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        weights, _, limit = _packing(self.nvars, self.cap)
        da, a = _packed(self._terms, weights)
        db, b = _packed(other._terms, weights)
        out: dict[int, int] = {}
        for ka, ca in a:
            room = limit - ka
            for kb, cb in b:
                if kb >= room:
                    break
                k = ka + kb
                out[k] = out.get(k, 0) + ca * cb
        return self._unpacked(out, da * db)

    __rmul__ = __mul__

    @classmethod
    def _raw(cls, nvars: int, cap: int, terms: dict[Exponent, Fraction]) -> "Series":
        """Internal constructor for already-normalized term maps."""
        s = object.__new__(cls)
        object.__setattr__(s, "nvars", nvars)
        object.__setattr__(s, "cap", cap)
        object.__setattr__(s, "_terms", terms)
        return s

    def _unpacked(self, packed: dict[int, int], den: int, grade: int = 1) -> "Series":
        """Series of packed int coefficients over ``den * grade**degree``.

        Terms are stored in term order, which later sorts find presorted.
        """
        nvars, radix = self.nvars, self.cap + 1
        terms: dict[Exponent, Fraction] = {}
        for key, v in sorted(packed.items()):
            if v:
                exp = [0] * nvars
                for i in range(nvars - 1, -1, -1):
                    key, exp[i] = divmod(key, radix)
                d = den if grade == 1 else den * grade ** key  # key is now the degree
                terms[tuple(exp)] = Fraction(v) if d == 1 else Fraction(v, d)
        return self._raw(nvars, self.cap, terms)

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
        if self.constant_term != _ONE:
            raise ConstantTermNotOne(f"constant term is {self.constant_term}, expected 1")
        nvars, cap = self.nvars, self.cap
        u = {e: c for e, c in self._terms.items() if any(e)}
        if not u:
            return Series.zero(nvars, cap) if num is None else num
        exps = [*u, *(() if num is None else num._terms)]
        used = sum(1 for column in zip(*exps) if any(column))
        if math.comb(cap + used, used) > _DENSE_TERM_LIMIT:
            raise TermLimit(f"up to C({cap}+{used}, {used}) terms exceed the "
                            f"budget of {_DENSE_TERM_LIMIT}")
        weights, top, _ = _packing(nvars, cap)
        grade, unit = _packed(u, weights)
        unit = [(k, c * grade ** (k // top - 1)) for k, c in unit]  # x -> grade*x
        buckets: list[dict[int, int]] = [{} for _ in range(cap + 1)]
        if num is None:  # slot a starts at deg(a) * lcm(1..cap) * u_a
            den = math.lcm(*range(1, cap + 1))
            for k, c in unit:
                buckets[k // top][k] = (k // top) * den * c
        else:
            den, packed = _packed(num._terms, weights)
            for k, c in packed:
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
        out: dict[Exponent, Fraction] = {}
        for exp, c in self._terms.items():
            folded = tuple(sum(exp[i - 1] for i in p) for p in parts)
            acc = out.get(folded, _ZERO) + c
            if acc:
                out[folded] = acc
            else:
                out.pop(folded, None)
        return self._raw(len(parts), self.cap, out)

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


def _packed(terms: dict[Exponent, Fraction],
            weights: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """Common denominator and the (key, numerator) pairs in term order."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, sorted((sum(map(mul, e, weights)), c.numerator * (den // c.denominator))
                       for e, c in terms.items())
