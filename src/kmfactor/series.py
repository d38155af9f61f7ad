"""Sparse truncated multivariate power series over exact rationals.

A :class:`Series` lives in Q[[x_1, ..., x_nvars]] truncated at a fixed total
degree ``cap``: it holds finitely many terms whose exponents are tuples of
nonnegative integers with total degree at most ``cap``.  The intended
reading throughout the package is x_i = exp(-a_i) for the i-th simple root
a_i, which is why only nonnegative exponents exist.  Coefficients must be
``int`` or ``Fraction``; anything else, floats included, is refused rather
than converted.

Storage is one dict from packed exponent keys to integer numerators, plus
one common denominator:

* Packed keys.  Each coordinate gets a field of b bits, where b is one more
  than the bit length of ``cap``, so the top bit of every field is clear;
  the fields sit in coordinate order below the total degree, which is the
  top digit.  Below the cap no coordinate reaches 2**(b-1), so adding keys
  adds exponents without carries, key order is term order (ascending total
  degree, then lexicographic on coordinates), the key's low fields read in
  lexicographic order, and a sum of keys exceeds the cap exactly when it
  reaches (cap+1) << (b*nvars).  Adding 2**(b-1) - 1 to every field sets a
  field's clear top bit exactly when the coordinate is nonzero, so one
  mask, one add and one mask read the support of a key.
* Integer numerators.  Numerators are ints over the denominator, normalized
  so that zero numerators are never stored and gcd(den, every numerator) is
  1.  That form is unique, so equality is exact term-map equality.

Exponent tuples and coefficients appear only at the edges: the public
constructor's input, ``coefficient``, ``constant_term``, ``exponents``,
``items`` and ``text``.  A coefficient is an ``int`` when the denominator
is 1 and a ``Fraction`` otherwise; both are exact and print alike.  Every
series is built by one private constructor from keys and numerators; the
public one checks and packs its exponents and then ends in it, and
:mod:`kmfactor.weyl` enumerates orbits on keys, so a numerator decodes and
checks no exponent.  Sums, differences and the peel residual of
:mod:`kmfactor.factorizer` share one mutable accumulator, ``_Sum``; negation
and scaling work on the stored numerators; ``fold`` re-packs each key
through a per-class digit map.

All operations are pure, truncate at the common cap, and report terms in
term order, so results are deterministic.

Products, exact quotients, inverses and logarithms run on the stored keys:

* Integer coefficients.  A product's denominator is the product of the
  operands' ones.  A quotient first rescales its divisor 1+u with
  denominator D by x -> Dx, which makes every coefficient of u an integer.
* One division kernel.  ``divide`` finishes the quotient degree by degree;
  each finished nonzero term v_a adds -v_a*u_g into the slot of a+g for
  every term u_g of the divisor, so only pairs of nonzero terms are
  visited.  ``invert`` is 1/f, and ``log1`` is E^-1(E f / f), where E
  multiplies each term by its total degree: E log f = E f / f is the
  log-derivative identity of Brent and Kung, so the logarithm is one
  quotient with each coefficient then divided by its degree.
* Work budgets.  A quotient is dense, so ``divide``, and through it
  ``invert`` and ``log1``, refuses up front with :class:`TermLimit` a job
  of more than ``_DENSE_TERM_LIMIT`` degrees (cap+1) or possible terms: the
  fewer of C(cap+m, m) over the m variables the operands use and the sum
  over the numerator's terms e of C(cap-deg(e)+m_u, m_u) over the m_u
  variables of the divisor.  A product counts its term pairs from the two
  degree histograms and refuses more than ``_PAIR_LIMIT``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, and_, mul, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapMismatch, ConstantTermNotOne, DomainError, TermLimit, _number_text

Exponent = tuple[int, ...]

# Most terms a quotient, and so log1 or invert, may have to build.  A dense
# 91390-term inverse peaks at about 34 MB; the largest job in the tests and
# the benchmark has 10626 terms.
_DENSE_TERM_LIMIT = 100_000
# Most term pairs a product may visit, a few seconds of work; the largest
# product in the benchmark visits 7436.
_PAIR_LIMIT = 10_000_000


def degree(exponent: Sequence[int]) -> int:
    """Total degree of an exponent vector."""
    return sum(exponent)


def support(exponent: Sequence[int]) -> tuple[int, ...]:
    """1-based positions of the nonzero coordinates."""
    return tuple(i for i, e in enumerate(exponent, start=1) if e)


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


class _Packing:
    """Key layout of the exponents of one (nvars, cap); see the module doc."""

    __slots__ = ("shift", "shifts", "weights", "mask", "lex", "low", "guards")

    def __init__(self, nvars: int, cap: int):
        bits = cap.bit_length() + 1
        self.shift = bits * nvars                       # the degree digit starts here
        self.shifts = [bits * (nvars - 1 - i) for i in range(nvars)]
        self.weights = [(1 << self.shift) + (1 << s) for s in self.shifts]
        self.mask = (1 << bits) - 1
        self.lex = (1 << self.shift) - 1                # all coordinate fields
        ones = sum(1 << s for s in self.shifts)
        self.low = ones * ((1 << (bits - 1)) - 1)
        self.guards = ones << (bits - 1)

    def key(self, exponent: Sequence[int]) -> int:
        return sum(map(mul, exponent, self.weights))

    def exponent(self, key: int) -> Exponent:
        mask = self.mask
        return tuple((key >> s) & mask for s in self.shifts)

    def supports(self, keys: Iterable[int]) -> Iterator[int]:
        """The nonzero pattern of each key: a guard bit per nonzero coordinate,
        with the first coordinate's bit highest."""
        return map(and_, map(add, map(and_, keys, repeat(self.lex)), repeat(self.low)),
                   repeat(self.guards))


_packing = lru_cache(maxsize=256)(_Packing)


def _quotient_bound(cap: int, unit_vars: int, degrees: Iterable[int]) -> int:
    """Most terms a quotient num / (1+u) can have, given the degrees of the
    terms of num: each of its terms is e + g for a term e of num and a
    monomial g of degree at most cap - deg(e) in the unit_vars variables
    that u uses."""
    return sum(math.comb(cap - d + unit_vars, unit_vars) for d in degrees)


class _Sum:
    """A running sum of series of one shape, changed in place: nonzero
    numerators at packed keys over one denominator ``den``, which grows only
    when an added denominator does not divide it; nothing is reduced."""

    __slots__ = ("terms", "den", "pack")

    def __init__(self, start: "Series"):
        self.terms = dict(start._terms)
        self.den = start._den
        self.pack = start._pack

    def add(self, t: "Series", step: int) -> None:
        """Add ``step`` times ``t``, a series of the same shape."""
        terms = self.terms
        if self.den % t._den:
            den = math.lcm(self.den, t._den)
            lift = den // self.den
            for key, n in terms.items():
                terms[key] = n * lift
            self.den = den
        step *= self.den // t._den
        get = terms.get
        for key, n in t._terms.items():
            acc = get(key, 0) + n * step
            if acc:
                terms[key] = acc
            else:
                del terms[key]


class Series:
    """Immutable sparse truncated series; see the module docstring."""

    __slots__ = ("nvars", "cap", "_terms", "_den", "_pack")

    def __new__(cls, nvars: int, cap: int,
                terms: Mapping[Exponent, object] | Iterable[tuple[Exponent, object]] = ()):
        if nvars < 0:
            raise DomainError("nvars must be nonnegative")
        if cap < 0:
            raise DomainError("cap must be nonnegative")
        key = _packing(nvars, cap).key
        items = terms.items() if isinstance(terms, Mapping) else terms
        exact: dict[int, int | Fraction] = {}
        for exponent, coeff in items:
            exp = _check_exponent(exponent, nvars)
            c = _coefficient(coeff)
            if c and sum(exp) <= cap:  # truncation is silent by contract
                k = key(exp)
                exact[k] = exact.get(k, 0) + c
        den = math.lcm(*(c.denominator for c in exact.values()))
        return cls._new(nvars, cap, {k: c.numerator * (den // c.denominator)
                                     for k, c in exact.items() if c}, den)

    @classmethod
    def _new(cls, nvars: int, cap: int, terms: dict[int, int], den: int) -> "Series":
        """The one constructor behind every series: nonzero numerators at
        packed keys over ``den``, taken as they are and with the gcd of the
        denominator and the numerators divided out."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: n // g for k, n in terms.items()}
        s = object.__new__(cls)
        object.__setattr__(s, "nvars", nvars)
        object.__setattr__(s, "cap", cap)
        object.__setattr__(s, "_terms", terms)
        object.__setattr__(s, "_den", den)
        object.__setattr__(s, "_pack", _packing(nvars, cap))
        return s

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

    def _value(self, numerator: int) -> int | Fraction:
        """A stored numerator as a coefficient: an int over denominator 1."""
        return numerator if self._den == 1 else Fraction(numerator, self._den)

    def coefficient(self, exponent: Sequence[int]) -> int | Fraction:
        """Coefficient at ``exponent``; 0 for any exponent not stored, including
        ones the constructor refuses (the wrong length, a coordinate that is
        negative, a bool or not an int) and ones over the cap."""
        try:
            exp = _check_exponent(exponent, self.nvars)
        except DomainError:
            return self._value(0)
        return self._value(self._terms.get(self._pack.key(exp), 0) if sum(exp) <= self.cap else 0)

    @property
    def constant_term(self) -> int | Fraction:
        return self._value(self._terms.get(0, 0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def exponents(self) -> list[Exponent]:
        return list(map(self._pack.exponent, sorted(self._terms)))

    def items(self) -> list[tuple[Exponent, int | Fraction]]:
        """Terms in canonical order."""
        terms, exponent, value = self._terms, self._pack.exponent, self._value
        return [(exponent(k), value(terms[k])) for k in sorted(terms)]

    def __iter__(self) -> Iterator[tuple[Exponent, int | Fraction]]:
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
        total = _Sum(self)
        total.add(other, sign)
        return Series._new(self.nvars, self.cap, total.terms, total.den)

    def __add__(self, other: "Series") -> "Series":
        return self._combine(other, 1) if isinstance(other, Series) else NotImplemented

    def __sub__(self, other: "Series") -> "Series":
        return self._combine(other, -1) if isinstance(other, Series) else NotImplemented

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def scale(self, coeff) -> "Series":
        c = _coefficient(coeff)
        if not c:
            return Series._new(self.nvars, self.cap, {}, 1)
        p = c.numerator
        return Series._new(self.nvars, self.cap, {k: p * n for k, n in self._terms.items()},
                           self._den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        a = sorted(self._terms.items())
        b = sorted(other._terms.items())
        # the terms a[i:j] of degree d meet the b terms of degree <= cap - d,
        # the prefix b[:room] in term order
        shift, cap = self._pack.shift, self.cap
        runs: list[tuple[int, int, int]] = []
        i, room, pairs = 0, len(b), 0
        while i < len(a):
            d = a[i][0] >> shift
            j = i + 1
            while j < len(a) and a[j][0] >> shift == d:
                j += 1
            while room and b[room - 1][0] >> shift > cap - d:
                room -= 1
            runs.append((i, j, room))
            pairs += (j - i) * room
            i = j
        if pairs > _PAIR_LIMIT:
            raise TermLimit(f"the product visits {pairs} term pairs, over the "
                            f"budget of {_PAIR_LIMIT}")
        out: dict[int, int] = {}
        get = out.get
        for i, j, room in runs:
            prefix = b[:room]
            for ka, ca in a[i:j]:
                for kb, cb in prefix:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        return Series._new(self.nvars, cap, {k: v for k, v in out.items() if v},
                           self._den * other._den)

    __rmul__ = __mul__

    # -- series functions ---------------------------------------------------

    def log1(self) -> "Series":
        """Logarithm of a series f with constant term 1, as E^-1(E f / f).

        E multiplies each term by its total degree, and E log f = E f / f,
        so the logarithm is one exact quotient whose coefficients are then
        divided by their degrees, over the lcm of the degrees that occur.
        """
        shift, cap = self._pack.shift, self.cap
        grown = Series._new(self.nvars, cap,
                            {k: n * (k >> shift) for k, n in self._terms.items() if k},
                            self._den)
        q = grown.divide(self)
        lcm = math.lcm(*{k >> shift for k in q._terms})
        return Series._new(self.nvars, cap,
                           {k: n * (lcm // (k >> shift)) for k, n in q._terms.items()},
                           q._den * lcm)

    def invert(self) -> "Series":
        """Multiplicative inverse of a series with constant term 1."""
        return Series.one(self.nvars, self.cap).divide(self)

    def divide(self, den: "Series") -> "Series":
        """Exact quotient ``self / den`` of a divisor with constant term 1; see
        the module doc."""
        self._check_compatible(den)
        nvars, cap, pack = self.nvars, self.cap, self._pack
        if den._terms.get(0) != den._den:  # key 0 is the zero exponent
            raise ConstantTermNotOne(
                f"constant term is {_number_text(den.constant_term)}, expected 1")
        u = sorted(item for item in den._terms.items() if item[0])
        if not u:
            return self
        shift = pack.shift
        unit_fields = reduce(or_, den._terms)  # a coordinate in use is nonzero here
        used = next(pack.supports((reduce(or_, self._terms, unit_fields),))).bit_count()
        bound = math.comb(cap + used, used)
        if bound > _DENSE_TERM_LIMIT:
            unit_vars = next(pack.supports((unit_fields,))).bit_count()
            bound = min(bound, _quotient_bound(cap, unit_vars, (k >> shift for k in self._terms)))
        if max(bound, cap + 1) > _DENSE_TERM_LIMIT:
            raise TermLimit(f"up to {bound} terms over {cap + 1} degrees exceed the "
                            f"budget of {_DENSE_TERM_LIMIT}")
        grade = den._den
        unit = [(k, c * grade ** ((k >> shift) - 1)) for k, c in u]  # x -> grade*x
        buckets: list[dict[int, int]] = [{} for _ in range(cap + 1)]
        for k, c in self._terms.items():
            buckets[k >> shift][k] = c * grade ** (k >> shift)
        groups: list[tuple[int, list[tuple[int, int]]]] = []  # unit terms by degree
        for k, c in unit:
            if not groups or groups[-1][0] != k >> shift:
                groups.append((k >> shift, []))
            groups[-1][1].append((k, c))
        out: dict[int, int] = {}
        for d, bucket in enumerate(buckets):
            # the slots a finished term of degree d scatters into, per unit degree
            plan = [(buckets[d + e], buckets[d + e].get, group)
                    for e, group in groups if d + e <= cap]
            for ka, v in bucket.items():
                if not v:
                    continue
                out[ka] = v
                for target, get, group in plan:
                    for kg, cg in group:
                        k = ka + kg
                        target[k] = get(k, 0) - v * cg
        qden = self._den
        if grade != 1 and out:  # bring every degree over grade**top
            top = max(out) >> shift
            powers = [grade ** (top - d) for d in range(top + 1)]
            qden *= powers[0]
            out = {k: v * powers[k >> shift] for k, v in out.items()}
        return Series._new(nvars, cap, out, qden)

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
        weights = _packing(len(parts), self.cap).weights
        pack = self._pack
        # packing is linear, so coordinate i moves to the weight of its class
        digits = [(pack.shifts[i - 1], weights[c]) for c, p in enumerate(parts) for i in p]
        mask = pack.mask
        out: dict[int, int] = {}
        for key, n in self._terms.items():
            folded = sum([((key >> s) & mask) * w for s, w in digits])
            acc = out.get(folded, 0) + n
            if acc:
                out[folded] = acc
            else:
                del out[folded]
        return Series._new(len(parts), self.cap, out, self._den)

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
