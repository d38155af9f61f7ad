"""Exception types raised across the package.

Every contract violation raises a subclass of :class:`DomainError`, so
callers (notably the CLI) can distinguish bad domain input from malformed
JSON (:class:`SchemaError`).
"""

import math


def _number_text(value) -> str:
    """``str`` of an int or a Fraction for a message, or, past the
    interpreter's limit on digits, a note of its size instead."""
    try:
        return str(value)
    except ValueError:
        bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
        return f"<a number of about {math.ceil(bits * math.log10(2))} digits>"


class DomainError(ValueError):
    """An input breaks a documented precondition or invariant."""


class SchemaError(ValueError):
    """Malformed JSON input; ``pointer`` locates the offending element."""

    def __init__(self, pointer: str, reason: str):
        super().__init__(f"{pointer}: {reason}")
        self.pointer = pointer
        self.reason = reason


# -- Cartan matrix validation -------------------------------------------------

class DiagonalNotTwo(DomainError):
    """A diagonal entry differs from 2."""


class PositiveOffDiagonal(DomainError):
    """An off-diagonal entry is positive."""


class ZeroPatternAsymmetric(DomainError):
    """Entry (i,j) vanishes while (j,i) does not."""


class NotSymmetrizable(DomainError):
    """No positive diagonal rescaling makes the matrix symmetric."""


# -- Series arithmetic ---------------------------------------------------------

class CapMismatch(DomainError):
    """Operands carry different truncation caps."""


class ConstantTermNotOne(DomainError):
    """log and inverse need a series, and division a divisor, with constant term 1."""


class TermLimit(DomainError):
    """A dense log, inverse, quotient or Weyl orbit would exceed the term budget."""


# -- Weyl orbit enumeration ----------------------------------------------------

class NegativeIntegrability(DomainError):
    """A pairing value on the integrable node set is negative."""


# -- Characters and multiplicities ----------------------------------------------

class NonIntegralCharacter(DomainError):
    """A character coefficient is not a nonnegative integer (internal bug)."""


class NonIntegralMultiplicity(DomainError):
    """An extracted root multiplicity is not a nonnegative integer."""


# -- Folding -------------------------------------------------------------------

class NotCompatible(DomainError):
    """The permutation does not preserve the Cartan matrix."""


class NoTransversal(DomainError):
    """Greedy transversal search exhausted its options."""


class NotClassUnion(DomainError):
    """The node set is not a union of partition classes."""


class NoLift(DomainError):
    """No connected subset meets every class of the node set."""


class NotSymmetric(DomainError):
    """Pairing values differ within an equivalence class."""


class NotEquiconnected(DomainError):
    """No lift minimizes all per-class counts simultaneously."""


class SizeLimit(DomainError):
    """A node set exceeds an exhaustive enumeration's cap: 16 nodes for
    lifts, 12 for the leading-coefficient closed form."""


# -- Factorization -------------------------------------------------------------

class NegativeLeadingCoefficient(DomainError):
    """A peeled candidate has nonpositive coefficient; the input is not a
    sum of log-numerators over connected indices."""


class DisconnectedCandidateSupport(DomainError):
    """A peeled candidate exponent has disconnected support."""


class NonzeroResidual(DomainError):
    """A peel candidate's coefficient is no whole multiple of its factor's
    marker coefficient, or a peeled candidate came back."""


class NotEquiconnectedCandidate(DomainError):
    """A folded candidate's class union is not connected and equiconnected."""


class DivisibilityFailure(DomainError):
    """A folded candidate coordinate is not a positive multiple of the
    lean-lift class count."""


class TooManyFactors(DomainError):
    """Recovery produced more connected factors than the declared count."""


class LengthMismatch(DomainError):
    """Multiset comparison requires lists of equal length."""


class CapTooSmall(DomainError):
    """A requested factor's marker exponent exceeds the truncation cap."""
