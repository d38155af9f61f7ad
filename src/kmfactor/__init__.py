"""Truncated characters of parabolic Verma modules over symmetrizable
Kac-Moody algebras, and constructive unique factorization of their products,
plain and folded under diagram symmetries.

Everything is exact: series coefficients are rationals, node sets are
validated, and all results are deterministic.
"""

from .cartan import CartanMatrix, connected_components, is_connected, validate_gcm
from .errors import DomainError, SchemaError
from .factorizer import (
    FactorizationResult,
    peel_folded,
    peel_log_sum,
    recover_from_character_product,
    verify_equivalence,
)
from .folding import (
    DiagramAutomorphism,
    FoldContext,
    Partition,
    check_automorphism,
    connected_transversal,
    orbit_partition,
)
from .numerators import (
    CharacterValue,
    character,
    leading_coefficient_closed_form,
    log_numerator,
    marker_exponent,
    root_multiplicities,
)
from .series import Series, degree, support
from .weyl import OrbitTerm, PVIndex, normalized_numerator, orbit_terms

__version__ = "0.1.0"
