"""Truncated characters of parabolic Verma modules over symmetrizable
Kac-Moody algebras, and constructive unique factorization of their products,
plain and folded under diagram symmetries.

Everything is exact: series coefficients are rationals, node sets are
validated, and all results are deterministic.

Submodules are executed on first use.  ``import kmfactor`` puts each of them
in ``sys.modules`` as a lazy module, bound as a package attribute, and runs
none of them; reading an attribute of one runs it.  A public name of the
package is read from its submodule on first access and kept here.
"""

# Each public name and the submodule that defines it.
_ORIGIN = {name: module for module, names in (
    ("cartan", ("CartanMatrix", "connected_components", "is_connected", "validate_gcm")),
    ("errors", ("DomainError", "SchemaError")),
    ("factorizer", ("FactorizationResult", "peel_folded", "peel_log_sum",
                    "recover_from_character_product", "verify_equivalence")),
    ("folding", ("DiagramAutomorphism", "FoldContext", "Partition", "check_automorphism",
                 "connected_transversal", "orbit_partition")),
    ("numerators", ("CharacterValue", "character", "leading_coefficient_closed_form",
                    "log_numerator", "marker_exponent", "root_multiplicities")),
    ("series", ("Series", "degree", "support")),
    ("weyl", ("OrbitTerm", "PVIndex", "normalized_numerator", "orbit_terms")),
) for name in names}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule ``name``, registered and not yet executed."""
    # imported here, so that the package namespace holds no helper names
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# bound here, so that ``from . import x`` finds the module without running it
globals().update((module, _lazy(module)) for module in dict.fromkeys(_ORIGIN.values()))


def __getattr__(name: str):
    """A public name, read from its submodule once and kept in the package."""
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
