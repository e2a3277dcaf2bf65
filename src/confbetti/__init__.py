"""Rational Betti numbers of unordered configuration spaces of manifolds.

Each exported name loads its submodule on first use (PEP 562), so importing
one submodule, such as `confbetti.cli`, loads only what that submodule needs.
"""
from importlib import import_module

# submodule -> the names it exports; the submodules themselves are not part of the API
_EXPORTS = {
    "basis": ("Monomial", "format_monomial", "monomial_bigrade"),
    "differential": (
        "AlgebraElement", "algebra_element", "assemble_matrix", "d_generator", "d_monomial",
        "enumerate_basis",
    ),
    "engine": (
        "BettiEngine", "BettiTable", "InternalConsistencyError", "betti_number",
        "betti_odd_closed", "betti_table", "engine_for", "stable_betti", "vanishing_bound",
    ),
    "linalg": ("RankProfile", "RationalMatrix", "rank_profile_exact"),
    "oracles": (
        "CheckResult", "OracleReport", "check_d_squared", "check_euler",
        "check_reduction_equivalence", "check_theorems", "run_all",
    ),
    "rings": (
        "BasisClass", "GradedRing", "RingElement", "RingError", "RingFormatError",
        "RingValidationError", "dual_basis", "element", "euler_characteristic", "parse_ring",
        "ring_cp", "ring_product", "ring_projective_bundle_cp2", "ring_sphere", "ring_surface",
        "serialize_ring", "validate_ring",
    ),
    "spaces": ("REGISTRY", "resolve_space"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = tuple(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
