"""Rational Betti numbers of unordered configuration spaces of manifolds."""
from .basis import Monomial, format_monomial, monomial_bigrade
from .differential import (
    AlgebraElement,
    algebra_element,
    assemble_matrix,
    d_generator,
    d_monomial,
    enumerate_basis,
)
from .engine import (
    BettiEngine,
    BettiTable,
    InternalConsistencyError,
    betti_number,
    betti_odd_closed,
    betti_table,
    engine_for,
    stable_betti,
    vanishing_bound,
)
from .linalg import RankProfile, RationalMatrix, rank_profile_exact
from .oracles import (
    CheckResult,
    OracleReport,
    check_d_squared,
    check_euler,
    check_reduction_equivalence,
    check_theorems,
    run_all,
)
from .rings import (
    BasisClass,
    GradedRing,
    RingElement,
    RingError,
    RingFormatError,
    RingValidationError,
    dual_basis,
    element,
    euler_characteristic,
    parse_ring,
    ring_cp,
    ring_product,
    ring_projective_bundle_cp2,
    ring_sphere,
    ring_surface,
    serialize_ring,
    validate_ring,
)
from .spaces import REGISTRY, resolve_space

__all__ = (  # the imported names; the submodules are not part of the API
    "Monomial", "format_monomial", "monomial_bigrade",
    "AlgebraElement", "algebra_element", "assemble_matrix", "d_generator", "d_monomial",
    "enumerate_basis",
    "BettiEngine", "BettiTable", "InternalConsistencyError", "betti_number",
    "betti_odd_closed", "betti_table", "engine_for", "stable_betti", "vanishing_bound",
    "RankProfile", "RationalMatrix", "rank_profile_exact",
    "CheckResult", "OracleReport", "check_d_squared", "check_euler",
    "check_reduction_equivalence", "check_theorems", "run_all",
    "BasisClass", "GradedRing", "RingElement", "RingError", "RingFormatError",
    "RingValidationError", "dual_basis", "element", "euler_characteristic", "parse_ring",
    "ring_cp", "ring_product", "ring_projective_bundle_cp2", "ring_sphere", "ring_surface",
    "serialize_ring", "validate_ring",
    "REGISTRY", "resolve_space",
)
__version__ = "0.1.0"
