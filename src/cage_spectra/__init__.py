"""Spectral feasibility toolkit for k-regular graphs of even girth 2d and
small excess e over the Moore bound.

The package provides exact integer polynomial families on a three-term
recurrence, graph structural checks with exact matrix-identity verifiers, the
tridiagonal intersection-matrix moment oracle, and a certified feasibility
engine: certified dyadic root brackets, closed-form eigenvalue
multiplicities (the trigonometric weight form is exported alongside; the
engine does not evaluate it), integrality certificates computed exactly in
integers over each bracket's power of two, and the product-gap
nonexistence test for girth >= 14.
"""

from .errors import (
    BracketSeedError,
    CageSpectraError,
    DegreeRangeError,
    EvenHalfGirthError,
    ExcessRangeError,
    Graph6ParseError,
    IllConditionedError,
    OddExcessError,
    ParameterDomainError,
    RegimeViolationError,
    StructuralRefusal,
)
from .feasibility import (
    FeasibilityReport,
    GapVerdict,
    MultiplicityAssessment,
    RootRecord,
    SkippedTriple,
    SymmetryReport,
    VERDICT_ADMISSIBLE,
    VERDICT_GAP,
    VERDICT_INTEGRALITY,
    VERDICT_OUTSIDE,
    f_weight,
    g_weight,
    gap_check,
    isolate_roots,
    multiplicity_closed_form,
    multiplicity_symmetry_checks,
    multiplicity_trig,
    scan,
    spectral_feasibility,
    validate_parameters,
)
from .graphs import (
    CrosscheckReport,
    Graph,
    IdentityCheck,
    StructuralVerdict,
    antipodal_spectrum,
    catalog,
    catalog_entry,
    catalog_names,
    girth,
    moore_bound,
    parse_graph6,
    spectral_crosscheck,
    structural_check,
    verify_allones_identity,
    verify_path_count_identity,
)
from .intersection import (
    IntersectionMatrix,
    build_bd,
    minimal_polynomial_check,
    trace_identity_check,
)
from .polynomials import (
    IntPolynomial,
    derivative,
    dickson_family,
    h_closed_form,
    h_roots_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "BracketSeedError",
    "CageSpectraError",
    "CrosscheckReport",
    "DegreeRangeError",
    "EvenHalfGirthError",
    "ExcessRangeError",
    "FeasibilityReport",
    "GapVerdict",
    "Graph",
    "Graph6ParseError",
    "IdentityCheck",
    "IllConditionedError",
    "IntPolynomial",
    "IntersectionMatrix",
    "MultiplicityAssessment",
    "OddExcessError",
    "ParameterDomainError",
    "RegimeViolationError",
    "RootRecord",
    "SkippedTriple",
    "StructuralRefusal",
    "StructuralVerdict",
    "SymmetryReport",
    "VERDICT_ADMISSIBLE",
    "VERDICT_GAP",
    "VERDICT_INTEGRALITY",
    "VERDICT_OUTSIDE",
    "antipodal_spectrum",
    "build_bd",
    "catalog",
    "catalog_entry",
    "catalog_names",
    "derivative",
    "dickson_family",
    "f_weight",
    "g_weight",
    "gap_check",
    "girth",
    "h_closed_form",
    "h_roots_closed_form",
    "isolate_roots",
    "minimal_polynomial_check",
    "moore_bound",
    "multiplicity_closed_form",
    "multiplicity_symmetry_checks",
    "multiplicity_trig",
    "parse_graph6",
    "scan",
    "spectral_crosscheck",
    "spectral_feasibility",
    "structural_check",
    "trace_identity_check",
    "validate_parameters",
    "verify_allones_identity",
    "verify_path_count_identity",
]
