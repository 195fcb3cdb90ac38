"""Spectral feasibility toolkit for k-regular graphs of even girth 2d and
small excess e over the Moore bound.

The package provides exact integer polynomial families on a three-term
recurrence, graph structural checks with exact matrix-identity verifiers, the
paper's walk-count and minimal-polynomial lemmas on the tridiagonal
intersection matrix, and a certified feasibility engine: certified dyadic
root brackets, closed-form eigenvalue multiplicities, integrality
certificates computed exactly in integers over each bracket's power of two,
and the product-gap nonexistence test for girth >= 14.  The verdict rests on
the gap and exact integrality alone.
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
    StructuralRefusal,
)
from .feasibility import (
    FeasibilityReport,
    GapVerdict,
    MultiplicityAssessment,
    RootRecord,
    SkippedTriple,
    VERDICT_ADMISSIBLE,
    VERDICT_GAP,
    VERDICT_INTEGRALITY,
    VERDICT_OUTSIDE,
    isolate_roots,
    multiplicity_closed_form,
    scan,
    spectral_feasibility,
    validate_parameters,
)
from .graphs import (
    CrosscheckReport,
    Graph,
    IdentityCheck,
    StructuralVerdict,
    catalog,
    catalog_entry,
    catalog_names,
    girth,
    moore_bound,
    parse_graph6,
    spectral_crosscheck,
    structural_check,
    verify_identities,
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
    "RootRecord",
    "SkippedTriple",
    "StructuralRefusal",
    "StructuralVerdict",
    "VERDICT_ADMISSIBLE",
    "VERDICT_GAP",
    "VERDICT_INTEGRALITY",
    "VERDICT_OUTSIDE",
    "build_bd",
    "catalog",
    "catalog_entry",
    "catalog_names",
    "derivative",
    "dickson_family",
    "girth",
    "isolate_roots",
    "minimal_polynomial_check",
    "moore_bound",
    "multiplicity_closed_form",
    "parse_graph6",
    "scan",
    "spectral_crosscheck",
    "spectral_feasibility",
    "structural_check",
    "trace_identity_check",
    "validate_parameters",
    "verify_identities",
]
