"""The package's public surface and its third-party footprint.

`__all__` is pinned name for name, so a name is added or removed on purpose;
the names the package dropped must stay gone; mpmath serves only the
root-isolation seeds and numpy only the eigenvalue cross-check; and no
module reads the environment, so output depends on arguments alone.
"""

import ast
import importlib
from pathlib import Path

import pytest

import cage_spectra

PACKAGE_DIR = Path(cage_spectra.__file__).resolve().parent

PUBLIC = [
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
    "RatInterval",
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

#: Names the package no longer has, with the module that held each.
REMOVED = {
    "DisconnectedGraphError": "errors",
    "DistanceMatrixSet": "graphs",
    "ExactRational": "polynomials",
    "MultiplicitySet": "feasibility",
    "all_distances": "graphs",
    "bd_entry00": "intersection",
    "distance_matrices": "graphs",
    "eval_rational": "polynomials",
    "is_bipartite": "graphs",
    "ld_entry00": "intersection",
    "poly_enclosure": "intervals",
    "transcendental_residual": "feasibility",
}

#: The one package module allowed to import each third-party library.
THIRD_PARTY = {"mpmath": "feasibility", "numpy": "graphs"}


def module_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}


def imported_roots(tree) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_all_is_pinned_and_resolves():
    assert PUBLIC == sorted(PUBLIC)
    assert cage_spectra.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(cage_spectra, name) is not None, name


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    assert not hasattr(cage_spectra, name)
    module = importlib.import_module(f"cage_spectra.{REMOVED[name]}")
    assert not hasattr(module, name)


def test_precision_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("cage_spectra.precision")


def test_third_party_imports_stay_in_their_module():
    users = {lib: [] for lib in THIRD_PARTY}
    for stem, tree in module_trees().items():
        for lib in imported_roots(tree) & set(THIRD_PARTY):
            users[lib].append(stem)
    assert users == {lib: [stem] for lib, stem in THIRD_PARTY.items()}


def test_no_module_reads_the_environment():
    for stem, tree in module_trees().items():
        assert "os" not in imported_roots(tree), stem
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            assert name not in ("environ", "getenv", "environb"), stem
