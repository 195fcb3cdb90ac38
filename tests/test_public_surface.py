"""The package's public surface and its third-party footprint.

`__all__` is pinned name for name, so a name is added or removed on purpose;
the names and modules the package dropped must stay gone; numpy is imported
by `graphs` alone (the graph6 decoder and the eigenvalue cross-check) and no
module imports mpmath (the tests' oracles use it); and no module reads the
environment, so output depends on arguments alone.
"""

import ast
import importlib
import inspect
import sys
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

#: Names the package no longer has, with the module that held each; no
#: module of the package binds them.
REMOVED = {
    "DisconnectedGraphError": "errors",
    "DistanceMatrixSet": "graphs",
    "ExactRational": "polynomials",
    "MultiplicitySet": "feasibility",
    "RatInterval": "intervals",
    "adjacency_eval_poly": "_intmat",
    "adjacency_matmul": "_intmat",
    "_analysis_for": "graphs",
    "all_distances": "graphs",
    "bd_entry00": "intersection",
    "distance_matrices": "graphs",
    "eval_rational": "polynomials",
    "eye": "_intmat",
    "frobenius": "_intmat",
    "is_bipartite": "graphs",
    "ld_entry00": "intersection",
    "mat_add": "_intmat",
    "poly_enclosure": "intervals",
    "transcendental_residual": "feasibility",
}

#: Modules the package no longer has.  The engine's exact arithmetic is
#: dyadic integers; `RatInterval` lives on as a test oracle.
REMOVED_MODULES = ("intervals", "precision")

#: Attributes the package's classes dropped: the graph owns its one analysis,
#: and no n x n list of distance rows or adjacency entries is built.
REMOVED_ATTRIBUTES = {
    ("graphs", "Graph"): ("adjacency_matrix",),
    ("graphs", "GraphAnalysis"): ("distances", "graph", "verdict"),
}

#: The one package module allowed to import each third-party library.
THIRD_PARTY = {"numpy": "graphs"}


def module_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}


def package_modules():
    return [importlib.import_module(f"cage_spectra.{path.stem}")
            for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "__init__"]


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
    for module in package_modules():
        assert not hasattr(module, name), module.__name__


@pytest.mark.parametrize("owner", sorted(REMOVED_ATTRIBUTES))
def test_removed_attributes_are_gone(owner):
    cls = getattr(importlib.import_module(f"cage_spectra.{owner[0]}"), owner[1])
    for attr in REMOVED_ATTRIBUTES[owner]:
        assert not hasattr(cls, attr), attr


def test_no_public_function_takes_an_analysis():
    """Every check reads `Graph.analysis`; no caller passes one in."""
    functions = [obj for obj in map(vars(cage_spectra).get, PUBLIC) if inspect.isfunction(obj)]
    assert {f.__name__ for f in functions} >= {
        "structural_check", "verify_path_count_identity", "verify_allones_identity",
        "spectral_crosscheck",
    }
    for function in functions:
        assert "analysis" not in inspect.signature(function).parameters, function.__name__
    assert not hasattr(importlib.import_module("cage_spectra.cli"), "GraphAnalysis")


@pytest.mark.parametrize("stem", REMOVED_MODULES)
def test_module_is_gone(stem):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"cage_spectra.{stem}")


def test_third_party_imports_stay_in_their_module():
    """Every import outside the standard library is listed in THIRD_PARTY
    and made by its one module, so an mpmath import anywhere fails."""
    users = {}
    for stem, tree in module_trees().items():
        for lib in imported_roots(tree) - sys.stdlib_module_names - {"__future__"}:
            users.setdefault(lib, []).append(stem)
    assert users == {lib: [stem] for lib, stem in THIRD_PARTY.items()}


def test_no_module_reads_the_environment():
    for stem, tree in module_trees().items():
        assert "os" not in imported_roots(tree), stem
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            assert name not in ("environ", "getenv", "environb"), stem
