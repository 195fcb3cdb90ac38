"""The package's public surface and its third-party footprint.

`__all__` is pinned name for name, so a name is added or removed on purpose;
the names and modules the package dropped must stay gone; numpy is imported
by `graphs` and used only by the graph6 decoder and the row-to-array
conversion that fill a graph's neighbour arrays, the all-roots BFS on packed
words, the two readers of those words (the antipode counts and the packed
distance matrices) and the eigenvalue cross-check, and no module imports
mpmath (the tests' oracles use it); and no module reads the environment, so
output depends on arguments alone.
"""

import ast
import dataclasses
import importlib
import inspect
import re
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

#: Names the package no longer has, with the module that held each; no
#: module of the package binds them.  The float formulas the acceptance
#: suite compares the engine with (the trigonometric weight route, the
#: closed forms of H_{d-1}, the clique spectrum) live on in
#: `tests/oracles.py`.
REMOVED = {
    "DisconnectedGraphError": "errors",
    "DistanceMatrixSet": "graphs",
    "ENCLOSURE_WIDTH_LIMIT": "feasibility",
    "ExactRational": "polynomials",
    "MOMENT_TOLERANCE": "feasibility",
    "MomentCheck": "feasibility",
    "MultiplicitySet": "feasibility",
    "RatInterval": "intervals",
    "RegimeViolationError": "errors",
    "SymmetryReport": "feasibility",
    "add_diag": "_intmat",
    "adjacency_eval_poly": "_intmat",
    "adjacency_matmul": "_intmat",
    "_analysis_for": "graphs",
    "all_distances": "graphs",
    "antipodal_spectrum": "graphs",
    "_ascending": "feasibility",
    "bd_entry00": "intersection",
    "_derivative": "polynomials",
    "distance_matrices": "graphs",
    "eval_poly": "_intmat",
    "eval_rational": "polynomials",
    "eye": "_intmat",
    "f_weight": "feasibility",
    "_Family": "feasibility",
    "_family_member": "polynomials",
    "frobenius": "_intmat",
    "g_weight": "feasibility",
    "gap_check": "feasibility",
    "h_closed_form": "polynomials",
    "h_roots_closed_form": "polynomials",
    "_horner_newton": "feasibility",
    "is_bipartite": "graphs",
    "ld_entry00": "intersection",
    "mat_add": "_intmat",
    "max_abs": "_intmat",
    "_moment_check": "feasibility",
    "_monotone": "feasibility",
    "multiplicity_symmetry_checks": "feasibility",
    "multiplicity_trig": "feasibility",
    "pack_bitsets": "_intmat",
    "packed_eval_poly": "_intmat",
    "poly_enclosure": "intervals",
    "_sign_dyadic": "feasibility",
    "transcendental_residual": "feasibility",
    "verify_allones_identity": "graphs",
    "verify_path_count_identity": "graphs",
}

#: Modules the package no longer has.  The engine's exact arithmetic is
#: dyadic integers; `RatInterval` lives on as a test oracle.
REMOVED_MODULES = ("intervals", "precision")

#: Attributes and dataclass fields the package's classes dropped: the graph
#: owns its one analysis, and no n x n list of distance rows or adjacency
#: entries is built; graph6 decodes straight into the neighbour arrays; B_D is
#: read only through its Krylov rows; the families run their recurrence on
#: coefficient tuples, so `IntPolynomial` has no operator algebra; the
#: verdict rests on the gap and exact integrality alone, so a report carries
#: no float positivity, sum or moment check; a gap verdict exists only where
#: the argument applies, and the report alone holds the integrality
#: deviation; a root record keeps its exact bracket, and the angles are
#: computed for the report that prints them; a certificate holds exact data
#: only: a gap verdict is its interval, its closing chain is proved rather
#: than evaluated, and the report computes the analytic bound and the float
#: closed forms it prints; an assessment names no root, since the report's
#: assessments are aligned with its roots and a mirrored pair shares one; and
#: the eigenvalue cross-check has one tolerance, a constant.
REMOVED_ATTRIBUTES = {
    ("feasibility", "FeasibilityReport"): ("all_positive", "moment_check", "sum_ok", "sum_value"),
    ("feasibility", "GapVerdict"): (
        "analytic_bound", "applicable", "chain_ok", "chain_values", "d", "e", "k", "reason",
    ),
    ("feasibility", "MultiplicityAssessment"): ("closed_form", "deviation", "nearest", "record"),
    ("feasibility", "RootRecord"): ("alpha", "phi"),
    ("graphs", "CrosscheckReport"): ("tolerance",),
    ("graphs", "Graph"): ("adjacency_matrix", "_from_pairs"),
    ("graphs", "GraphAnalysis"): ("distances", "graph", "verdict"),
    ("intersection", "IntersectionMatrix"): ("rows",),
    ("polynomials", "IntPolynomial"): (
        "__add__", "__neg__", "__sub__", "__mul__", "__rmul__", "shift_up",
    ),
}

#: Public names no package module calls, each with the paper lemma it checks
#: exactly.  Every other public name is read by the package itself.
LEMMA_CHECKS = {
    "minimal_polynomial_check": "(x^2 - k^2) H_{D-1}(x) is the minimal polynomial of B_D",
    "trace_identity_check": "tr(A^q) = n (B_d^q)_{0,0} for q < 2d on a graph of girth 2d",
}

#: The package functions allowed to use each third-party library, as
#: "module.function": the one module imports it and only those functions use
#: it.  numpy carries a graph's neighbour arrays (decoded from graph6, or
#: converted from checked rows), the all-roots BFS on packed words (3-4x
#: faster than Python-int bitsets on the screening candidates), the two
#: functions that read those words, and the eigenvalue cross-check.
THIRD_PARTY = {
    "numpy": (
        "graphs.parse_graph6",
        "graphs._neighbour_arrays",
        "graphs._all_roots_bfs",
        "graphs.level_sizes",
        "graphs.distance_matrix",
        "graphs.spectral_crosscheck",
    ),
}


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


def imported_bindings(tree, lib) -> set[str]:
    """The names a module binds by importing ``lib`` or names from it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or lib for alias in node.names
                         if alias.name.split(".")[0] == lib)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == lib):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


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
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    for attr in REMOVED_ATTRIBUTES[owner]:
        assert not hasattr(cls, attr), attr
        assert attr not in fields, attr


#: The one float a certificate record may hold: the bracket midpoint every
#: format prints as a root.
FLOAT_FIELDS = {("RootRecord", "theta")}


@pytest.mark.parametrize("cls", [
    cage_spectra.RootRecord, cage_spectra.MultiplicityAssessment, cage_spectra.GapVerdict,
])
def test_certificates_hold_exact_data_only(cls):
    """No field of a certificate record is annotated with ``float``, but
    `RootRecord.theta`; the report derives every other float it prints."""
    floats = {(cls.__name__, f.name) for f in dataclasses.fields(cls)
              if re.search(r"\bfloat\b", str(f.type))}
    assert floats <= FLOAT_FIELDS


def test_no_public_function_takes_an_analysis():
    """Every check reads `Graph.analysis`; no caller passes one in."""
    functions = [obj for obj in map(vars(cage_spectra).get, PUBLIC) if inspect.isfunction(obj)]
    assert {f.__name__ for f in functions} >= {
        "structural_check", "verify_identities", "spectral_crosscheck",
    }
    for function in functions:
        assert "analysis" not in inspect.signature(function).parameters, function.__name__
    assert not hasattr(importlib.import_module("cage_spectra.cli"), "GraphAnalysis")


def test_int_polynomial_has_no_str_of_its_own():
    """`hasattr` is always true for ``__str__``, so the class dict is read."""
    assert "__str__" not in vars(cage_spectra.IntPolynomial)


def defined_names(statement) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def package_references() -> set[str]:
    """Every name a package module other than `__init__` reads, bare or as
    an attribute, outside the top-level statement that defines it.  An
    import alone is no reference."""
    names = set()
    for stem, tree in module_trees().items():
        if stem == "__init__":
            continue
        for statement in tree.body:
            own = defined_names(statement)
            for node in ast.walk(statement):
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name not in own:
                    names.add(name)
    return names


def test_every_public_name_is_used_by_the_package_or_checks_a_lemma():
    """A public name only the tests call is a test oracle: it belongs in
    `tests/oracles.py`, unless it is one of the paper's lemma checks."""
    public = cage_spectra.__all__
    assert set(LEMMA_CHECKS) <= set(public)
    used = package_references()
    assert [name for name in public if name not in used and name not in LEMMA_CHECKS] == []
    assert [name for name in LEMMA_CHECKS if name in used] == []


@pytest.mark.parametrize("stem", REMOVED_MODULES)
def test_module_is_gone(stem):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"cage_spectra.{stem}")


def test_third_party_imports_stay_in_their_module():
    """Every import outside the standard library is listed in THIRD_PARTY
    and made by its one module, so an mpmath import anywhere fails; every
    reference to the imported binding sits inside one of the listed
    functions, and each listed function makes one."""
    trees = module_trees()
    users = {}
    for stem, tree in trees.items():
        for lib in imported_roots(tree) - sys.stdlib_module_names - {"__future__"}:
            users.setdefault(lib, []).append(stem)
    assert users == {lib: sorted({owner.split(".")[0] for owner in owners})
                     for lib, owners in THIRD_PARTY.items()}
    for lib, owners in THIRD_PARTY.items():
        [stem] = {owner.split(".")[0] for owner in owners}
        tree = trees[stem]
        bindings = imported_bindings(tree, lib)
        assert bindings, lib
        uses = [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in bindings]
        inside = set()
        for owner in owners:
            [body] = [node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name == owner.split(".")[1]]
            own = {id(node) for node in ast.walk(body)}
            assert any(id(node) in own for node in uses), owner
            inside |= own
        assert all(id(node) in inside for node in uses), sorted(
            node.lineno for node in uses if id(node) not in inside)


def test_feasibility_imports_nothing_from_intersection():
    """The verdict reads no walk count: the moment identity is proved in the
    tests, so the engine imports nothing from `intersection`."""
    for node in ast.walk(module_trees()["feasibility"]):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("intersection" in name.split(".") for name in names), node.lineno


def test_no_module_reads_the_environment():
    for stem, tree in module_trees().items():
        assert "os" not in imported_roots(tree), stem
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            assert name not in ("environ", "getenv", "environb"), stem
