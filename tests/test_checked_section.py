"""The checked section of `feasibility`: the functions at the top of the
module that hold every exact fact a verdict reads.

Each check is called directly on plain integers, taken from a real
isolation and then mutated: the bracket rule refuses a bracket that no
longer straddles its root, and the family check refuses overlapping seeds, a
bracket outside its seed, a root's bracket at another index and the other
family's brackets, each with its named error; the refinement check refuses a
refined bracket outside its isolation bracket.  An AST pin keeps the section
small, free of floats, and calling nothing but itself, the errors, exact
number types and its declared inputs; a second pin keeps every isolation
refusal and every exact sign inside it.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from cage_spectra import BracketSeedError, errors, feasibility, isolate_roots
from cage_spectra.feasibility import (
    _bisect,
    _bracket,
    _check_family,
    _family,
    _inside,
    _refined_enclosure,
)

ROOT = Path(__file__).resolve().parents[1]

#: The section's functions and classes, in source order.
SECTION = (
    "validate_parameters", "_sign_even", "_bracket", "_inside", "_check_family",
    "_case_end_error", "_dyadic_square", "_dyadic_enclosure", "_multiplicity_enclosure",
    "_integers_in", "_decisive", "_refined_enclosure", "GapVerdict", "_gap",
)

#: What the section may call besides itself: the errors, the exact number
#: types, `math.ceil`, its declared inputs, and builtins that compute on
#: plain integers and tuples.
INPUTS = {"_polys", "_family", "moore_bound", "_root_name"}
NUMBERS = {"Fraction", "Decimal"}
BUILTINS = {"max", "min", "next", "range", "reversed"}


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def section_source() -> str:
    """The section's text: from its header comment to the next section's."""
    lines = inspect.getsource(feasibility).split("\n")
    start = lines.index("# the checked section: every exact fact a verdict reads, and nothing else.")
    end = lines.index("# root isolation: proposes only")
    return "\n".join(lines[start:end])


def section_nodes():
    return [
        node for node in ast.parse(section_source()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def calls_in(node):
    """Every call in ``node``'s body, its decorators left out."""
    for statement in node.body:
        for call in ast.walk(statement):
            if isinstance(call, ast.Call):
                yield call


# ---------------------------------------------------------------------------
# the AST pin

def test_the_section_holds_exactly_its_functions_in_order():
    assert tuple(node.name for node in section_nodes()) == SECTION


def test_the_section_is_small():
    assert load_code_lines()(section_source()) <= 150


def test_the_section_holds_no_float():
    for node in section_nodes():
        for sub in ast.walk(node):
            assert not (isinstance(sub, ast.Constant) and isinstance(sub.value, float)), node.name
            assert not (isinstance(sub, ast.Name) and sub.id == "float"), node.name


def test_the_section_calls_only_itself_the_errors_and_its_inputs():
    error_names = {name for name, value in vars(errors).items() if isinstance(value, type)}
    allowed = set(SECTION) | error_names | NUMBERS | INPUTS | BUILTINS
    for node in section_nodes():
        for call in calls_in(node):
            func = call.func
            if isinstance(func, ast.Name):
                assert func.id in allowed, (node.name, func.id)
            else:
                assert isinstance(func, ast.Attribute), (node.name, ast.dump(func))
                name = ast.unparse(func)
                # math.ceil, or the list a check collects its brackets in
                assert name == "math.ceil" or name.endswith(".append"), (node.name, name)


def test_only_the_section_refuses_a_bracket_or_takes_an_exact_sign():
    """Every BracketSeedError is raised in the section, and no function
    outside it calls `_sign_even`: the bracket rule takes every sign."""
    inside = set(SECTION)
    tree = ast.parse(inspect.getsource(feasibility))
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in inside:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise) and sub.exc is not None:
                assert "BracketSeedError" not in ast.unparse(sub.exc), node.name
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                assert sub.func.id != "_sign_even", node.name


# ---------------------------------------------------------------------------
# the bracket rule


def test_the_bracket_rule_certifies_a_root_a_zero_end_or_nothing():
    """For (4, 3, 2) and epsilon = 1, P = H_2 - 1 = x^2 - 4 has the roots
    -2 and 2, both dyadic."""
    q = _family(4, 3, 1)
    assert q == (-4, 1)
    assert _bracket(q, -5, -3, 1) == (-5, -3, 1)      # (-2.5, -1.5) straddles -2
    assert _bracket(q, -4, 0, 1) == (-4, -4, 1)       # a zero low end is the point
    assert _bracket(q, -5, -4, 1) == (-4, -4, 1)      # a zero high end is the point
    assert _bracket(q, -3, -1, 1) is None             # shifted past the root: one sign
    assert _bracket(q, -3, 3, 1) is None              # both roots inside: one sign at both ends


def test_a_shifted_bracket_end_no_longer_straddles_the_root():
    for record in isolate_roots(16, 7, 2, 1):
        lo, hi, shift = record.bracket
        q = _family(16, 7, 1)
        assert _bracket(q, lo, hi, shift) == record.bracket
        width = hi - lo
        assert _bracket(q, hi, hi + width, shift) is None    # the low end moved past the root
        assert _bracket(q, lo - width, lo, shift) is None    # the high end moved below it


def test_every_bracket_bisect_returns_is_the_rules(monkeypatch):
    """On the Newton cell, on a bracket already below the target width, and
    through the halving loop when the prediction is garbage, the bracket
    `_bisect` returns is the very tuple `_bracket` returned."""
    made = []

    def rule(*args):
        made.append(_bracket(*args))
        return made[-1]

    monkeypatch.setattr(feasibility, "_bracket", rule)
    q = _family(9, 11, -2)
    seeds = [record.bracket for record in isolate_roots(9, 11, 4, -2)]
    for lo, hi, shift in seeds:
        for bits in (20, 60, 124):
            got = _bisect(q, lo, hi, shift, bits)
            assert any(got is bracket for bracket in made)
    monkeypatch.setattr(feasibility, "_predict_cell", lambda *args: None)
    for lo, hi, shift in seeds:
        got = _bisect(q, lo, hi, shift, 124)
        assert got[0] < got[1] and any(got is bracket for bracket in made)


# ---------------------------------------------------------------------------
# the family check


def family_input(k, d, e, epsilon, monkeypatch):
    """The (root, seeds, brackets) one isolation hands the family check,
    with every bracket drawn."""
    seen = []
    real = feasibility._check_family

    def record(root, seeds, brackets):
        seen.append((root, list(seeds), list(brackets)))
        return real(*seen[-1][:2], iter(seen[-1][2]))

    with monkeypatch.context() as patch:
        patch.setattr(feasibility, "_ROOTS", {})
        patch.setattr(feasibility, "_check_family", record)
        isolate_roots(k, d, e, epsilon)
    (got,) = seen
    return got


def refused(root, seeds, brackets, message):
    with pytest.raises(BracketSeedError, match=message):
        _check_family(root, seeds, iter(brackets))


NAME = r"\(k=16, d=7, e=2, eps=1, i={}\)"


def test_the_family_check_returns_the_isolation(monkeypatch):
    root, seeds, brackets = family_input(16, 7, 2, 1, monkeypatch)
    assert root == (16, 7, 2, 1) and len(seeds) == len(brackets) == 3
    assert _check_family(root, seeds, iter(brackets)) == [
        record.bracket for record in isolate_roots(16, 7, 2, 1)
    ]


def test_overlapping_seeds_are_refused(monkeypatch):
    root, seeds, brackets = family_input(16, 7, 2, 1, monkeypatch)
    i, error, span, _ = seeds[1]
    seeds[1] = i, error, span, seeds[0][3]  # seed 2 on seed 1
    refused(root, seeds, brackets, NAME.format(2) + " overlaps the seed of root i - 1")


def test_a_bracket_outside_its_seed_is_refused(monkeypatch):
    root, seeds, brackets = family_input(16, 7, 2, 1, monkeypatch)
    lo, hi, shift = brackets[0]
    _, seed_hi, seed_shift = seeds[0][3]
    past = (seed_hi << (shift - seed_shift)) + 1  # one ulp past the seed's high end
    for wrong in ((-hi, -lo, shift), (lo, past, shift), (lo >> 1, hi >> 1, seed_shift - 1)):
        refused(root, seeds, [wrong] + brackets[1:], NAME.format(1) + " leaves its seed")


def test_a_bracket_at_another_index_is_refused(monkeypatch):
    root, seeds, brackets = family_input(16, 7, 2, 1, monkeypatch)
    swapped = [brackets[1], brackets[0], brackets[2]]
    refused(root, seeds, swapped, NAME.format(1) + " leaves its seed")
    refused(root, seeds, brackets[:1] + brackets[2:] + brackets[1:2], NAME.format(2) + " leaves its seed")


def test_the_other_familys_brackets_are_refused(monkeypatch):
    """Root i of the -e/2 family lies on the other side of -2s cos(i pi/d),
    in the other case interval, so outside this family's seed."""
    root, seeds, _ = family_input(16, 7, 2, 1, monkeypatch)
    _, _, other = family_input(16, 7, 2, -1, monkeypatch)
    refused(root, seeds, other, NAME.format(1) + " leaves its seed")


def test_a_bracket_the_rule_refused_is_refused(monkeypatch):
    root, seeds, brackets = family_input(16, 7, 2, 1, monkeypatch)
    refused(root, seeds, [brackets[0], None, brackets[2]],
            r"seed interval for \(k=16, d=7, e=2, eps=1, i=2\) does not bracket a sign change")


def test_a_seed_not_certified_or_reaching_0_is_refused_before_its_bracket(monkeypatch):
    """A seed whose shrink does not exceed its error bound is refused before
    its bracket is drawn; a last seed that reaches 0 after every bracket."""
    root, seeds, brackets = family_input(16, 7, 2, 1, monkeypatch)
    i, error, span, seed = seeds[0]

    def never():
        raise AssertionError("a refused seed's bracket was drawn")
        yield

    with pytest.raises(BracketSeedError, match=NAME.format(1) + " is not certified inside"):
        _check_family(root, [(i, span >> 29, span, seed)] + seeds[1:], never())
    i, error, span, (lo, _, shift) = seeds[-1]
    refused(root, seeds[:-1] + [(i, error, span, (lo, 0, shift))], brackets,
            NAME.format(3) + " reaches 0, where its mirror's seed starts")


def test_containment_compares_at_the_finer_shift():
    assert _inside((4, 6, 3), (1, 2, 1))
    assert _inside((4, 4, 2), (1, 1, 0))
    assert not _inside((3, 6, 3), (1, 2, 1))
    assert not _inside((1, 2, 1), (4, 6, 3))   # coarser than the outer bracket


# ---------------------------------------------------------------------------
# the refinement check


def test_a_refined_bracket_outside_its_isolation_bracket_is_refused():
    k, d, e = 5, 5, 2
    record = isolate_roots(k, d, e, 1)[0]
    lo, hi, shift = record.bracket
    root = (k, d, e, 1)
    bracket = _bisect(_family(k, d, 1), lo, hi, shift, 120)
    assert _refined_enclosure(root, record.i, record.bracket, bracket) is not None
    message = r"refined bracket for \(k=5, d=5, e=2, eps=1, i=1\) leaves its isolation bracket"
    blo, bhi, bshift = bracket
    width = bhi - blo
    outside = ((hi << (bshift - shift)) + 1, (hi << (bshift - shift)) + 1 + width, bshift)
    for wrong in (outside, (lo - 1, hi, shift), (lo, hi, shift - 1), None):
        with pytest.raises(BracketSeedError, match=message):
            _refined_enclosure(root, record.i, record.bracket, wrong)
