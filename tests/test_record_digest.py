"""`tools/record_digest.py`, the triple-by-triple record comparison of two
source trees, on stub trees: the 12,615-triple grid runs in a second, a tree
compared with itself differs nowhere, and a tree whose records differ on
some triples is reported by those triples."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "record_digest.py"

#: A stub package whose report has one root, a gap and a verdict, and
#: whose d < 7 assessments hold one enclosure; {changed} may alter it.
STUB = '''
from fractions import Fraction
from types import SimpleNamespace as Record

def spectral_feasibility(k, d, e):
    root = Record(epsilon=1, i=1, eta=1, bracket=(-3, -2, 1), theta=-1.25)
    report = Record(roots=[root], gap=Record(lo=Fraction(1, 3), hi=Fraction(1, 2)),
                    final_verdict="excluded-by-gap",
                    assessments=[Record(enclosure=((1, 1), (3, 2)), integer=1)])
{changed}
    return report
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("record_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_stub(tree, changed=""):
    package = tree / "cage_spectra"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(STUB.format(changed=changed))
    return str(tree)


def test_the_grid_is_every_valid_triple():
    triples = load_tool().TRIPLES
    assert len(triples) == 12_615 == len(set(triples))
    assert all(d % 2 and e % 2 == 0 and 2 <= e <= k - 2 for k, d, e in triples)
    assert {k for k, _, _ in triples} == set(range(4, 61))
    assert {d for _, d, _ in triples} == set(range(3, 32, 2))


def test_a_tree_compared_with_itself_differs_nowhere(tmp_path, capsys):
    stub = write_stub(tmp_path)
    assert load_tool().main([stub, stub]) == 0
    assert capsys.readouterr().out == "12615 triples, 0 differ\n"


def test_a_changed_record_is_reported_by_its_triple(tmp_path, capsys):
    """A theta one ulp off, an enclosure read only for d < 7, a verdict and
    an error in place of a report each count; an enclosure at d >= 7 is not
    part of the record."""
    changed = "\n".join([
        "    if (k, d, e) == (17, 9, 4):",
        "        report.roots[0].theta = -1.2500000000000002",
        "    if (k, d, e) == (6, 5, 2):",
        "        report.assessments[0].enclosure = ((1, 1), (5, 3))",
        "    if (k, d, e) == (6, 7, 2):",
        "        report.assessments[0].enclosure = ((1, 1), (5, 3))",
        "    if (k, d, e) == (60, 31, 58):",
        "        report.final_verdict = 'spectrally-admissible'",
        "    if (k, d, e) == (4, 3, 2):",
        "        raise ValueError('no report')",
    ])
    tool = load_tool()
    assert tool.main([write_stub(tmp_path / "parent"), write_stub(tmp_path / "change", changed)]) == 1
    assert capsys.readouterr().out == (
        "(4, 3, 2): excluded-by-gap -> ValueError\n"
        "(6, 5, 2): excluded-by-gap -> excluded-by-gap\n"
        "(17, 9, 4): excluded-by-gap -> excluded-by-gap\n"
        "(60, 31, 58): excluded-by-gap -> spectrally-admissible\n"
        "12615 triples, 4 differ\n"
    )
