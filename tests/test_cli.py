import argparse
import decimal
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import g6ref
from cage_spectra import (
    BracketSeedError, IllConditionedError, catalog, cli, feasibility, graphs, moore_bound,
    trace_identity_check,
)
from cage_spectra.cli import (
    _report_json, _report_text, dumps_canonical, format_exact, format_float, main,
)
from oracles import multiplicity_closed_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moore(capsys):
    code, out, _ = run(capsys, "moore", "3", "6")
    assert code == 0 and out == "14\n"


def test_poly_text(capsys):
    code, out, _ = run(capsys, "poly", "H", "4", "2")
    assert code == 0 and out == "-3 0 1\n"


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "F", "5", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "family": "F", "k": 5, "i": 2, "degree": 2, "coefficients": [-5, 0, 1],
    }


def test_feasibility_json_worked_instance(capsys):
    code, out, _ = run(capsys, "feasibility", "4", "3", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "spectrally-admissible"
    assert report["multiplicities"] == [1, 7, 6, 6, 7, 1]
    assert report["n"] == 28
    assert all(isinstance(m, int) for m in report["multiplicities"])


def test_json_roundtrip_byte_identical(capsys):
    for argv in (
        ["feasibility", "4", "3", "2", "--format", "json"],
        ["feasibility", "5", "7", "2", "--format", "json"],
        ["scan", "--k", "4..5", "--d", "3,7", "--e", "2", "--format", "json"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert dumps_canonical(json.loads(out)) + "\n" == out


def test_formats_agree_on_verdict(capsys):
    _, text_out, _ = run(capsys, "feasibility", "5", "7", "2")
    _, json_out, _ = run(capsys, "feasibility", "5", "7", "2", "--format", "json")
    _, csv_out, _ = run(capsys, "feasibility", "5", "7", "2", "--format", "csv")
    assert "excluded-by-gap" in text_out
    assert json.loads(json_out)["verdict"] == "excluded-by-gap"
    header, row = csv_out.strip().splitlines()
    assert header.split(",")[4] == "verdict"
    assert row.split(",")[4] == "excluded-by-gap"


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def test_scan_paper_grid_matches_benchmark_golden(capsys):
    code, out, err = run(
        capsys, "scan", "--k", "4..20", "--d", "7,9,11", "--e", "2,4,6", "--format", "csv"
    )
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN_DIR / "paper-grid.csv").read_bytes()


VERDICTS = {"spectrally-admissible", "excluded-by-integrality", "excluded-by-gap", "outside-regime"}


def test_scan_deep_girth_matches_benchmark_golden(capsys):
    """The 21 deep-girth triples, one scan each.  A triple whose golden is a
    failure (an error on stderr) may instead complete, as the benchmark gate
    allows: exit 0, nothing on stderr, and one well-formed row for the same
    (k, d, e, n).  The four golden failures at d = 27 now all complete."""
    golden = json.loads((GOLDEN_DIR / "deep-girth.json").read_text())
    assert len(golden) == 21
    completed = []
    for key, expected in golden.items():
        k, d, e = key.split(",")
        code, out, err = run(capsys, "scan", "--k", k, "--d", d, "--e", e, "--format", "csv")
        want = (expected["exit"], expected["stdout"], expected["stderr"])
        if expected["stderr"] and (code, out, err) != want:
            assert code == 0 and err == "", key
            header, row = out.splitlines()
            fields = row.split(",")
            n = moore_bound(int(k), 2 * int(d)) + int(e)
            assert out == f"{header}\n{row}\n" and header == expected["stdout"].rstrip("\n"), key
            assert fields[:4] == [k, d, e, str(n)] and fields[4] in VERDICTS, key
            completed.append(key)
            continue
        assert (code, out, err) == want, key
    assert completed == ["16,27,2", "16,27,14", "32,27,2", "32,27,30"]


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--k", "4..6", "--d", "7", "--e", "2,4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,d,e,n,verdict,gap_lo,gap_hi,max_integrality_deviation"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    verdicts = {(r[0], r[2]): r[4] for r in rows}
    assert verdicts[("4", "2")] == "excluded-by-gap"
    assert verdicts[("4", "4")] == "outside-regime"  # e > k - 2 skipped with a note
    assert verdicts[("6", "4")] == "excluded-by-gap"


SKIPPED_SCAN = ["scan", "--k", "4", "--d", "7,8", "--e", "2,4"]


def test_scan_csv_pins_every_field_of_a_skipped_row(capsys):
    """A skipped triple prints k, d, e and its verdict, and every other
    field empty; a reported one prints all eight."""
    assert run(capsys, *SKIPPED_SCAN, "--format", "csv") == (0, (
        "k,d,e,n,verdict,gap_lo,gap_hi,max_integrality_deviation\n"
        "4,7,2,2188,excluded-by-gap,0.0968030761646,0.0968030761646,0.325922531206\n"
        "4,7,4,,outside-regime,,,\n"
        "4,8,2,,outside-regime,,,\n"
        "4,8,4,,outside-regime,,,\n"
    ), "")


def test_scan_text_pins_every_row(capsys):
    assert run(capsys, *SKIPPED_SCAN) == (0, (
        "(k=4, d=7, e=2) n=2188 excluded-by-gap gap=(0.0968030761646, 0.0968030761646)\n"
        "(k=4, d=7, e=4) outside-regime: excess must satisfy e <= k - 2, got e=4 with k=4\n"
        "(k=4, d=8, e=2) outside-regime: half-girth d must be odd, got d=8\n"
        "(k=4, d=8, e=4) outside-regime: half-girth d must be odd, got d=8\n"
    ), "")


def test_scan_json_prints_a_skipped_triple_as_its_note(capsys):
    assert run(capsys, "scan", "--k", "4", "--d", "7", "--e", "4", "--format", "json") == (0, (
        '[{"d":7,"e":4,"k":4,"note":"excess must satisfy e <= k - 2, got e=4 with k=4",'
        '"verdict":"outside-regime"}]\n'
    ), "")


def test_an_empty_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["scan", "--k", "5..4", "--d", "7", "--e", "2"])
    assert info.value.code == 2 and capsys.readouterr().err == (
        "usage: cage-spectra scan [-h] --k K --d D --e E [--format {text,json,csv}]\n"
        "cage-spectra scan: error: argument --k: empty range '5..4'\n"
    )


def test_an_ill_conditioned_enclosure_names_its_root_and_exits_1(monkeypatch, capsys):
    """`_refined_enclosure`, the one raise site of `IllConditionedError`, is
    reached when a refined enclosure is not decisive: forced here, since no
    known triple gets there."""
    monkeypatch.setattr(feasibility, "_decisive", lambda ends: False)
    root = "(k=4, d=3, e=2, eps=1, i=1)"
    with pytest.raises(IllConditionedError) as info:
        feasibility.spectral_feasibility(4, 3, 2).final_verdict
    assert str(info.value) == f"multiplicity enclosure failed to converge at {root}"
    assert run(capsys, "feasibility", "4", "3", "2", "--format", "json") == (
        1, "", f"error: multiplicity enclosure failed to converge at {root}\n"
    )


def test_scan_csv_where_the_moment_check_overflows(capsys):
    """At (200, 61, e) n times a closed-walk count passes the float range,
    which once overflowed a float moment check.  The gap decides both rows;
    the full reports there come back too (test_feasibility)."""
    code, out, err = run(
        capsys, "scan", "--k", "200", "--d", "61", "--e", "2,198", "--format", "csv"
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[2], row[4]) for row in rows] == [
        ("2", "excluded-by-gap"), ("198", "excluded-by-gap"),
    ]


#: The stages a gap-excluded CSV row does not need.
ENCLOSURE_WORK = ("_assess_multiplicity",)


def test_csv_scan_does_no_enclosure_work(monkeypatch, capsys):
    counts = dict.fromkeys(ENCLOSURE_WORK, 0)
    for name in ENCLOSURE_WORK:
        def counted(*args, _name=name, _original=getattr(feasibility, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(feasibility, name, counted)
    code, out, _ = run(
        capsys, "scan", "--k", "4..20", "--d", "7,9,11", "--e", "2,4,6", "--format", "csv"
    )
    assert code == 0 and out.count(",excluded-by-gap,") == 135
    assert counts == dict.fromkeys(ENCLOSURE_WORK, 0)
    # the JSON report prints every multiplicity, so it assesses them all:
    # one assessment per mirrored pair in each family
    code, _, _ = run(capsys, "feasibility", "5", "7", "2", "--format", "json")
    assert code == 0
    assert counts == {"_assess_multiplicity": 6}


def test_only_the_json_report_computes_the_angles(monkeypatch, capsys):
    """phi and alpha are printed by the JSON alone: CSV and text scans call
    `_acos_near` zero times, and a JSON scan once per root."""
    calls = []
    acos_near = feasibility._acos_near

    def counted(*args):
        calls.append(args)
        return acos_near(*args)

    monkeypatch.setattr(feasibility, "_acos_near", counted)
    argv = ("scan", "--k", "5..6", "--d", "7", "--e", "2", "--format")
    for fmt in ("csv", "text"):
        code, out, _ = run(capsys, *argv, fmt)
        assert code == 0 and out.count("excluded-by-gap") == 2
        assert calls == []
    code, _, _ = run(capsys, *argv, "json")
    assert code == 0 and len(calls) == 2 * 2 * 6  # two triples, two families, d - 1 roots


def counted_horner(monkeypatch):
    """The calls of the report's closed-form kernel to `horner`, two per
    closed form, recorded as they are made."""
    calls = []
    horner = feasibility.horner

    def counted(*args):
        calls.append(args)
        return horner(*args)

    monkeypatch.setattr(feasibility, "horner", counted)
    return calls


def test_a_text_scan_computes_no_closed_form(monkeypatch, capsys):
    """A gap-excluded `scan` text row prints the verdict and the gap alone:
    its closed-form kernel makes no `horner` call, where a CSV row pays for
    the integrality-deviation column."""
    calls = counted_horner(monkeypatch)
    argv = ("scan", "--k", "5..6", "--d", "7", "--e", "2", "--format")
    code, out, _ = run(capsys, *argv, "text")
    assert code == 0 and out.count("excluded-by-gap") == 2
    assert calls == []
    code, _, _ = run(capsys, *argv, "csv")
    # two triples, two families, i <= (d-1)/2, two Horner calls each
    assert code == 0 and len(calls) == 2 * 2 * 3 * 2


@pytest.mark.parametrize("argv", [
    ("scan", "--k", "3000", "--d", "61", "--e", "2", "--format", "csv"),
    ("scan", "--k", "1000001", "--d", "61", "--e", "2", "--format", "csv"),
    ("feasibility", "1099511627777", "61", "2", "--format", "csv"),
])
def test_a_closed_form_past_binary64_leaves_its_csv_field_empty(capsys, argv):
    """With d = 61 the float closed form passes binary64: to inf at
    k = 3000, and with an `OverflowError` at k = 10^6 + 1 and 2^40 + 1.
    The gap decides the verdict exactly, and the integrality-deviation
    column is left empty."""
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    row = out.splitlines()[-1].split(",")
    assert row[4] == "excluded-by-gap" and row[-1] == ""
    # the gap ends print as exact rationals; at k = 2^40 + 1 they lie below
    # 2^-1022, where their floats would print an interval [0, 0]
    assert 0 < Fraction(row[5]) <= Fraction(row[6]) < 1


@pytest.mark.parametrize("q,text", [
    (Fraction(0), "0"),
    (Fraction(3, 10 ** 300), "3e-300"),
    (Fraction(2 ** 1022 - 1, 2 ** 2044), "2.22507385851e-308"),  # its float is 2^-1022
    (Fraction(123456789012345, 10 ** 322), "1.23456789012e-308"),
    (Fraction(123456789012345, 10 ** 334), "1.23456789012e-320"),
    (Fraction(1234567890125, 10 ** 332), "1.23456789012e-320"),  # a tie rounds to even
    (Fraction(1234567890135, 10 ** 332), "1.23456789014e-320"),
    (Fraction(1234567890125, 10 ** 332) + Fraction(1, 10 ** 400), "1.23456789013e-320"),
    (Fraction(9999999999995, 10 ** 322), "1e-309"),  # the tie carries into the exponent
    (Fraction(-5, 10 ** 630), "-5e-630"),
    (Fraction(1, 2 ** 5000), "7.07981126105e-1506"),
])
def test_format_exact_prints_twelve_digits_of_the_rational(q, text):
    """At or above 2^-1022 an exact rational prints as its float; below it,
    as 12 significant digits of the rational itself, rounded half to even,
    where the float's digits would be wrong (1.23467004896e-320 for
    1.23456789012345e-320) or 0."""
    assert format_exact(q) == text
    if abs(float(q)) >= sys.float_info.min or q == 0:
        assert text == format_float(float(q))


@pytest.mark.parametrize("q,text", [
    (Fraction(-(2 ** 1025 + 1)), "-3.59538626972e+308"),
    (Fraction(2 ** 1024), "1.79769313486e+308"),  # the least power of two past binary64
    (Fraction(10 ** 400, 3), "3.33333333333e+399"),
])
def test_format_exact_prints_twelve_digits_past_binary64(q, text):
    """Where ``float(q)`` overflows, the 12 digits are those of q itself."""
    with pytest.raises(OverflowError):
        float(q)
    assert format_exact(q) == text


@pytest.fixture(scope="module")
def report_past_binary64():
    """(2^1025 + 1, 7, 2): neither k - 1 nor the end eigenvalue -k has a
    binary64 value.  The JSON builds every enclosure, about 5 s."""
    return feasibility.spectral_feasibility(2 ** 1025 + 1, 7, 2)


def test_the_json_report_renders_where_k_passes_binary64(report_past_binary64):
    """The ends of the spectrum print as 12 digits of the exact -k and k,
    and the analytic bound, which binary64 cannot evaluate, as null."""
    text = dumps_canonical(_report_json(report_past_binary64))
    assert '"thetas":[-3.59538626972e+308,' in text
    assert text.endswith(',3.59538626972e+308],"verdict":"excluded-by-gap"}')
    assert '"analytic_bound":null' in text


def test_the_text_report_renders_where_k_passes_binary64(report_past_binary64):
    lines = _report_text(report_past_binary64).splitlines()
    assert lines[3].split() == ["-3.59538626972e+308", ":", "1"]
    assert ", analytic bound n/a, " in lines[-1]


def test_canonical_json_prints_an_exact_gap_end_as_a_number():
    """A `Fraction` below 2^-1022 is a valid JSON number token, which
    Python's `json` reads as 0.0 and an exact parser as the rational."""
    text = dumps_canonical({"lo": Fraction(7, 10 ** 629)})
    assert text == '{"lo":7e-629}'
    assert json.loads(text) == {"lo": 0.0}
    assert json.loads(text, parse_float=Fraction) == {"lo": Fraction(7, 10 ** 629)}


def test_the_gap_chain_prints_true_where_binary64_got_it_wrong(capsys):
    """The closing chain is a theorem on the regime; evaluated in binary64
    it read false at (131073, 7, 2), and for every k >= 131073 at d = 7 and
    e = 2.  Both reports print it true."""
    code, out, _ = run(capsys, "feasibility", "131073", "7", "2", "--format", "json")
    assert code == 0 and json.loads(out)["gap"]["chain_ok"] is True
    code, out, _ = run(capsys, "feasibility", "131073", "7", "2")
    assert code == 0 and out.endswith(", chain ok: True\n")


def test_a_triple_past_the_float_chain_ends_in_the_gap_verdict(capsys):
    """s^((d-3)/2) passes binary64 at (2^343 + 1, 15, 2), which once raised
    `OverflowError` in the gap check; the gap is integer arithmetic, so the
    CSV row ends in its verdict, and so does the JSON report at
    (2^683 + 1, 9, 2), where s^3 passes binary64 (the JSON builds every
    enclosure, 3x faster there than at d = 15).  The JSON's gap ends lie
    below 2^-1022 and read back exactly."""
    k = str(2 ** 343 + 1)
    code, out, err = run(capsys, "scan", "--k", k, "--d", "15", "--e", "2", "--format", "csv")
    assert code == 0 and err == ""
    assert out.splitlines()[1].split(",")[4:5] == ["excluded-by-gap"]
    code, out, err = run(capsys, "feasibility", str(2 ** 683 + 1), "9", "2", "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out, parse_float=Fraction)
    assert report["verdict"] == "excluded-by-gap" and report["gap"]["chain_ok"] is True
    assert 0 < report["gap"]["lo"] <= report["gap"]["hi"] < Fraction(sys.float_info.min)


def test_a_text_scan_below_the_gap_regime_computes_no_closed_form(monkeypatch, capsys):
    """At d = 3 and 5 the enclosures decide the verdict, and a `scan` text
    row prints nothing else: its closed-form kernel makes no `horner` call.
    The JSON prints each non-integral multiplicity as the float closed form
    at its mirrored pair's seeded root."""
    calls = counted_horner(monkeypatch)
    argv = ("scan", "--k", "5..6", "--d", "3,5", "--e", "2", "--format")
    code, out, _ = run(capsys, *argv, "text")
    assert code == 0 and out.count("excluded-by-integrality") + out.count("admissible") == 4
    assert calls == []
    code, out, _ = run(capsys, *argv, "json")
    assert code == 0
    for row in json.loads(out):
        k, d, e = row["k"], row["d"], row["e"]
        report = feasibility.spectral_feasibility(k, d, e)
        theta = {(r.epsilon, r.i): r.theta for r in report.roots}
        expected = [1, *(
            a.integer if a.integral
            else multiplicity_closed_form(k, d, e, r.epsilon, theta[r.epsilon, min(r.i, d - r.i)])
            for r, a in zip(report.roots, report.assessments)
        ), 1]
        assert row["multiplicities"] == json.loads(dumps_canonical(expected))


def test_reports_render_without_a_closed_form(monkeypatch, capsys):
    """Where binary64 cannot evaluate a closed form, the JSON prints null
    and the text n/a, both for the deviation and for a non-integral
    multiplicity."""
    def overflow(*args):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(feasibility, "horner", overflow)
    code, out, _ = run(capsys, "feasibility", "4", "7", "2", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "excluded-by-gap"
    assert report["max_integrality_deviation"] is None
    assert None in report["multiplicities"]
    code, out, _ = run(capsys, "feasibility", "4", "7", "2")
    assert code == 0 and "(max deviation n/a)" in out and " : n/a" in out


def test_a_root_past_binary64_has_no_theta(capsys):
    """At (2^2050 + 1, 7, 2) |theta| passes binary64 for 8 of the 12 roots,
    which once ended the CSV in `OverflowError`.  Their theta and every
    closed form are None: the CSV leaves the deviation empty, the JSON
    prints null and the text n/a."""
    k = str(2 ** 2050 + 1)
    code, out, err = run(capsys, "feasibility", k, "7", "2", "--format", "csv")
    assert code == 0 and err == ""
    row = out.splitlines()[1].split(",")
    assert row[4] == "excluded-by-gap" and row[-1] == ""
    code, out, _ = run(capsys, "feasibility", k, "7", "2", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "excluded-by-gap"
    thetas = [r["theta"] for r in report["roots"]]
    assert thetas.count(None) == 8 and report["thetas"][1:-1] == thetas
    assert report["multiplicities"][1:-1] == [None] * 12
    code, out, _ = run(capsys, "feasibility", k, "7", "2")
    lines = [line.split() for line in out.splitlines()[4:16]]
    assert code == 0 and [m for _, _, m in lines] == ["n/a"] * 12
    assert [theta == "n/a" for theta, _, _ in lines] == [theta is None for theta in thetas]


def test_n_past_the_int_string_limit_prints_in_full(capsys):
    """n = M(k, 26) + 2 has 4,801 digits at (10^400 + 1, 13, 2), past the
    4,300 digits `str` converts by default, which once ended every format in
    `ValueError`.  Each prints every digit."""
    k = 10 ** 400 + 1
    n = 2 * sum((k - 1) ** j for j in range(13)) + 2
    argv = ("feasibility", str(k), "13", "2", "--format")
    code, out, err = run(capsys, *argv, "csv")
    assert code == 0 and err == ""
    row = out.splitlines()[1].split(",")
    assert row[4] == "excluded-by-gap" and decimal.Decimal(row[3]) == n
    code, out, _ = run(capsys, *argv, "json")
    assert code == 0 and json.loads(out, parse_int=decimal.Decimal)["n"] == n
    code, out, _ = run(capsys, *argv, "text")
    shown = out.splitlines()[0].split(" n = ")[1]
    assert code == 0 and len(shown) == 4801 and decimal.Decimal(shown) == n


#: 10^4300 + 1, one digit past the 4,300 that `int` reads from a string by
#: default; written out, since `str(10**4300 + 1)` refuses it too.
LONG_K = "1" + "0" * 4299 + "1"


@pytest.mark.parametrize("argv", [
    ("feasibility", LONG_K, "3", "2", "--format", "text"),
    ("feasibility", LONG_K, "3", "2", "--format", "json"),
    ("feasibility", LONG_K, "3", "2", "--format", "csv"),
    ("scan", "--k", LONG_K, "--d", "3", "--e", "2", "--format", "text"),
    ("scan", "--k", LONG_K, "--d", "3", "--e", "2", "--format", "csv"),
], ids=["feasibility-text", "feasibility-json", "feasibility-csv", "scan-text", "scan-csv"])
def test_a_degree_past_the_int_string_limit_ends_in_a_verdict(capsys, argv):
    """Such a k once stopped at the argument parser (exit 2), and past it at
    the engine's error names and the text formats' f-strings (`ValueError`).
    Every format prints it in full; the text formats head with the triple."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and "spectrally-admissible" in out
    if argv[-1] == "json":
        assert json.loads(out, parse_int=decimal.Decimal)["k"] == decimal.Decimal(LONG_K)
    elif argv[-1] == "csv":
        assert out.splitlines()[1].startswith(f"{LONG_K},3,2,")
    else:
        assert out.startswith(f"(k={LONG_K}, d=3, e=2) ")


def test_an_integer_argument_reads_at_any_size_and_is_refused_as_int_refuses_it(capsys):
    """Every integer argument goes through one reader: an all-digit numeral
    past the int-string limit reads in full, and a malformed scalar or list
    keeps the usage error `int` and the list parser gave it, byte for byte."""
    assert run(capsys, "moore", LONG_K, "3")[:2] == (0, LONG_K[:-1] + "2\n")  # 1 + k
    usage = "usage: cage-spectra feasibility [-h] [--format {text,json,csv}] k d e\n"
    for value in ("x", "1.5", "1e3"):
        with pytest.raises(SystemExit) as info:
            main(["feasibility", value, "3", "2"])
        assert info.value.code == 2 and capsys.readouterr().err == (
            f"{usage}cage-spectra feasibility: error: argument k: invalid int value: '{value}'\n"
        )
    with pytest.raises(SystemExit) as info:
        main(["scan", "--k", "5..", "--d", "3", "--e", "2"])
    assert info.value.code == 2 and capsys.readouterr().err == (
        "usage: cage-spectra scan [-h] --k K --d D --e E [--format {text,json,csv}]\n"
        "cage-spectra scan: error: argument --k: invalid integer list '5..': "
        "expected A..B, A,B,... or A\n"
    )


@pytest.mark.parametrize("argv,message", [
    (("feasibility", "3", "3", LONG_K), f"excess must be even, got e={LONG_K}"),
    (("feasibility", "3", "3", LONG_K[:-1] + "0"),
     f"excess must satisfy e <= k - 2, got e={LONG_K[:-1]}0 with k=3"),
    (("moore", LONG_K, "2"), f"moore_bound needs k >= 2 and g >= 3, got k={LONG_K}, g=2"),
    (("feasibility", "5", "7", "-1" + "0" * 5000), f"excess must be >= 2, got e=-1{'0' * 5000}"),
    (("feasibility", "5", "+1" + "0" * 5000, "2"), f"half-girth d must be odd, got d=1{'0' * 5000}"),
    (("verify", "catalog:heawood", "--k", "-1" + "0" * 5000, "--d", "3", "--e", "0"),
     f"degree k must be >= 3, got -1{'0' * 5000}"),
], ids=["odd-e", "e-past-k", "moore", "negative-e", "signed-d", "verify-negative-k"])
def test_a_parameter_error_names_an_argument_past_the_int_string_limit_in_full(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_scan_error_mid_grid_keeps_the_items_before_it(monkeypatch, capsys, fmt):
    """An error after the first triple ends the scan with exit 1 and the error
    on stderr; every format prints what a scan of that one triple prints."""
    argv = ("scan", "--k", "4", "--d", "7", "--e", "2", "--format", fmt)
    code, before, _ = run(capsys, *argv)
    assert code == 0
    scan = cli.scan

    def failing(k_range, d_range, e_range):
        yield from scan(k_range, d_range, e_range)
        raise BracketSeedError("seed interval does not bracket a sign change")

    monkeypatch.setattr(cli, "scan", failing)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, before, "error: seed interval does not bracket a sign change\n")


def test_verify_catalog_pass(capsys):
    code, out, _ = run(capsys, "verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "0")
    assert code == 0
    assert "PASS" in out
    assert "residual: 0" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "catalog:tutte_coxeter", "--k", "3", "--d", "4", "--e", "0",
        "--format", "json",
    )
    assert code == 0
    (result,) = json.loads(out)
    assert result["ok"] is True
    assert result["path_count_residual"] == 0
    assert result["allones_residual"] == 0


def test_verify_failure_exit_code(capsys):
    # wrong claimed parameters: structural check fails, exit code 1
    code, out, _ = run(capsys, "verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "2")
    assert code == 1
    assert "FAIL" in out


def test_verify_graph6_file(tmp_path, capsys):
    heawood = catalog("heawood")
    edges = [(u, v) for u in range(heawood.n) for v in heawood.adjacency[u] if u < v]
    path = tmp_path / "graphs.g6"
    path.write_text(g6ref.encode_graph6(14, edges) + "\n")
    code, out, _ = run(capsys, "verify", str(path), "--k", "3", "--d", "3", "--e", "0")
    assert code == 0 and "PASS" in out


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("heawood", "tutte_coxeter", "moebius_kantor", "pg23_incidence"):
        assert name in out


def test_parameter_domain_exit_code(capsys):
    code, _, err = run(capsys, "feasibility", "4", "3", "3")
    assert code == 2
    assert "even" in err


def test_unknown_flag_usage_error(capsys):
    """An argument the subcommand leaves over is the full parser's error:
    its usage line, then the arguments it does not recognize."""
    with pytest.raises(SystemExit) as info:
        main(["moore", "3", "6", "--frobnicate"])
    assert info.value.code == 2
    parser = cli._build_parser()
    assert parser.prog == "cage-spectra"
    assert capsys.readouterr() == ("", parser.format_usage()
                                   + "cage-spectra: error: unrecognized arguments: --frobnicate\n")


@pytest.mark.parametrize("flag", ["--k", "--d", "--e"])
@pytest.mark.parametrize("value", ["5..", "a", "4,,5"])
def test_a_malformed_integer_list_names_the_accepted_forms(flag, value, capsys):
    """A malformed range, a non-integer and an empty item are usage errors
    whose message names the forms, not the parser's private function."""
    argv = {"--k": "4", "--d": "7", "--e": "2", flag: value}
    with pytest.raises(SystemExit) as info:
        main(["scan", *(token for item in argv.items() for token in item)])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: invalid integer list '{value}': expected A..B, A,B,... or A\n"
    )


def test_parser_is_built_once_and_reused(monkeypatch, capsys):
    assert run(capsys, "moore", "3", "6")[:2] == (0, "14\n")
    parser, parsers = cli._command_parser("moore"), []
    parse = argparse.ArgumentParser.parse_known_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recorded)
    assert run(capsys, "poly", "H", "4", "2")[:2] == (0, "-3 0 1\n")
    assert run(capsys, "moore", "4", "6")[:2] == (0, "26\n")
    assert parsers == [cli._command_parser("poly"), parser]  # the first moore call's parser


def test_usage_error_after_a_successful_call(capsys):
    assert run(capsys, "catalog")[0] == 0
    with pytest.raises(SystemExit) as info:
        main(["scan", "--k", "4"])
    assert info.value.code == 2
    assert run(capsys, "moore", "3", "6")[:2] == (0, "14\n")


def parser_cache_sizes(*statements):
    """The cache sizes of the full parser and of the command parsers in a
    fresh interpreter that imports `cli` and runs ``statements``."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "; ".join((
        "import cage_spectra.cli as c", *statements,
        "print(c._build_parser.cache_info().currsize, c._command_parser.cache_info().currsize)",
    ))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1]


def test_parser_is_not_built_at_import():
    assert parser_cache_sizes() == "0 0"


def test_a_valid_scan_builds_only_its_own_parser():
    scan = "c.main(['scan', '--k', '4', '--d', '7', '--e', '2', '--format', 'csv'])"
    assert parser_cache_sizes(scan) == "0 1"


#: One valid call of each subcommand.
VALID_CALLS = {
    "moore": ["moore", "3", "6"],
    "poly": ["poly", "H", "4", "2", "--format", "json"],
    "verify": ["verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "0"],
    "feasibility": ["feasibility", "4", "3", "2", "--format", "csv"],
    "scan": ["scan", "--k", "4", "--d", "7", "--e", "2"],
    "catalog": ["catalog"],
}


def full_subparser(name):
    (subparsers,) = (action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
    return subparsers.choices[name]


@pytest.mark.parametrize("name", VALID_CALLS)
def test_a_command_parser_has_the_help_and_usage_of_the_full_subparser(name):
    assert list(cli._COMMANDS) == list(VALID_CALLS)
    own, full = cli._command_parser(name), full_subparser(name)
    assert own.prog == full.prog == f"cage-spectra {name}"
    assert own.format_help() == full.format_help()
    assert own.format_usage() == full.format_usage()


@pytest.mark.parametrize("name", VALID_CALLS)
def test_a_valid_call_is_parsed_once(name, monkeypatch, capsys):
    parsed = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    code, _, err = run(capsys, *VALID_CALLS[name])
    assert (code, err) == (0, "")
    assert parsed == [f"cage-spectra {name}"]


def test_scan_runs_without_mpmath():
    """The scan's seeds are integer fixed point: a fresh interpreter that
    runs a scan never imports mpmath."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys, cage_spectra.cli as c; "
        "code = c.main(['scan', '--k', '4..6', '--d', '7', '--e', '2', '--format', 'csv']); "
        "print(code, 'mpmath' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "0 False"
    assert done.stdout.startswith("k,d,e,n,verdict,")


class Enough(Exception):
    """Raised by `FirstLines` once it holds its lines."""


class FirstLines(io.StringIO):
    """A stdout that stops the writer once it holds `count` lines."""

    def __init__(self, count):
        super().__init__()
        self.count = count

    def write(self, text):
        super().write(text)
        if self.getvalue().count("\n") >= self.count:
            raise Enough


def test_a_scan_range_past_ssize_t_streams_its_first_rows(monkeypatch, capsys):
    """A range's end past ``sys.maxsize`` is kept as a `range`, not a list
    whose length overflows: its first rows are those of a short range."""
    huge = "1" + "0" * 5000
    ks = cli._int_list(f"4..{huge}")
    assert (ks[0], ks[1], ks[-1]) == (4, 5, decimal.Decimal(huge))
    short = ["--d", "7..9", "--e", "2..4", "--format", "csv"]
    code, expected, _ = run(capsys, "scan", "--k", "4..5", *short)
    assert code == 0 and expected.count("\n") == 19
    out = FirstLines(count=13)  # the header and the first twelve rows
    monkeypatch.setattr(sys, "stdout", out)
    with pytest.raises(Enough):
        main(["scan", "--k", f"4..{huge}", *short])
    assert out.getvalue() == "".join(expected.splitlines(keepends=True)[:13])


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_bad_graph6_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("C~~~~\n")
    code, _, err = run(capsys, "verify", str(path), "--k", "3", "--d", "3", "--e", "0")
    assert code == 2 and "error" in err


def test_verify_non_ascii_byte_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "binary.g6"
    path.write_bytes(b"Bw\n\xffw\n")
    code, out, err = run(capsys, "verify", str(path), "--k", "3", "--d", "3", "--e", "0")
    assert (code, out) == (2, "")
    assert err == "error: character out of range at byte 0: 255\n"


@pytest.mark.parametrize("target", ["", "absent.g6"], ids=["directory", "missing"])
def test_verify_unreadable_target_is_an_error(tmp_path, capsys, target):
    code, out, err = run(capsys, "verify", str(tmp_path / target),
                         "--k", "3", "--d", "3", "--e", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


def test_verify_order_zero_graph_is_a_failed_row(tmp_path, capsys):
    path = tmp_path / "null.g6"
    path.write_text("?\n")
    code, out, err = run(capsys, "verify", str(path), "--k", "3", "--d", "3", "--e", "0",
                         "--format", "json")
    assert code == 1 and err == ""
    (result,) = json.loads(out)
    assert result["n"] == 0 and result["diameter"] is None
    assert result["structural_ok"] is False and result["ok"] is False


def test_verify_refuses_a_degree_below_three_before_reading_a_target(tmp_path, capsys):
    """k < 3 is refused alike whatever the target holds: a hexagon, which
    passes the structural check at k = 2, two disjoint hexagons, which fail
    it, both in one file, a catalog graph, or a file that does not exist."""
    hexagon = g6ref.encode_graph6(6, [(i, (i + 1) % 6) for i in range(6)])
    two = g6ref.encode_graph6(12, [(s + i, s + (i + 1) % 6) for s in (0, 6) for i in range(6)])
    targets = ["catalog:heawood", str(tmp_path / "absent.g6")]
    for name, lines in (("hexagon", [hexagon]), ("two-hexagons", [two]), ("both", [hexagon, two])):
        path = tmp_path / f"{name}.g6"
        path.write_text("".join(line + "\n" for line in lines))
        targets.append(str(path))
    for target in targets:
        for fmt in ("text", "json"):
            argv = ("verify", target, "--k", "2", "--d", "3", "--e", "0", "--format", fmt)
            assert run(capsys, *argv) == (2, "", "error: degree k must be >= 3, got 2\n")


def test_verify_on_a_file_of_blank_lines_finds_no_graph(tmp_path, capsys):
    path = tmp_path / "blank.g6"
    path.write_bytes(b"\n \n\t\n")
    assert run(capsys, "verify", str(path), "--k", "3", "--d", "3", "--e", "0") == (
        2, "", f"error: no graphs found in {path}\n"
    )


def count_bfs_passes(monkeypatch):
    """Record the order of the graph of every all-roots BFS pass from now on;
    each catalog load builds its graph anew, without an analysis."""
    passes = []
    bfs = graphs._all_roots_bfs

    def counted(degrees, flat):
        passes.append(len(degrees))
        return bfs(degrees, flat)

    monkeypatch.setattr(graphs, "_all_roots_bfs", counted)
    return passes


def test_verify_analyses_each_graph_once(monkeypatch, capsys):
    passes = count_bfs_passes(monkeypatch)
    code, _, _ = run(capsys, "verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "0")
    assert code == 0
    # one all-roots pass over the one graph, shared by its load-time girth check
    assert passes == [14]
    heawood = catalog("heawood")  # a second load builds and analyses a second graph
    assert passes == [14, 14]
    assert trace_identity_check(heawood, 3, 3).ok
    assert passes == [14, 14]  # the trace oracle reads the same analysis


def heawood_graph6():
    heawood = catalog("heawood")
    edges = [(u, v) for u in range(heawood.n) for v in heawood.adjacency[u] if u < v]
    return g6ref.encode_graph6(heawood.n, edges)


def test_verify_computes_one_structural_verdict_per_graph(monkeypatch, capsys, tmp_path):
    """`verify` runs one BFS pass and asks for one structural verdict per
    graph, passing or not, and the cross-check it runs on each passing graph
    asks for none: it guards its own three facts."""
    heawood = heawood_graph6()
    path = tmp_path / "graphs.g6"
    path.write_text(f"{heawood}\n{g6ref.encode_graph6(6, [])}\n{heawood}\n")
    passes = count_bfs_passes(monkeypatch)
    verdicts, asked = [], []
    check, cross = graphs.structural_check, graphs.spectral_crosscheck

    def counted_check(graph, *claim):
        verdicts.append((graph.n, *claim))
        return check(graph, *claim)

    def counted_cross(graph, *claim):
        before = len(verdicts)
        report = cross(graph, *claim)
        asked.append(len(verdicts) - before)
        return report

    for module in (cli, graphs):
        monkeypatch.setattr(module, "structural_check", counted_check)
    monkeypatch.setattr(cli, "spectral_crosscheck", counted_cross)
    code, out, _ = run(capsys, "verify", str(path), "--k", "3", "--d", "3", "--e", "0")
    assert code == 1 and out.count("PASS") == 2  # the edgeless graph fails
    assert passes == [14, 6, 14]
    assert verdicts == [(14, 3, 3, 0), (6, 3, 3, 0), (14, 3, 3, 0)]
    assert asked == [0, 0]  # one cross-check per passing graph, no verdict inside


def test_a_rejected_graph_costs_one_bfs_pass_and_no_crosscheck(monkeypatch, capsys, tmp_path):
    """A rejected candidate costs the one BFS pass: no cross-check, and a
    graph6 candidate never builds its tuple rows."""
    path = tmp_path / "heawood.g6"
    path.write_text(heawood_graph6() + "\n")
    passes = count_bfs_passes(monkeypatch)

    def never(*args):
        raise AssertionError("built or entered after a structural failure")

    monkeypatch.setattr(cli, "spectral_crosscheck", never)
    code, out, _ = run(capsys, "verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "2")
    assert code == 1 and "FAIL" in out
    assert passes == [14]
    monkeypatch.setattr(graphs.Graph, "adjacency", property(never))
    code, out, _ = run(capsys, "verify", str(path), "--k", "3", "--d", "3", "--e", "2")
    assert code == 1 and "FAIL" in out
    assert passes == [14, 14]


def test_dumps_canonical_floats():
    assert dumps_canonical({"a": 1.0, "b": 0.1234567890123456}) == '{"a":1,"b":0.123456789012}'
    assert dumps_canonical([True, None, 3]) == "[true,null,3]"


def test_dumps_canonical_refuses_a_type_it_has_no_token_for():
    with pytest.raises(TypeError, match="^cannot serialize complex$"):
        dumps_canonical({"z": 1j})
