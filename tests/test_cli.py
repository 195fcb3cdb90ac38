import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import g6ref
from cage_spectra import (
    BracketSeedError, _intmat, catalog, cli, feasibility, graphs, moore_bound,
    trace_identity_check,
)
from cage_spectra.cli import dumps_canonical, main


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


def test_a_text_scan_computes_no_closed_form(monkeypatch, capsys):
    """A gap-excluded `scan` text row prints the verdict and the gap alone:
    it calls `multiplicity_closed_form` zero times, where a CSV row pays for
    the integrality-deviation column."""
    calls = []
    closed_form = feasibility.multiplicity_closed_form

    def counted(*args):
        calls.append(args)
        return closed_form(*args)

    monkeypatch.setattr(feasibility, "multiplicity_closed_form", counted)
    argv = ("scan", "--k", "5..6", "--d", "7", "--e", "2", "--format")
    code, out, _ = run(capsys, *argv, "text")
    assert code == 0 and out.count("excluded-by-gap") == 2
    assert calls == []
    code, _, _ = run(capsys, *argv, "csv")
    assert code == 0 and len(calls) == 2 * 2 * 3  # two triples, two families, i <= (d-1)/2


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


def test_reports_render_without_a_closed_form(monkeypatch, capsys):
    """Where binary64 cannot evaluate a closed form, the JSON prints null
    and the text n/a, both for the deviation and for a non-integral
    multiplicity."""
    def overflow(*args):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(feasibility, "multiplicity_closed_form", overflow)
    code, out, _ = run(capsys, "feasibility", "4", "7", "2", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "excluded-by-gap"
    assert report["max_integrality_deviation"] is None
    assert None in report["multiplicities"]
    code, out, _ = run(capsys, "feasibility", "4", "7", "2")
    assert code == 0 and "(max deviation n/a)" in out and " : n/a" in out


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
    with pytest.raises(SystemExit) as info:
        main(["moore", "3", "6", "--frobnicate"])
    assert info.value.code == 2


def test_parser_is_built_once_and_reused(capsys):
    assert run(capsys, "moore", "3", "6")[:2] == (0, "14\n")
    parser = cli._build_parser()
    assert run(capsys, "poly", "H", "4", "2")[:2] == (0, "-3 0 1\n")
    assert cli._build_parser() is parser


def test_usage_error_after_a_successful_call(capsys):
    assert run(capsys, "catalog")[0] == 0
    with pytest.raises(SystemExit) as info:
        main(["scan", "--k", "4"])
    assert info.value.code == 2
    assert run(capsys, "moore", "3", "6")[:2] == (0, "14\n")


def test_parser_is_not_built_at_import():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import cage_spectra.cli as c; print(c._build_parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "0\n"


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


def count_bfs_passes(monkeypatch):
    """Record the order of the graph of every all-roots BFS pass, from a cold
    catalog: the next catalog graph is built anew, without an analysis."""
    catalog.cache_clear()
    passes = []
    bfs = graphs._all_roots_bfs

    def counted(adjacency):
        passes.append(len(adjacency))
        return bfs(adjacency)

    monkeypatch.setattr(graphs, "_all_roots_bfs", counted)
    return passes


def test_verify_analyses_each_graph_once(monkeypatch, capsys):
    passes = count_bfs_passes(monkeypatch)
    code, _, _ = run(capsys, "verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "0")
    assert code == 0
    # one all-roots pass over the one graph, shared by its load-time girth check
    assert passes == [14]
    assert trace_identity_check(catalog("heawood"), 3, 3).ok
    assert passes == [14]  # the trace oracle reads the same analysis


def test_verify_computes_one_structural_verdict_per_graph(monkeypatch, capsys):
    catalog.cache_clear()  # a graph built anew has no verdict yet
    verdicts = []
    compute = graphs._verdict

    def counted(graph, *args):
        verdicts.append(args)
        return compute(graph, *args)

    monkeypatch.setattr(graphs, "_verdict", counted)
    code, _, _ = run(capsys, "verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "0")
    assert code == 0
    assert verdicts == [(3, 3, 0)]  # shared by the check, the identities and the cross-check


def test_verify_structural_failure_skips_identity_kernels(monkeypatch, capsys):
    """A rejected candidate costs the one BFS pass: no A_i, no matrix kernel."""
    passes = count_bfs_passes(monkeypatch)

    def never(*args):
        raise AssertionError("built or entered after a structural failure")

    monkeypatch.setattr(graphs.GraphAnalysis, "distance_matrix", never)
    for kernel in ("pack_bitsets", "packed_product", "packed_max_abs"):
        monkeypatch.setattr(_intmat, kernel, never)
    code, out, _ = run(capsys, "verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "2")
    assert code == 1 and "FAIL" in out
    assert passes == [14]


def test_dumps_canonical_floats():
    assert dumps_canonical({"a": 1.0, "b": 0.1234567890123456}) == '{"a":1,"b":0.123456789012}'
    assert dumps_canonical([True, None, 3]) == "[true,null,3]"
