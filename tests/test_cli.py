import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import g6ref
from cage_spectra import _intmat, catalog, cli, graphs
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


def test_scan_deep_girth_matches_benchmark_golden(capsys):
    """The 21 deep-girth triples, one scan each; the four that fail print a
    BracketSeedError whose alpha digits depend on the exact root bracket."""
    golden = json.loads((GOLDEN_DIR / "deep-girth.json").read_text())
    assert len(golden) == 21
    for key, expected in golden.items():
        k, d, e = key.split(",")
        code, out, err = run(capsys, "scan", "--k", k, "--d", d, "--e", e, "--format", "csv")
        assert (code, out, err) == (expected["exit"], expected["stdout"], expected["stderr"]), key


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
    catalog("heawood")  # its load-time girth check is not part of verify
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
    assert passes == [14]  # one all-roots pass over the one graph


def test_verify_computes_one_structural_verdict_per_graph(monkeypatch, capsys):
    verdicts = []
    compute = graphs._verdict

    def counted(analysis, *args):
        verdicts.append(args)
        return compute(analysis, *args)

    monkeypatch.setattr(graphs, "_verdict", counted)
    code, _, _ = run(capsys, "verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "0")
    assert code == 0
    assert verdicts == [(3, 3, 0)]  # shared by the check and all three verifiers


def test_verify_structural_failure_skips_identity_kernels(monkeypatch, capsys):
    """A rejected candidate costs the one BFS pass: no n x n distance rows, no
    A_i, no matrix kernel."""
    passes = count_bfs_passes(monkeypatch)

    def never(*args):
        raise AssertionError("built or entered after a structural failure")

    monkeypatch.setattr(graphs.GraphAnalysis, "distances", property(never))
    monkeypatch.setattr(graphs.GraphAnalysis, "distance_matrix", never)
    for kernel in ("adjacency_matmul", "adjacency_eval_poly", "mat_add"):
        monkeypatch.setattr(_intmat, kernel, never)
    code, out, _ = run(capsys, "verify", "catalog:heawood", "--k", "3", "--d", "3", "--e", "2")
    assert code == 1 and "FAIL" in out
    assert passes == [14]


def test_dumps_canonical_floats():
    assert dumps_canonical({"a": 1.0, "b": 0.1234567890123456}) == '{"a":1,"b":0.123456789012}'
    assert dumps_canonical([True, None, 3]) == "[true,null,3]"
