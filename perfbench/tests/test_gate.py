import json

import gate
import inputs


def outcome(key, stdout, exit=0, stderr="", exception=None):
    return {"key": key, "exit": exit, "stdout": stdout, "stderr": stderr, "exception": exception}


def grid_outcomes(items):
    rows = {tuple(int(x) for x in row.split(",")[:3]): row + "\n"
            for row in gate.load_goldens("paper-grid").splitlines()[1:]}
    return [outcome(item.key, gate.CSV_HEADER + rows[item.triple]) for item in items]


def test_golden_grid_passes(tmp_path):
    items = inputs.build("paper-grid", 3, tmp_path).items
    assert gate.check_pass("paper-grid", items, grid_outcomes(items), gate.load_goldens("paper-grid")) == []


def test_altered_grid_row_is_rejected(tmp_path):
    items = inputs.build("paper-grid", 3, tmp_path).items
    outcomes = grid_outcomes(items)
    outcomes[7]["stdout"] = outcomes[7]["stdout"].replace("excluded-by-gap", "spectrally-admissible")
    outcomes[7]["stdout"] = outcomes[7]["stdout"].replace("outside-regime", "excluded-by-gap")
    problems = gate.check_pass("paper-grid", items, outcomes, gate.load_goldens("paper-grid"))
    assert problems == ["concatenated rows differ from the paper-grid golden"]


def test_failed_grid_item_is_rejected(tmp_path):
    items = inputs.build("paper-grid", 3, tmp_path).items
    outcomes = grid_outcomes(items)
    outcomes[0] = outcome(items[0].key, gate.CSV_HEADER, exit=1, stderr="error: boom\n")
    problems = gate.check_pass("paper-grid", items, outcomes, gate.load_goldens("paper-grid"))
    assert problems[0].startswith(items[0].key) and len(problems) == 2


def test_deep_girth_failure_may_become_a_verdict(tmp_path):
    golden = gate.load_goldens("deep-girth")
    item = next(i for i in inputs.build("deep-girth", 0, tmp_path).items if i.key == "16,27,2")
    assert gate.failed(golden[item.key])
    n = inputs.moore_bound(16, 54) + 2
    fixed = outcome(item.key, gate.CSV_HEADER + f"16,27,2,{n},excluded-by-gap,1e-16,2e-16,0.1\n")
    assert gate.check_item("deep-girth", item, fixed, golden) is None
    wrong_n = outcome(item.key, gate.CSV_HEADER + f"16,27,2,{n + 1},excluded-by-gap,1e-16,2e-16,0.1\n")
    assert "malformed" in gate.check_item("deep-girth", item, wrong_n, golden)
    crash = outcome(item.key, gate.CSV_HEADER, exit=None, exception="RuntimeError: x")
    assert gate.check_item("deep-girth", item, crash, golden) is not None


def test_verify_deviation_has_a_tolerance_not_an_exact_golden(tmp_path):
    golden = gate.load_goldens("verify-algebraic")
    item = next(i for i in inputs.build("verify-algebraic", 0, tmp_path).items if i.key == "pg2_5.g6:1")
    result = dict(golden[item.key])
    result["crosscheck_max_deviation"] = 3e-14
    assert gate.check_item("verify-algebraic", item, outcome(item.key, json.dumps([result])), golden) is None
    result["crosscheck_max_deviation"] = 1e-6
    assert "deviation" in gate.check_item("verify-algebraic", item, outcome(item.key, json.dumps([result])), golden)
    result["crosscheck_max_deviation"] = 3e-14
    result["path_count_residual"] = 1
    assert "differs" in gate.check_item("verify-algebraic", item, outcome(item.key, json.dumps([result])), golden)
