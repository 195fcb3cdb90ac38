import sys

import pytest

import cage_spectra.cli
import inputs
import run
from tracing import Tracer
from worker import run_item


def bindings():
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "cage_spectra" or name.startswith("cage_spectra.")
        for attr, obj in vars(module).items()
    }


def test_install_wraps_every_binding_and_restore_puts_back():
    before = bindings()
    original = cage_spectra.polynomials.dickson_family
    tracer = Tracer()
    tracer.install()
    try:
        for module in (cage_spectra.polynomials, cage_spectra.feasibility, cage_spectra.graphs,
                       cage_spectra.intersection, cage_spectra.cli, cage_spectra):
            assert module.dickson_family is not original
        assert cage_spectra._intmat.matmul.__wrapped__ is not None
        assert "feasibility.scan" not in tracer.wrapped  # generators stay unwrapped
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_and_count():
    tracer = Tracer()
    tracer.install()
    try:
        out = run_item(cage_spectra.cli.main, ["feasibility", "4", "3", "2", "--format", "csv"])
        with pytest.raises(cage_spectra.ParameterDomainError):
            cage_spectra.feasibility.isolate_roots(4, 3, 2, 5)
    finally:
        tracer.restore()
    assert out["exit"] == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["feasibility.isolate_roots"] == 3
    assert tracer.errors["feasibility.isolate_roots"] == 1
    assert tracer.counters["feasibility.roots"] == 4
    spans = {span[1]: span for span in tracer.spans}
    main = next(s for s in spans.values() if s[3] == "cli.main")
    for item, _, parent, name, start, end, _ in spans.values():
        assert start <= end
        if parent >= 0:
            assert spans[parent][4] <= start and end <= spans[parent][5]
    assert all(s[2] >= main[1] for s in spans.values() if s is not main and s[4] < main[5])
    assert 0 <= tracer.self_s["cli.main"] <= main[5] - main[4]


def test_absent_function_reads_zero(tmp_path, capsys):
    workload = inputs.build("paper-grid", 0, tmp_path)
    trace = {"wrapped": [name for name in run.TRACED if name != "polynomials.dickson_family"],
             "calls": {}, "errors": {}, "self_s": {}, "counters": {}}
    metrics = run.per_layer(workload, {"wall_s": 2.0}, {"wall_s": 2.2, "trace": trace})
    assert metrics["polynomials.dickson_family.calls"] == 0
    assert metrics["polynomials.dickson_family.calls_per_triple"] == 0
    assert metrics.keys() == run.per_layer_units().keys()
    assert metrics["trace_overhead_frac"] == pytest.approx(0.1)
    assert "polynomials.dickson_family" in capsys.readouterr().err
