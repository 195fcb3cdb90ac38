"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cage_spectra import (
    EvenHalfGirthError,
    ExcessRangeError,
    OddExcessError,
    catalog,
    isolate_roots,
    minimal_polynomial_check,
    moore_bound,
    scan,
    spectral_feasibility,
    structural_check,
    trace_identity_check,
)
from cage_spectra.cli import _verify_one
from oracles import (
    enclosure_interval,
    exact_moments,
    f_weight,
    gap_chain_holds,
    g_weight,
    identity_residual,
    minimality_margins,
    mp_multiplicities,
    multiplicity_closed_form,
    multiplicity_trig,
    tree_closed_walks,
)

DUAL_FORMULA_TRIPLES = [(4, 3, 2), (5, 5, 2), (6, 5, 4), (7, 7, 2), (8, 7, 6)]


@contextmanager
def criterion(cid: str, slug: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"{cid} took {elapsed:.2f}s, budget {budget:.0f}s")
    except BaseException:
        print(f"[acceptance] {cid} {slug}: FAIL")
        raise
    print(f"[acceptance] {cid} {slug}: PASS ({elapsed:.2f}s)")


def test_c1_moore_bound_regression():
    with criterion("C1", "moore-bound-regression", budget=1.0):
        assert moore_bound(3, 6) == 14
        assert moore_bound(4, 6) == 26
        assert moore_bound(3, 8) == 30
        for k in range(3, 11):
            assert moore_bound(k, 4) == 2 * k


def test_c2_exact_identity_suite():
    with criterion("C2", "exact-identity-suite", budget=1.0):
        heawood = catalog("heawood")
        tutte_coxeter = catalog("tutte_coxeter")
        for graph, d in ((heawood, 3), (tutte_coxeter, 4)):
            # the structural check proves both identities; the oracle computes them
            assert structural_check(graph, 3, d, 0).passed
            assert identity_residual(graph, 3, d) == 0
            result = _verify_one("graph", graph, 3, d, 0)
            assert result["path_count_residual"] == result["allones_residual"] == 0


def test_c3_trace_oracle():
    with criterion("C3", "trace-oracle", budget=1.0):
        for name, k, d in (
            ("heawood", 3, 3),
            ("tutte_coxeter", 3, 4),
            ("pg23_incidence", 4, 3),
        ):
            report = trace_identity_check(catalog(name), k, d)
            assert report.ok, (name, report.first_failure)


def test_c4_minimal_polynomial_residuals():
    with criterion("C4", "minimal-polynomial-residuals", budget=1.0):
        for k in range(3, 8):
            for D in range(2, 9):
                report = minimal_polynomial_check(k, D)
                assert report.residual == 0
                assert report.square_factor_nonzero and report.h_factor_nonzero


def test_c5_worked_multiplicity_instance():
    with criterion("C5", "worked-multiplicity-instance", budget=1.0):
        report = spectral_feasibility(4, 3, 2)
        assert report.n == 28 == moore_bound(4, 6) + 2
        spectrum = {round(theta, 9): m for theta, m in report.spectrum()}
        assert spectrum[4.0] == 1 and spectrum[-4.0] == 1
        assert spectrum[2.0] == 7 and spectrum[-2.0] == 7
        assert spectrum[round(math.sqrt(2), 9)] == 6
        assert spectrum[round(-math.sqrt(2), 9)] == 6
        assert sum(m for _, m in report.spectrum()) == 28
        for record, assessment in zip(report.roots, report.assessments):
            assert enclosure_interval(assessment.enclosure).contained_integer_count() == 1
            assert assessment.integer >= 1
            closed = multiplicity_closed_form(4, 3, 2, record.epsilon, record.theta)
            assert abs(closed - round(closed)) <= 1e-6
        # the moment identity q = 0..5, exactly: 28 times the tree's closed walks
        assert exact_moments(4, 3, 2) == [28 * w for w in tree_closed_walks(4, 6)] == [
            28, 0, 112, 0, 784, 0,
        ]
        assert report.final_verdict == "spectrally-admissible"


def test_c6_dual_formula_agreement():
    with criterion("C6", "dual-formula-agreement", budget=5.0):
        for (k, d, e) in DUAL_FORMULA_TRIPLES:
            for eps in (1, -e // 2):
                for record in isolate_roots(k, d, e, eps):
                    closed = multiplicity_closed_form(k, d, e, eps, record.theta)
                    trig = multiplicity_trig(k, d, e, record)
                    assert abs(trig - closed) <= 1e-6 * abs(closed), (k, d, e, record.i)


def test_c7_gap_exclusion_scan():
    with criterion("C7", "gap-exclusion-scan", budget=60.0):
        in_regime = 0
        for item in scan(range(4, 21), (7, 9, 11), (2, 4, 6)):
            if item.final_verdict == "outside-regime":
                assert item.e > item.k - 2  # only invalid triples are skipped
                continue
            in_regime += 1
            assert item.final_verdict == "excluded-by-gap", (item.k, item.d, item.e)
            gap = item.gap
            assert gap is not None and gap.excluded
            assert Fraction(0) < gap.lo <= gap.hi < Fraction(1)
            assert not gap.contains_integer
            assert gap.within_unit_interval
            assert float(gap.hi) < item.analytic_gap_bound
            # the closing inequality chain, checked exactly for each triple
            assert gap_chain_holds(item.k, item.d, item.e)
        assert in_regime == 135


def test_c8_property_suites():
    with criterion("C8", "property-suites", budget=30.0):
        # f: even exactly in arithmetic, concave on a 100-point grid
        for k in (3, 4, 8):
            zs = [-0.99 + 1.98 * j / 99 for j in range(100)]
            for z in zs:
                assert f_weight(k, z) == f_weight(k, -z)
            values = [f_weight(k, z) for z in zs]
            assert all(
                values[j + 1] - 2 * values[j] + values[j - 1] <= 0 for j in range(1, 99)
            )
        # g1/g3 increasing and g2 decreasing on 50-point grids
        for (k, d, e) in ((4, 3, 2), (6, 5, 4), (8, 7, 6)):
            zs = [-0.98 + 1.96 * j / 49 for j in range(50)]
            g1 = [g_weight("g1", k, d, e, z) for z in zs]
            g2 = [g_weight("g2", k, d, e, z) for z in zs]
            g3 = [g_weight("g3", k, d, e, z) for z in zs]
            assert all(b > a for a, b in zip(g1, g1[1:]))
            assert all(b < a for a, b in zip(g2, g2[1:]))
            assert all(b > a for a, b in zip(g3, g3[1:]))
        # multiplicity symmetry under negation at every dual-formula triple,
        # at roots the oracle isolates independently (the package mirrors
        # theta_{d-i} from theta_i, so its own roots are symmetric by
        # construction)
        for (k, d, e) in DUAL_FORMULA_TRIPLES:
            for eps in (1, -e // 2):
                m = mp_multiplicities(k, d, e, eps)
                for i in range(1, d):
                    mirror = m[d - i - 1]
                    assert abs(m[i - 1] - mirror) <= 1e-6 * abs(mirror), (k, d, e, eps, i)
        # strict minimality inequalities with positive margins at (7, 7, 2)
        mu_margin, lambda_margin = minimality_margins(7, 7, 2)
        assert mu_margin is not None and mu_margin > 0
        assert lambda_margin is not None and lambda_margin > 0


def test_c9_negative_controls():
    with criterion("C9", "negative-controls", budget=1.0):
        with pytest.raises(OddExcessError):
            spectral_feasibility(4, 3, 3)
        with pytest.raises(EvenHalfGirthError):
            spectral_feasibility(4, 4, 2)
        with pytest.raises(ExcessRangeError):
            spectral_feasibility(3, 3, 2)
