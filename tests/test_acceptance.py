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
    f_weight,
    g_weight,
    isolate_roots,
    minimal_polynomial_check,
    moore_bound,
    multiplicity_closed_form,
    multiplicity_symmetry_checks,
    multiplicity_trig,
    scan,
    spectral_feasibility,
    trace_identity_check,
    verify_allones_identity,
    verify_path_count_identity,
)
from oracles import enclosure_interval

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
        assert verify_path_count_identity(heawood, 3, 3, 0).residual == 0
        assert verify_allones_identity(heawood, 3, 3, 0).residual == 0
        assert verify_path_count_identity(tutte_coxeter, 3, 4, 0).residual == 0
        assert verify_allones_identity(tutte_coxeter, 3, 4, 0).residual == 0


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
        for assessment in report.assessments:
            assert enclosure_interval(assessment.enclosure).contained_integer_count() == 1
            assert assessment.deviation <= 1e-6
        assert report.moment_check.ok and report.moment_check.worst_q <= 5
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
            assert float(gap.hi) < gap.analytic_bound
            # closing inequality chain, verified numerically for each triple
            lhs, k1d, e1d, four_pi = gap.chain_values
            assert lhs > k1d >= e1d > four_pi
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
        # multiplicity symmetry under negation at every dual-formula triple
        for (k, d, e) in DUAL_FORMULA_TRIPLES:
            report = multiplicity_symmetry_checks(k, d, e)
            assert report.symmetry_max_rel_dev <= 1e-6
        # strict minimality inequalities with positive margins at (7, 7, 2)
        report = multiplicity_symmetry_checks(7, 7, 2)
        assert report.mu_minimality_margin is not None and report.mu_minimality_margin > 0
        assert (
            report.lambda_minimality_margin is not None
            and report.lambda_minimality_margin > 0
        )


def test_c9_negative_controls():
    with criterion("C9", "negative-controls", budget=1.0):
        with pytest.raises(OddExcessError):
            spectral_feasibility(4, 3, 3)
        with pytest.raises(EvenHalfGirthError):
            spectral_feasibility(4, 4, 2)
        with pytest.raises(ExcessRangeError):
            spectral_feasibility(3, 3, 2)
