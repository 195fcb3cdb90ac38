import math
from fractions import Fraction

import pytest

from cage_spectra import (
    BracketSeedError,
    EvenHalfGirthError,
    ExcessRangeError,
    IllConditionedError,
    OddExcessError,
    ParameterDomainError,
    RegimeViolationError,
    RootRecord,
    SkippedTriple,
    VERDICT_ADMISSIBLE,
    VERDICT_GAP,
    build_bd,
    f_weight,
    g_weight,
    gap_check,
    isolate_roots,
    moore_bound,
    multiplicity_closed_form,
    multiplicity_symmetry_checks,
    multiplicity_trig,
    scan,
    spectral_feasibility,
)
from cage_spectra.intersection import bd_moments
from oracles import RatInterval, bracket_interval, enclosure_interval, transcendental_residual

ACCEPTANCE_TRIPLES = [(4, 3, 2), (5, 5, 2), (6, 5, 4), (7, 7, 2), (8, 7, 6)]


# ---------------------------------------------------------------------------
# root isolation

def test_isolate_roots_worked_instance():
    plus = isolate_roots(4, 3, 2, 1)
    assert [r.theta for r in plus] == pytest.approx([-2.0, 2.0], abs=1e-15)
    minus = isolate_roots(4, 3, 2, -1)
    assert [r.theta for r in minus] == pytest.approx(
        [-math.sqrt(2), math.sqrt(2)], abs=1e-15
    )
    # brackets certify the exact roots -2, 2, -sqrt(2), sqrt(2)
    low, high = (bracket_interval(r.bracket) for r in plus)
    assert low.lo <= -2 <= low.hi and high.lo <= 2 <= high.hi
    bracket = bracket_interval(minus[1].bracket)
    assert 0 < bracket.lo and bracket.square().lo <= 2 <= bracket.square().hi
    bracket = bracket_interval(minus[0].bracket)
    assert bracket.hi < 0 and bracket.square().lo <= 2 <= bracket.square().hi
    for r in plus + minus:
        assert bracket_interval(r.bracket).width < Fraction(1, 2**60)


def test_isolate_roots_case_interval():
    # i = 1 for epsilon = 1 at (4, 3, 2): eta = +1 and phi sits inside
    # (pi/(3 + 1/3), pi/3); the root is theta = -2 = -2*sqrt(3)*cos(phi)
    record = isolate_roots(4, 3, 2, 1)[0]
    assert record.i == 1 and record.eta == 1
    assert math.pi / (3 + 1 / 3) < record.phi < math.pi / 3
    assert record.phi == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-12)


@pytest.mark.parametrize("k,d,e", ACCEPTANCE_TRIPLES)
def test_isolate_roots_structure(k, d, e):
    from cage_spectra import dickson_family

    s = math.sqrt(k - 1)
    s_pow = (k - 1) ** (-(d - 1) / 2)
    h = dickson_family("H", k, d - 1)
    for eps in (1, -e // 2):
        records = isolate_roots(k, d, e, eps)
        assert len(records) == d - 1
        thetas = [r.theta for r in records]
        assert thetas == sorted(thetas)
        for r in records:
            assert abs(h(r.theta) - eps) < 1e-6
            assert bracket_interval(r.bracket).width < Fraction(1, 2**60)
            assert r.eta == eps * (-1) ** (d + r.i)
            # theta inside the image of its angular case interval
            a = abs(r.eta)
            if r.eta > 0:
                phi_lo, phi_hi = r.i * math.pi / (d + a * s_pow), r.i * math.pi / d
            else:
                phi_lo, phi_hi = r.i * math.pi / d, r.i * math.pi / (d - a * s_pow)
            assert phi_lo < r.phi < phi_hi
            assert r.theta == pytest.approx(-2 * s * math.cos(r.phi), rel=1e-12)
            # alpha sign matches the eta case
            assert (r.alpha > 0) == (r.eta > 0)
            bound = a * s_pow * min(r.phi, math.pi - r.phi)
            assert abs(r.alpha) < bound


def test_isolate_roots_bracket_sign_certified():
    from cage_spectra.feasibility import _family_poly, _sign_dyadic

    for eps in (1, -1):
        coeffs = _family_poly(5, 5, eps)
        for r in isolate_roots(5, 5, 2, eps):
            lo, hi, shift = r.bracket
            if lo == hi:
                continue
            assert _sign_dyadic(coeffs, lo, shift) * _sign_dyadic(coeffs, hi, shift) < 0


def test_isolate_roots_returns_a_new_list_each_call():
    first = isolate_roots(6, 7, 2, 1)
    expected = list(first)
    first.reverse()
    first.append(None)
    again = isolate_roots(6, 7, 2, 1)
    assert again == expected and again is not first
    # the epsilon = 1 family does not depend on e
    assert isolate_roots(6, 7, 4, 1) == expected


def test_isolate_roots_errors_name_the_callers_e(monkeypatch):
    from cage_spectra import feasibility

    monkeypatch.setattr(feasibility, "_ROOTS", {})
    monkeypatch.setattr(feasibility, "_sign_dyadic", lambda coeffs, num, shift: 1)
    for e in (2, 14):
        with pytest.raises(BracketSeedError) as info:
            isolate_roots(16, 7, e, 1)
        assert f"(k=16, d=7, e={e}, eps=1, i=1)" in str(info.value)
    assert feasibility._ROOTS == {}  # a failed isolation is not cached


def test_isolate_roots_domain():
    with pytest.raises(ParameterDomainError):
        isolate_roots(4, 3, 2, 2)  # epsilon must be 1 or -e/2
    with pytest.raises(EvenHalfGirthError):
        isolate_roots(4, 4, 2, 1)


def test_transcendental_residual():
    for r in isolate_roots(4, 3, 2, 1):
        assert abs(transcendental_residual(r, 4, 3)) < 1e-9
    for r in isolate_roots(7, 7, 2, -1):
        assert abs(transcendental_residual(r, 7, 7)) < 1e-9


def test_transcendental_residual_negative_control():
    real = isolate_roots(4, 3, 2, 1)[0]
    fake = RootRecord(
        i=real.i, epsilon=real.epsilon, eta=real.eta, theta=real.theta,
        phi=real.phi, alpha=0.0, bracket=real.bracket,
    )
    # with alpha forced to zero the residual is -eta * s^(1-d) * sin(i*pi/d) != 0
    assert abs(transcendental_residual(fake, 4, 3)) > 1e-3


def test_transcendental_residual_rejects_zero_epsilon():
    real = isolate_roots(4, 3, 2, 1)[0]
    fake = RootRecord(
        i=1, epsilon=0, eta=0, theta=real.theta, phi=real.phi,
        alpha=real.alpha, bracket=real.bracket,
    )
    with pytest.raises(ParameterDomainError):
        transcendental_residual(fake, 4, 3)


# ---------------------------------------------------------------------------
# multiplicity formulas

def test_multiplicity_closed_form_worked_instance():
    assert multiplicity_closed_form(4, 3, 2, 1, 2.0) == pytest.approx(7.0, rel=1e-12)
    assert multiplicity_closed_form(4, 3, 2, 1, -2.0) == pytest.approx(7.0, rel=1e-12)
    assert multiplicity_closed_form(4, 3, 2, -1, math.sqrt(2)) == pytest.approx(6.0, rel=1e-12)


def test_multiplicity_closed_form_ill_conditioned():
    with pytest.raises(IllConditionedError):
        multiplicity_closed_form(4, 3, 2, 1, 4.0)  # theta = k kills k^2 - theta^2
    with pytest.raises(IllConditionedError):
        multiplicity_closed_form(4, 3, 2, -1, 0.0)  # H'_2(0) = 0


def test_f_weight():
    assert f_weight(4, 0.0) == 0.75
    for z in (0.1, 0.33, 0.84, 0.999):
        assert f_weight(5, z) == f_weight(5, -z)  # exact in binary64: uses z*z only
    with pytest.raises(ParameterDomainError):
        f_weight(4, 1.0)
    with pytest.raises(ParameterDomainError):
        f_weight(2, 0.5)


def test_f_weight_vanishes_at_edges():
    for k in (3, 5, 9):
        assert f_weight(k, 1 - 1e-12) == pytest.approx(0.0, abs=1e-10)
        assert f_weight(k, -1 + 1e-12) == pytest.approx(0.0, abs=1e-10)


def test_f_weight_concavity():
    for k in (3, 4, 8):
        zs = [-0.99 + 1.98 * j / 99 for j in range(100)]
        values = [f_weight(k, z) for z in zs]
        second = [values[j + 1] - 2 * values[j] + values[j - 1] for j in range(1, 99)]
        assert all(x <= 0 for x in second)


def test_g_weight_frozen_value():
    assert g_weight("g1", 4, 3, 2, 1 / math.sqrt(3)) == pytest.approx(4.5, rel=1e-12)


def test_g_weight_g2_g3_agree_at_zero():
    for (k, d, e) in ACCEPTANCE_TRIPLES:
        assert g_weight("g2", k, d, e, 0.0) == pytest.approx(
            g_weight("g3", k, d, e, 0.0), rel=1e-15
        )


@pytest.mark.parametrize("k,d,e", [(4, 3, 2), (6, 5, 4), (8, 7, 6)])
def test_g_weight_monotonicity(k, d, e):
    zs = [-0.98 + 1.96 * j / 49 for j in range(50)]
    g1 = [g_weight("g1", k, d, e, z) for z in zs]
    g2 = [g_weight("g2", k, d, e, z) for z in zs]
    g3 = [g_weight("g3", k, d, e, z) for z in zs]
    assert all(b > a for a, b in zip(g1, g1[1:]))
    assert all(b < a for a, b in zip(g2, g2[1:]))
    assert all(b > a for a, b in zip(g3, g3[1:]))


def test_g_weight_regime_violation():
    # e far beyond k - 2 pushes the radicand of g2/g3 negative
    with pytest.raises(RegimeViolationError):
        g_weight("g2", 3, 3, 10, 0.1)
    with pytest.raises(ParameterDomainError):
        g_weight("g4", 4, 3, 2, 0.0)
    with pytest.raises(ParameterDomainError):
        g_weight("g1", 4, 3, 2, 1.5)


def test_multiplicity_trig_worked_instance():
    # eps = 1, i = 2, theta = 2: (56/24) * f(-1/sqrt(3)) * g1(1/sqrt(3)) = 7
    record = isolate_roots(4, 3, 2, 1)[1]
    assert record.i == 2 and record.eta == -1
    assert f_weight(4, math.cos(record.phi)) == pytest.approx(2 / 3, rel=1e-12)
    assert multiplicity_trig(4, 3, 2, record) == pytest.approx(7.0, rel=1e-12)
    # eps = -1, i = 1, theta = -sqrt(2) goes through the g2 branch
    record = isolate_roots(4, 3, 2, -1)[0]
    assert multiplicity_trig(4, 3, 2, record) == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("k,d,e", ACCEPTANCE_TRIPLES)
def test_dual_formula_agreement(k, d, e):
    for eps in (1, -e // 2):
        for record in isolate_roots(k, d, e, eps):
            closed = multiplicity_closed_form(k, d, e, eps, record.theta)
            trig = multiplicity_trig(k, d, e, record)
            assert abs(trig - closed) <= 1e-6 * abs(closed)


# ---------------------------------------------------------------------------
# symmetry and minimality of multiplicities

def test_symmetry_checks_small():
    report = multiplicity_symmetry_checks(4, 3, 2)
    assert report.symmetry_ok
    assert report.mu_minimality_vacuous
    assert report.lambda_minimality_vacuous


def test_symmetry_checks_d5():
    report = multiplicity_symmetry_checks(5, 5, 2)
    assert report.symmetry_ok
    assert report.mu_minimality_vacuous  # needs 3 <= i <= d-3, empty at d=5
    assert not report.lambda_minimality_vacuous
    assert report.lambda_minimality_margin > 0


def test_symmetry_checks_d7():
    report = multiplicity_symmetry_checks(7, 7, 2)
    assert report.ok
    assert report.mu_minimality_margin > 0
    assert report.lambda_minimality_margin > 0


@pytest.mark.parametrize("k,d,e", ACCEPTANCE_TRIPLES)
def test_symmetry_under_negation(k, d, e):
    report = multiplicity_symmetry_checks(k, d, e)
    assert report.symmetry_max_rel_dev <= 1e-6


# ---------------------------------------------------------------------------
# the gap exclusion

def test_gap_check_excludes():
    verdict = gap_check(4, 7, 2)
    assert verdict.applicable and verdict.excluded
    assert verdict.verdict == VERDICT_GAP
    assert 0 < verdict.lo <= verdict.hi < 1
    assert not verdict.contains_integer
    assert verdict.within_unit_interval
    assert float(verdict.hi) < verdict.analytic_bound
    assert verdict.chain_ok


def test_gap_check_excludes_e4():
    verdict = gap_check(6, 9, 4)
    assert verdict.excluded
    assert 0 < verdict.lo and verdict.hi < 1


def test_gap_check_outside_regime():
    verdict = gap_check(4, 3, 2)
    assert not verdict.applicable
    assert verdict.verdict == "outside-regime"
    assert not verdict.excluded


def test_gap_chain_values_ordering():
    verdict = gap_check(5, 7, 2)
    lhs, mid1, mid2, rhs = verdict.chain_values
    assert lhs > mid1 >= mid2 > rhs


# ---------------------------------------------------------------------------
# full reports

def test_spectral_feasibility_worked_instance():
    report = spectral_feasibility(4, 3, 2)
    assert report.final_verdict == VERDICT_ADMISSIBLE
    assert report.n == 28 == moore_bound(4, 6) + 2
    assert report.spectrum() == [
        (-4.0, 1),
        (pytest.approx(-2.0), 7),
        (pytest.approx(-math.sqrt(2)), 6),
        (pytest.approx(math.sqrt(2)), 6),
        (pytest.approx(2.0), 7),
        (4.0, 1),
    ]
    assert report.all_integral and report.all_positive
    for assessment in report.assessments:
        enclosure = enclosure_interval(assessment.enclosure)
        assert enclosure.contained_integer() == assessment.integer
        assert enclosure.width < Fraction(1, 10**6)
    assert report.sum_ok and report.sum_value == pytest.approx(26.0, rel=1e-12)
    assert report.moment_check.ok


def test_spectral_feasibility_gap_regime():
    report = spectral_feasibility(5, 7, 2)
    assert report.final_verdict == VERDICT_GAP
    assert report.gap is not None and report.gap.excluded
    # the moment identity still holds even though the triple is excluded
    assert report.moment_check.ok
    assert report.sum_ok


def test_spectral_feasibility_negative_controls():
    with pytest.raises(OddExcessError):
        spectral_feasibility(4, 3, 3)
    with pytest.raises(EvenHalfGirthError):
        spectral_feasibility(4, 4, 2)
    with pytest.raises(ExcessRangeError):
        spectral_feasibility(3, 3, 2)
    with pytest.raises(ExcessRangeError):
        spectral_feasibility(4, 3, 0)


@pytest.mark.parametrize("k", [4, 6, 8, 10])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_moment_identity_invariant(k, d):
    for e in (2, 4):
        if e > k - 2:
            continue
        report = spectral_feasibility(k, d, e)
        assert report.moment_check.ok, (k, d, e, report.moment_check)
        # recompute the worst case directly against the oracle
        walks = bd_moments(build_bd(k, d), 2 * d)
        for q in range(2 * d):
            lhs = sum(a.closed_form * a.record.theta ** q for a in report.assessments)
            lhs += float(k) ** q + float(-k) ** q
            rhs = float(report.n * walks[q])
            scale = max(abs(rhs), sum(abs(a.closed_form * a.record.theta ** q)
                                      for a in report.assessments) + 2.0 * float(k) ** q)
            assert abs(lhs - rhs) <= 1e-6 * scale


def test_multiplicity_sum_invariant():
    for (k, d, e) in ACCEPTANCE_TRIPLES:
        report = spectral_feasibility(k, d, e)
        assert abs(report.sum_value - (report.n - 2)) <= 1e-6 * report.n


def test_enclosures_certify_worked_integers():
    report = spectral_feasibility(4, 3, 2)
    by_theta = {round(a.record.theta, 6): a for a in report.assessments}
    assert by_theta[2.0].integer == 7
    assert by_theta[-2.0].integer == 7
    assert by_theta[round(math.sqrt(2), 6)].integer == 6
    assert by_theta[round(-math.sqrt(2), 6)].integer == 6


# ---------------------------------------------------------------------------
# scan

def test_scan_empty():
    assert list(scan([], [3], [2])) == []


def test_scan_orders_and_skips():
    items = list(scan([4, 5], [3], [2, 4]))
    assert [(x.k, x.d, x.e) for x in items] == [(4, 3, 2), (4, 3, 4), (5, 3, 2), (5, 3, 4)]
    assert items[0].final_verdict == VERDICT_ADMISSIBLE
    assert isinstance(items[1], SkippedTriple)  # e = 4 > k - 2 at k = 4
    assert items[1].final_verdict == "outside-regime"
    assert "e <= k - 2" in items[1].reason


def test_scan_gap_regime_row():
    items = list(scan([4], [7], [2]))
    assert len(items) == 1
    assert items[0].final_verdict == VERDICT_GAP


# ---------------------------------------------------------------------------
# the interval oracle the certificates are tested against

def test_rat_interval_arithmetic():
    a = RatInterval(Fraction(1, 3), Fraction(1, 2))
    b = RatInterval(Fraction(-2), Fraction(3))
    assert (a + b).lo == Fraction(-5, 3)
    assert (a * b).lo == Fraction(-1) and (a * b).hi == Fraction(3, 2)
    assert b.square().lo == 0 and b.square().hi == 9
    assert RatInterval(Fraction(-3), Fraction(-2)).square() == RatInterval(Fraction(4), Fraction(9))
    assert (a / RatInterval(Fraction(2), Fraction(4))).lo == Fraction(1, 12)
    with pytest.raises(ZeroDivisionError):
        a / b
    assert RatInterval(Fraction(13, 10), Fraction(17, 10)).contained_integer_count() == 0
    assert RatInterval(Fraction(19, 10), Fraction(21, 10)).contained_integer() == 2
    assert RatInterval(Fraction(0), Fraction(3)).contained_integer() is None
