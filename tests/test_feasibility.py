import math
import struct
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cage_spectra import (
    BracketSeedError,
    EvenHalfGirthError,
    ExcessRangeError,
    FeasibilityReport,
    IllConditionedError,
    OddExcessError,
    ParameterDomainError,
    RootRecord,
    SkippedTriple,
    VERDICT_ADMISSIBLE,
    VERDICT_GAP,
    VERDICT_INTEGRALITY,
    GapVerdict,
    derivative,
    dickson_family,
    feasibility,
    isolate_roots,
    moore_bound,
    multiplicity_closed_form,
    scan,
    spectral_feasibility,
)
from cage_spectra.cli import _report_json, _report_text
from oracles import (
    RatInterval,
    RegimeViolationError,
    bracket_interval,
    enclosure_interval,
    exact_moments,
    f_weight,
    gap_chain_holds,
    g_weight,
    minimality_margins,
    mp_multiplicities,
    multiplicity_trig,
    transcendental_residual,
    tree_closed_walks,
)

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
    phi, _ = feasibility._root_angles(4, 3, record)
    assert math.pi / (3 + 1 / 3) < phi < math.pi / 3
    assert phi == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-12)


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
            phi, alpha = feasibility._root_angles(k, d, r)
            assert abs(h(r.theta) - eps) < 1e-6
            assert bracket_interval(r.bracket).width < Fraction(1, 2**60)
            assert r.eta == eps * (-1) ** (d + r.i)
            # theta inside the image of its angular case interval
            a = abs(r.eta)
            if r.eta > 0:
                phi_lo, phi_hi = r.i * math.pi / (d + a * s_pow), r.i * math.pi / d
            else:
                phi_lo, phi_hi = r.i * math.pi / d, r.i * math.pi / (d - a * s_pow)
            assert phi_lo < phi < phi_hi
            assert r.theta == pytest.approx(-2 * s * math.cos(phi), rel=1e-12)
            # alpha sign matches the eta case
            assert (alpha > 0) == (r.eta > 0)
            bound = a * s_pow * min(phi, math.pi - phi)
            assert abs(alpha) < bound


def test_isolate_roots_bracket_sign_certified():
    from oracles import family_coefficients, horner_sign

    for eps in (1, -1):
        coeffs = family_coefficients(5, 5, eps)
        for r in isolate_roots(5, 5, 2, eps):
            lo, hi, shift = r.bracket
            if lo == hi:
                continue
            assert horner_sign(coeffs, lo, shift) * horner_sign(coeffs, hi, shift) < 0


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
    # `_bisect` finds no sign change across any seed
    monkeypatch.setattr(feasibility, "_bisect", lambda family, lo, hi, shift, bits, start: None)
    for e in (2, 14):
        with pytest.raises(BracketSeedError) as info:
            isolate_roots(16, 7, e, 1)
        assert f"(k=16, d=7, e={e}, eps=1, i=1)" in str(info.value)
    assert feasibility._ROOTS == {}  # a failed isolation is not cached


def test_a_bracket_outside_its_seed_raises(monkeypatch):
    """The exact containment catches a sign change of the wrong root: P is
    even, so the mirror of a root's bracket holds a sign change too, but it
    lies outside the seed."""
    monkeypatch.setattr(feasibility, "_ROOTS", {})
    bisect = feasibility._bisect

    def mirrored(family, lo, hi, shift, bits, start):
        lo, hi, shift = bisect(family, lo, hi, shift, bits, start)
        return -hi, -lo, shift

    monkeypatch.setattr(feasibility, "_bisect", mirrored)
    with pytest.raises(BracketSeedError, match=r"\(k=16, d=7, e=2, eps=1, i=1\) leaves its seed"):
        isolate_roots(16, 7, 2, 1)


def test_a_seed_not_certified_inside_its_case_interval_raises(monkeypatch):
    """At 40 bits the case interval of (16, 7) is about 2^26 ulp wide, so
    its 2^-30 shrink is below the ends' error bound: the seed could leave
    the interval, and isolation refuses it before any sign is taken."""
    monkeypatch.setattr(feasibility, "_ROOTS", {})
    monkeypatch.setattr(feasibility, "_seed_bits", lambda k, d: 40)
    monkeypatch.setattr(feasibility, "_bisect", None)  # never reached
    # the (k, d) tables are cached: build them at 40 bits, and drop them after
    feasibility._angle_tables.cache_clear()
    try:
        with pytest.raises(BracketSeedError, match=r"\(k=16, d=7, e=2, eps=1, i=1\) is not certified"):
            isolate_roots(16, 7, 2, 1)
    finally:
        feasibility._angle_tables.cache_clear()


@pytest.mark.parametrize("fault,message", [
    ("overlap", r"\(k=16, d=7, e=2, eps=1, i=2\) overlaps the seed of root i - 1"),
    ("zero", r"\(k=16, d=7, e=2, eps=1, i=3\) reaches 0"),
])
def test_seeds_that_overlap_or_reach_0_raise(fault, message, monkeypatch):
    """The root count needs the seeds disjoint and below 0.  Seed 2 widened
    down to the low end of seed 1's case interval, or the last seed widened
    past 0, where the mirrors' seeds start, up to 1/16, is refused."""
    monkeypatch.setattr(feasibility, "_ROOTS", {})
    real = feasibility._case_ends

    def case_ends(d, epsilon, angles):
        ends = list(real(d, epsilon, angles))
        if fault == "overlap":
            i, eta, _, theta_hi = ends[1]
            ends[1] = i, eta, ends[0][2], theta_hi
        else:
            i, eta, theta_lo, _ = ends[-1]
            ends[-1] = i, eta, theta_lo, 1 << (angles.bits - 4)
        return iter(ends)

    monkeypatch.setattr(feasibility, "_case_ends", case_ends)
    with pytest.raises(BracketSeedError, match=message):
        isolate_roots(16, 7, 2, 1)


def test_a_degree_past_the_int_string_limit_ends_in_a_verdict():
    """Each seeded root's error name once formatted k with `str` before any
    error, and `str` refuses an int of more than 4,300 digits."""
    assert spectral_feasibility(10**4300 + 1, 3, 2).final_verdict == VERDICT_ADMISSIBLE


def test_a_root_error_names_a_degree_past_the_int_string_limit_in_full(monkeypatch):
    monkeypatch.setattr(feasibility, "_ROOTS", {})
    monkeypatch.setattr(feasibility, "_bisect", lambda *args: None)
    with pytest.raises(BracketSeedError) as info:
        isolate_roots(10**4300 + 1, 3, 2, 1)
    assert str(info.value) == (
        f"seed interval for (k=1{'0' * 4299}1, d=3, e=2, eps=1, i=1)"
        " does not bracket a sign change"
    )


def test_a_case_interval_below_the_binary64_range_ends_in_a_verdict():
    """s^(1-d) = 2^-1200 at (2^40 + 1, 61): the case interval's width
    underflows binary64, and a seed shift taken from the float width
    collapsed the seed into an internal BracketSeedError."""
    report = spectral_feasibility(2**40 + 1, 61, 2)
    assert report.final_verdict == VERDICT_GAP
    assert len(report.roots) == 2 * 60
    assert min(r.bracket[2] for r in report.roots) > 1200


def test_a_scan_over_e_keeps_one_cached_family(monkeypatch):
    """Only the epsilon = 1 family outlives its triple: a scan over every e
    at one (k, d) isolates it once and one -e/2 family per triple, asks
    `isolate_roots` for two families per triple, and leaves one family
    cached."""
    from cage_spectra import feasibility

    monkeypatch.setattr(feasibility, "_ROOTS", {})
    isolated, asked = [], []
    real_isolate, real_isolate_roots = feasibility._isolate, feasibility.isolate_roots

    def isolate(k, d, e, epsilon):
        isolated.append(epsilon)
        return real_isolate(k, d, e, epsilon)

    def isolate_roots_(k, d, e, epsilon):
        asked.append((e, epsilon))
        return real_isolate_roots(k, d, e, epsilon)

    monkeypatch.setattr(feasibility, "_isolate", isolate)
    monkeypatch.setattr(feasibility, "isolate_roots", isolate_roots_)
    excesses = range(2, 29, 2)
    reports = list(scan([30], [9], excesses))
    assert [r.final_verdict for r in reports] == [VERDICT_GAP] * len(excesses)
    assert asked == [(e, epsilon) for e in excesses for epsilon in (1, -e // 2)]
    assert isolated == [1] + [-e // 2 for e in excesses]
    assert list(feasibility._ROOTS) == [(30, 9)]


@pytest.mark.parametrize("first", [1, -2], ids=["epsilon=1", "epsilon=-e/2"])
def test_angle_tables_are_built_once_per_k_d(first, monkeypatch):
    """Both families' seeds and the JSON's angles read one set of (k, d)
    tables, built by whichever family asks first: a scan over every e at
    one (k, d) builds them once."""
    monkeypatch.setattr(feasibility, "_ROOTS", {})
    feasibility._angle_tables.cache_clear()
    isolate_roots(30, 9, 4, first)
    reports = list(scan([30], [9], range(2, 29, 2)))
    assert all(len(report.angles) == 2 * 8 for report in reports)
    assert feasibility._angle_tables.cache_info().misses == 1


@st.composite
def isolation_histories(draw):
    """A family (k, d, e, epsilon) and what was isolated before it: nothing,
    the other family of its triple, or either family of another e."""
    k = draw(st.integers(4, 30))
    d = draw(st.sampled_from(range(3, 24, 2)))
    excesses = range(2, k - 1, 2)
    e, other = draw(st.sampled_from(excesses)), draw(st.sampled_from(excesses))
    epsilon = draw(st.sampled_from((1, -e // 2)))
    before = draw(
        st.lists(st.sampled_from([(e, 1), (e, -e // 2), (other, 1), (other, -other // 2)]), max_size=3)
    )
    return (k, d, e, epsilon), before


@settings(max_examples=60, deadline=None)
@given(isolation_histories())
@example(((4, 3, 2, -1), []))              # epsilon = -1 before the epsilon = 1 family
@example(((4, 3, 2, -1), [(2, 1)]))        # and after it, reading its tables
@example(((12, 7, 10, -5), [(2, -1), (10, 1)]))
def test_isolate_roots_is_independent_of_family_order_and_cache_state(history):
    from cage_spectra import feasibility

    (k, d, e, epsilon), before = history
    with mock.patch.dict(feasibility._ROOTS, clear=True):
        expected = feasibility._isolate(k, d, e, epsilon)
        for e_before, eps_before in before:
            isolate_roots(k, d, e_before, eps_before)
        assert tuple(isolate_roots(k, d, e, epsilon)) == expected
        assert tuple(isolate_roots(k, d, e, epsilon)) == expected
        assert set(feasibility._ROOTS) <= {(k, d)}


def test_isolate_roots_domain():
    with pytest.raises(ParameterDomainError):
        isolate_roots(4, 3, 2, 2)  # epsilon must be 1 or -e/2
    with pytest.raises(EvenHalfGirthError):
        isolate_roots(4, 4, 2, 1)


def test_transcendental_residual():
    for k, d, eps in ((4, 3, 1), (7, 7, -1)):
        for r in isolate_roots(k, d, 2, eps):
            _, alpha = feasibility._root_angles(k, d, r)
            assert abs(transcendental_residual(r, alpha, k, d)) < 1e-9


def test_transcendental_residual_negative_control():
    real = isolate_roots(4, 3, 2, 1)[0]
    # with alpha forced to zero the residual is -eta * s^(1-d) * sin(i*pi/d) != 0
    assert abs(transcendental_residual(real, 0.0, 4, 3)) > 1e-3


def test_transcendental_residual_rejects_zero_epsilon():
    real = isolate_roots(4, 3, 2, 1)[0]
    fake = RootRecord(i=1, epsilon=0, eta=0, theta=real.theta, bracket=real.bracket)
    with pytest.raises(ParameterDomainError):
        transcendental_residual(fake, feasibility._root_angles(4, 3, real)[1], 4, 3)


# ---------------------------------------------------------------------------
# multiplicity formulas

def test_multiplicity_closed_form_worked_instance():
    assert multiplicity_closed_form(4, 3, 2, 1, 2.0) == pytest.approx(7.0, rel=1e-12)
    assert multiplicity_closed_form(4, 3, 2, 1, -2.0) == pytest.approx(7.0, rel=1e-12)
    assert multiplicity_closed_form(4, 3, 2, -1, math.sqrt(2)) == pytest.approx(6.0, rel=1e-12)


def closed_form_by_polynomials(k, d, e, epsilon, theta):
    """The closed form as `IntPolynomial` evaluates it at a float: Horner
    with each int coefficient added to the float, the same operations in the
    same order as the package's binary64 Horner."""
    n = moore_bound(k, 2 * d) + e
    h_prev = dickson_family("H", k, d - 2)(theta)
    h_deriv = derivative(dickson_family("H", k, d - 1))(theta)
    k2t2 = k * k - theta * theta
    if abs(h_deriv) < 1e-12 or abs(k2t2) < 1e-12:
        raise IllConditionedError("ill-conditioned")
    return (n * e * k * (k - 1) * h_prev) / (
        2 * epsilon * (2 * epsilon + e // 2 - 1) * h_deriv * k2t2
    )


def outcome(f, *args):
    """f's result as its binary64 bytes, or the type of what it raised."""
    try:
        return struct.pack("<d", f(*args))
    except (OverflowError, IllConditionedError) as exc:
        return type(exc)


def test_closed_form_equals_the_polynomial_route_bit_for_bit_on_paper_grid():
    """At the seeded roots of the paper grid's 135 triples."""
    calls = [
        (k, d, e, epsilon, r.theta)
        for k in range(4, 21) for d in (7, 9, 11) for e in range(2, min(6, k - 2) + 1, 2)
        for epsilon in (1, -e // 2) for r in isolate_roots(k, d, e, epsilon) if 2 * r.i < d
    ]
    assert len(calls) == 1080
    for args in calls:
        assert outcome(multiplicity_closed_form, *args) == outcome(closed_form_by_polynomials, *args)


@st.composite
def closed_form_arguments(draw):
    """(k, d, e, epsilon, theta) with theta inside [-2s, 2s] or anywhere,
    and k up to where the coefficients pass binary64."""
    k = draw(st.one_of(st.integers(4, 200), st.integers(4, 2**1100)))
    e = 2 * draw(st.integers(1, min((k - 2) // 2, 10**6)))
    d = draw(st.sampled_from(range(3, 62, 2)))
    reach = 2 * math.sqrt(min(k, 2**1000))
    theta = draw(st.one_of(
        st.floats(-reach, reach), st.floats(allow_nan=False, allow_infinity=False)
    ))
    return k, d, e, draw(st.sampled_from((1, -e // 2))), theta


@settings(max_examples=300, deadline=None)
@given(closed_form_arguments())
@example((4, 3, 2, 1, 2.0))
@example((4, 3, 2, 1, 4.0))                  # ill-conditioned
@example((2**1100 + 1, 7, 2, 1, 1.5))        # k itself past binary64
@example((2**200 + 1, 13, 2, -1, -3.0e30))   # H_{11}'s coefficients pass binary64
def test_closed_form_equals_the_polynomial_route_bit_for_bit(args):
    assert outcome(multiplicity_closed_form, *args) == outcome(closed_form_by_polynomials, *args)


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
    assert f_weight(4, -record.theta / (2 * math.sqrt(3))) == pytest.approx(2 / 3, rel=1e-12)
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
# symmetry and minimality of multiplicities, at independently isolated roots
# (the package builds theta_{d-i} as the mirror of theta_i)

def symmetry_deviation(k, d, e) -> float:
    """The largest relative |m(theta_i) - m(theta_{d-i})| in both families."""
    deviation = 0.0
    for eps in (1, -e // 2):
        m = mp_multiplicities(k, d, e, eps)
        deviation = max(deviation, *(abs(a - b) / abs(b) for a, b in zip(m, reversed(m))))
    return deviation


def test_symmetry_checks_small():
    assert symmetry_deviation(4, 3, 2) <= 1e-6
    assert minimality_margins(4, 3, 2) == (None, None)


def test_symmetry_checks_d5():
    assert symmetry_deviation(5, 5, 2) <= 1e-6
    mu_margin, lambda_margin = minimality_margins(5, 5, 2)
    assert mu_margin is None  # needs 3 <= i <= d-3, empty at d=5
    assert lambda_margin is not None and lambda_margin > 0


def test_symmetry_checks_d7():
    assert symmetry_deviation(7, 7, 2) <= 1e-6
    mu_margin, lambda_margin = minimality_margins(7, 7, 2)
    assert mu_margin > 0
    assert lambda_margin > 0


@pytest.mark.parametrize("k,d,e", ACCEPTANCE_TRIPLES)
def test_symmetry_under_negation(k, d, e):
    assert symmetry_deviation(k, d, e) <= 1e-6


# ---------------------------------------------------------------------------
# the gap exclusion

def test_gap_check_excludes():
    report = spectral_feasibility(4, 7, 2)
    verdict = report.gap
    assert verdict is not None and verdict.excluded
    assert verdict.verdict == VERDICT_GAP
    assert 0 < verdict.lo <= verdict.hi < 1
    assert not verdict.contains_integer
    assert verdict.within_unit_interval
    assert float(verdict.hi) < report.analytic_gap_bound
    assert gap_chain_holds(4, 7, 2)


def test_an_analytic_bound_below_binary64_is_none():
    """s^(3-d) passes below binary64 at (2^343 + 1, 15, 2), where the bound
    once read 0 beside a positive certified gap; it reads None, as a closed
    form does that binary64 cannot hold."""
    report = spectral_feasibility(2 ** 343 + 1, 15, 2)
    assert report.final_verdict == VERDICT_GAP
    assert report.analytic_gap_bound is None


def test_gap_check_excludes_e4():
    verdict = spectral_feasibility(6, 9, 4).gap
    assert verdict.excluded
    assert 0 < verdict.lo and verdict.hi < 1


def test_gap_check_outside_regime():
    report = spectral_feasibility(4, 3, 2)
    assert report.gap is None  # the gap argument needs girth 2d >= 14
    assert report.final_verdict != VERDICT_GAP


def test_gap_verdict_reads_its_exact_ends():
    """The integer test and the unit-interval test are read from the stored
    ends: an interval holding 1 is not excluded."""
    verdict = GapVerdict(Fraction(1, 2), Fraction(1))
    assert verdict.contains_integer and not verdict.excluded
    assert verdict.verdict == "not-excluded"
    assert not verdict.within_unit_interval
    inside = replace(verdict, hi=Fraction(999, 1000))
    assert inside.excluded and inside.within_unit_interval


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
    assert report.all_integral
    for assessment in report.assessments:
        enclosure = enclosure_interval(assessment.enclosure)
        assert enclosure.contained_integer() == assessment.integer >= 1
        assert enclosure.width < Fraction(1, 10**6)
    assert sum(m for _, m in report.spectrum()) == report.n
    assert_moment_identity(4, 3, 2)


def test_spectral_feasibility_gap_regime():
    report = spectral_feasibility(5, 7, 2)
    assert report.final_verdict == VERDICT_GAP
    assert report.gap is not None and report.gap.excluded
    # the moment identity still holds even though the triple is excluded
    assert_moment_identity(5, 7, 2)


@pytest.mark.parametrize("k,d,e", [(32, 27, 2), (16, 27, 2)])
def test_roots_ascend_in_their_exact_brackets(k, d, e):
    """Where a root of one family and a root of the other round to the same
    float theta, the report still lists them in the order their disjoint
    brackets certify, and the spectrum follows the roots."""
    report = spectral_feasibility(k, d, e)
    thetas = [r.theta for r in report.roots]
    assert len(set(thetas)) < len(thetas)  # float ties between the families
    top = max(r.bracket[2] for r in report.roots)
    ends = [(lo << top - shift, hi << top - shift) for lo, hi, shift in (r.bracket for r in report.roots)]
    assert all(hi < next_lo for (_, hi), (next_lo, _) in zip(ends, ends[1:]))
    assert [theta for theta, _ in report.spectrum()] == [-k, *thetas, k]


#: The 134 triples (k, d, 2) with 4 <= k <= 40 and odd 3 <= d <= 31 whose
#: independently isolated root d - i failed its alpha case bound (the 2^-60
#: bracket could not decide it) and raised BracketSeedError, as k per d.
#: Root d - i is now the exact mirror of root i, and its case interval
#: contains the mirror of root i's.
FORMER_SEED_FAILURES = {
    21: [27, 28, 29, 30, 36, 37, 38, 39, 40],
    23: [23, *range(25, 41)],
    25: [16, 17, 19, 20, 21, 22, *range(24, 41)],
    27: [13, 16, 17, *range(19, 41)],
    29: [12, *range(14, 41)],
    31: list(range(9, 41)),
}


def test_former_bracket_seed_failures_end_in_a_verdict():
    triples = [(k, d, 2) for d, ks in FORMER_SEED_FAILURES.items() for k in ks]
    assert len(triples) == 134
    for k, d, e in triples:
        report = spectral_feasibility(k, d, e)
        assert report.final_verdict == VERDICT_GAP, (k, d, e)
        # the gap decides the verdict alone; reading all_integral still
        # assesses (and refines) every multiplicity, and none is an integer
        assert report.all_integral is False, (k, d, e)


#: Triples whose enclosures need 476-508 bracket bits.
REFINEMENT_TRIPLES = [
    (180, 55, 28), (142, 59, 80), (96, 61, 22), (162, 57, 130), (140, 61, 104), (164, 61, 66),
]


@pytest.mark.parametrize("k,d,e", REFINEMENT_TRIPLES)
def test_refinement_past_444_bits_ends_in_a_verdict(k, d, e):
    """Their isolation used to fail its case bound on a root i > d/2.  With
    the mirror it holds, and their enclosures then need 476-508 bracket
    bits (n has 396-442 bits), past the fixed 444-bit cap refinement had.
    The gap decides the verdict alone; reading all_integral still refines
    every enclosure, and integrality excludes them as well."""
    report = spectral_feasibility(k, d, e)
    assert report.final_verdict == VERDICT_GAP
    assert report.all_integral is False


@pytest.mark.parametrize("k,d,e", [*REFINEMENT_TRIPLES, (200, 61, 2)])
def test_an_assessment_refines_once_at_most(k, d, e, monkeypatch):
    """Each assessment builds the enclosure over the isolation bracket and,
    where that one holds an integer, one more over the bracket `_bisect`
    refines once, to the cap."""
    report = spectral_feasibility(k, d, e)
    calls = []

    def counted(name):
        original = getattr(feasibility, name)

        def count(*args):
            calls[-1][name] += 1
            return original(*args)

        return count

    assess = feasibility._assess_multiplicity

    def assessed(*args):
        calls.append({"_multiplicity_enclosure": 0, "_bisect": 0})
        return assess(*args)

    for name in ("_multiplicity_enclosure", "_bisect"):
        monkeypatch.setattr(feasibility, name, counted(name))
    monkeypatch.setattr(feasibility, "_assess_multiplicity", assessed)
    assert report.all_integral is False
    assert len(calls) == d - 1  # (d - 1)/2 mirrored pairs in each family
    assert max(c["_multiplicity_enclosure"] for c in calls) <= 2
    assert max(c["_bisect"] for c in calls) <= 1


def test_spectral_feasibility_negative_controls():
    with pytest.raises(OddExcessError):
        spectral_feasibility(4, 3, 3)
    with pytest.raises(EvenHalfGirthError):
        spectral_feasibility(4, 4, 2)
    with pytest.raises(ExcessRangeError):
        spectral_feasibility(3, 3, 2)
    with pytest.raises(ExcessRangeError):
        spectral_feasibility(4, 3, 0)


def assert_moment_identity(k, d, e):
    """The closed-form multiplicities satisfy the moment identity exactly:
    for q = 0..2d-1 their q-th power sum over the candidate spectrum is n
    times the closed q-walks from a vertex of the k-regular tree.  q = 0 is
    the multiplicity sum n - 2 (with +-k counted once each)."""
    n = moore_bound(k, 2 * d) + e
    assert exact_moments(k, d, e) == [n * w for w in tree_closed_walks(k, 2 * d)], (k, d, e)


def enclosures_hold_the_sum(report) -> bool:
    """Whether the report's multiplicity enclosures add up to an interval
    that holds n - 2.  Each end is first rounded outward to a multiple of
    2^-64, which keeps the test exact while the sum stays small (the ends'
    own denominators run to tens of thousands of bits at d = 61)."""
    lo = hi = 0
    for assessment in report.assessments:
        (a, b), (c, q) = assessment.enclosure
        lo += (a << 64) // b
        hi -= (-c << 64) // q
    return lo <= (report.n - 2) << 64 <= hi


@pytest.mark.parametrize("k", [4, 6, 8, 10])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_moment_identity_invariant(k, d):
    for e in (2, 4):
        if e > k - 2:
            continue
        assert_moment_identity(k, d, e)


def test_multiplicity_sum_invariant():
    """The multiplicities sum to n - 2 exactly, and so the engine's exact
    enclosures, one per root, add up to an interval that holds n - 2."""
    for (k, d, e) in ACCEPTANCE_TRIPLES:
        n = moore_bound(k, 2 * d) + e
        assert exact_moments(k, d, e)[0] == n
        assert enclosures_hold_the_sum(spectral_feasibility(k, d, e)), (k, d, e)


@pytest.mark.parametrize("k,d,e", [(4, 3, 2), (6, 5, 4), (5, 7, 2)])
def test_a_mirrored_root_shares_its_partners_assessment(k, d, e):
    """Root d - i is root i's mirror, and its assessment is root i's own
    object: each pair is assessed once."""
    report = spectral_feasibility(k, d, e)
    by_root = {(r.epsilon, r.i): a for r, a in zip(report.roots, report.assessments)}
    for (epsilon, i), assessment in by_root.items():
        assert assessment is by_root[epsilon, d - i]
    assert len({id(a) for a in report.assessments}) == d - 1


def test_enclosures_certify_worked_integers():
    report = spectral_feasibility(4, 3, 2)
    by_theta = {round(r.theta, 6): a for r, a in zip(report.roots, report.assessments)}
    assert by_theta[2.0].integer == 7
    assert by_theta[-2.0].integer == 7
    assert by_theta[round(math.sqrt(2), 6)].integer == 6
    assert by_theta[round(-math.sqrt(2), 6)].integer == 6


# ---------------------------------------------------------------------------
# the staged verdict

@st.composite
def regime_triples(draw, max_k, min_d, max_d):
    """(k, d, e) with 4 <= k <= max_k, odd d in [min_d, max_d] and every
    valid even e in [2, k - 2]."""
    k = draw(st.integers(4, max_k))
    d = draw(st.sampled_from(range(min_d, max_d + 1, 2)))
    return k, d, 2 * draw(st.integers(1, (k - 2) // 2))


def test_repr_and_eq_compute_no_lazy_attribute():
    report, other = spectral_feasibility(5, 7, 2), spectral_feasibility(5, 7, 2)
    assert report == other and hash(report) == hash(other)
    assert repr(report) == repr(other)
    names = {f.name for f in fields(FeasibilityReport)}
    assert names == {"k", "d", "e", "n", "roots", "gap"}
    assert vars(report).keys() == vars(other).keys() == names


@settings(max_examples=60, deadline=None)
@given(regime_triples(40, 3, 31))
def test_max_integrality_deviation_is_the_assessments_maximum(triple):
    """The CSV column is read from the float closed forms alone, before any
    enclosure; it equals the assessments' maximum deviation bit for bit,
    and the closed form evaluated afresh at every root.  d in {3, 5} gives
    triples without a gap, whose verdict reads the assessments."""
    k, d, e = triple
    report = spectral_feasibility(k, d, e)
    column = report.max_integrality_deviation
    assert "assessments" not in vars(report)
    closed = report._closed_forms
    assert len(closed) == len(report.assessments) == len(report.roots)
    assert column.hex() == max(abs(m - round(m)) for m in closed).hex()
    fresh = (multiplicity_closed_form(k, d, e, r.epsilon, r.theta) for r in report.roots)
    assert column.hex() == max(abs(m - round(m)) for m in fresh).hex()


@settings(max_examples=100, deadline=None)
@given(regime_triples(200, 7, 61))
def test_every_triple_in_the_gap_regime_ends_in_the_gap_verdict(triple):
    """Girth 2d >= 14 up to k = 200 and d = 61: the gap decides the verdict
    and nothing else is computed for it."""
    report = spectral_feasibility(*triple)
    assert report.final_verdict == VERDICT_GAP
    assert vars(report).keys() == {f.name for f in fields(report)} | {"final_verdict"}


@settings(max_examples=300, deadline=None)
@given(regime_triples(2 ** 400, 7, 201))
@example((4, 7, 2))
@example((2 ** 400, 201, 2 ** 400 - 2))
def test_the_gap_chain_holds_on_the_regime(triple):
    """The closing chain that the `GapVerdict` docstring proves, checked
    exactly in integers: odd d in 7..201, k up to 2^400 and every even e in
    [2, k-2].  Just outside the regime the check fails: d = 5, or e = k."""
    k, d, e = triple
    assert gap_chain_holds(k, d, e)
    assert not gap_chain_holds(k, 5, e) and not gap_chain_holds(k, d, k)


def exact_ascending(records):
    """The records sorted by the low ends of their brackets at one common
    shift: the exact order the report's merge of the two families must
    reproduce."""
    top = max(r.bracket[2] for r in records)
    return tuple(sorted(records, key=lambda r: r.bracket[0] << (top - r.bracket[2])))


@settings(max_examples=40, deadline=None)
@given(regime_triples(200, 3, 61))
@example((200, 61, 2))
@example((32, 27, 2))  # float thetas of the two families tie
def test_isolation_emits_disjoint_ascending_brackets_in_index_order(triple):
    """Each family comes back as i = 1..d-1 with strictly ascending, disjoint
    brackets, and the report's roots are the two families merged in the
    exact order of their brackets."""
    k, d, e = triple
    families = [isolate_roots(k, d, e, epsilon) for epsilon in (1, -e // 2)]
    for records in families:
        assert [r.i for r in records] == list(range(1, d))
        brackets = [bracket_interval(r.bracket) for r in records]
        assert all(a.hi < b.lo for a, b in zip(brackets, brackets[1:]))
    assert spectral_feasibility(k, d, e).roots == exact_ascending(families[0] + families[1])


@settings(max_examples=6, deadline=None)
@given(regime_triples(200, 3, 61))
@example((200, 61, 2))
def test_every_report_comes_back_and_its_moments_are_exact(triple):
    """Up to k = 200 and d = 61 both full reports are built (every
    enclosure, refined as far as it needs), and the closed form they enclose
    satisfies the moment identity exactly.  At (200, 61, e) the float moment
    check this replaces overflowed: n times a walk count passes the float
    range."""
    report = spectral_feasibility(*triple)
    assert _report_json(report)["verdict"] == report.final_verdict
    assert f"verdict: {report.final_verdict}" in _report_text(report).splitlines()
    assert enclosures_hold_the_sum(report), triple
    assert_moment_identity(*triple)


def test_an_enclosed_integer_below_one_excludes_by_integrality(monkeypatch):
    """Positivity is read from the exact enclosure: an enclosure whose one
    integer is 0 excludes the triple, whatever the float closed form says."""
    assess = feasibility._assess_multiplicity

    def zero_at_the_first_root(k, d, e, record):
        assessment = assess(k, d, e, record)
        if record.epsilon == 1 and record.i == 1:
            return replace(assessment, enclosure=((-1, 2), (1, 2)), integer=0)
        return assessment

    monkeypatch.setattr(feasibility, "_assess_multiplicity", zero_at_the_first_root)
    report = spectral_feasibility(4, 3, 2)
    zero = [a for a in report.assessments if a.integer == 0]
    first = next(j for j, r in enumerate(report.roots) if (r.epsilon, r.i) == (1, 1))
    assert len(zero) == 2 and report._closed_forms[first] > 0  # the mirrored pair
    assert report.all_integral
    assert report.final_verdict == VERDICT_INTEGRALITY


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
