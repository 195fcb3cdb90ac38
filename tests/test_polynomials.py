import math
from fractions import Fraction

import pytest

from cage_spectra import (
    DegreeRangeError,
    IntPolynomial,
    ParameterDomainError,
    derivative,
    dickson_family,
    h_closed_form,
    h_roots_closed_form,
)

# recurrence start per family: G and H step from index 1, F from index 2
RECURRENCE_START = {"G": 1, "F": 2, "H": 1}


def test_base_cases():
    assert dickson_family("H", 3, 1).coefficients == (0, 1)
    assert dickson_family("G", 5, 0).coefficients == (1,)
    assert dickson_family("F", 5, 2).coefficients == (-5, 0, 1)
    assert dickson_family("G", 4, 1).coefficients == (1, 1)
    assert dickson_family("H", 7, 0).coefficients == (1,)
    assert dickson_family("F", 6, 1).coefficients == (0, 1)


def test_one_recurrence_step():
    # H_2 for k = 4: x*H_1 - 3*H_0 = x^2 - 3
    assert dickson_family("H", 4, 2).coefficients == (-3, 0, 1)
    # F_3 for k = 3: x*(x^2 - 3) - 2*x = x^3 - 5x
    assert dickson_family("F", 3, 3).coefficients == (0, -5, 0, 1)


@pytest.mark.parametrize("kind", ["G", "F", "H"])
@pytest.mark.parametrize("k", range(3, 11))
def test_recurrence_residual_exact(kind, k):
    for i in range(RECURRENCE_START[kind], 13):
        lhs = dickson_family(kind, k, i + 1)
        rhs = dickson_family(kind, k, i).shift_up() - (k - 1) * dickson_family(kind, k, i - 1)
        assert (lhs - rhs).is_zero


@pytest.mark.parametrize("kind", ["G", "F", "H"])
@pytest.mark.parametrize("k", [3, 5, 10])
def test_monic_of_degree_i(kind, k):
    for i in range(13):
        p = dickson_family(kind, k, i)
        assert p.degree == i
        assert p.coefficients[-1] == 1


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_parity_for_odd_d(d):
    k = 4
    even = dickson_family("H", k, d - 1)
    odd = dickson_family("H", k, d - 2)
    assert all(c == 0 for c in even.coefficients[1::2])  # H_{d-1}(-x) = H_{d-1}(x)
    assert all(c == 0 for c in odd.coefficients[0::2])   # H_{d-2}(-x) = -H_{d-2}(x)


def test_domain_rejections():
    with pytest.raises(DegreeRangeError):
        dickson_family("H", 2, 3)
    with pytest.raises(ParameterDomainError):
        dickson_family("H", 4, -1)
    with pytest.raises(ParameterDomainError):
        dickson_family("Q", 4, 1)


def test_eval_rational():
    p = IntPolynomial((-3, 0, 1))  # x^2 - 3
    assert p(Fraction(2)) == 1
    assert p(Fraction(0)) == -3
    h2 = dickson_family("H", 4, 2)
    assert h2(Fraction(7, 4)) == Fraction(1, 16)
    value = h2(Fraction(-7, 3))
    assert isinstance(value, Fraction)
    assert value == Fraction(49, 9) - 3 and value.denominator == 9


def test_derivative():
    assert derivative(IntPolynomial((-3, 0, 1))).coefficients == (0, 2)
    assert derivative(IntPolynomial((1,))).is_zero
    h3 = dickson_family("H", 4, 3)
    assert h3.coefficients == (0, -6, 0, 1)
    assert derivative(h3).coefficients == (-6, 0, 3)


def test_h_closed_form_examples():
    assert h_closed_form(4, 3, math.pi / 2) == pytest.approx(-3.0, abs=1e-12)
    assert dickson_family("H", 4, 2)(0.0) == -3.0
    assert h_closed_form(3, 3, math.pi / 3) == pytest.approx(0.0, abs=1e-12)
    assert h_closed_form(4, 2, math.pi / 2) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("d", range(3, 10))
def test_h_closed_form_matches_recurrence(k, d):
    h = dickson_family("H", k, d - 1)
    s = math.sqrt(k - 1)
    for j in range(1, 101):
        phi = j * math.pi / 101
        closed = h_closed_form(k, d, phi)
        direct = h(-2 * s * math.cos(phi))
        scale = max(abs(direct), 1.0)
        assert abs(closed - direct) <= 1e-9 * scale


def test_h_closed_form_domain():
    with pytest.raises(ParameterDomainError):
        h_closed_form(4, 3, 0.0)
    with pytest.raises(ParameterDomainError):
        h_closed_form(4, 3, math.pi)


def test_h_roots_closed_form():
    roots = h_roots_closed_form(4, 3)
    assert roots == pytest.approx([-math.sqrt(3), math.sqrt(3)], abs=1e-12)
    assert h_roots_closed_form(3, 3) == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)
    assert h_roots_closed_form(5, 2) == pytest.approx([0.0], abs=1e-12)
    for k in (3, 5, 8):
        for d in (3, 5, 8):
            h = dickson_family("H", k, d - 1)
            values = h_roots_closed_form(k, d)
            assert values == sorted(values)
            assert len(values) == d - 1
            assert all(abs(h(r)) < 1e-7 for r in values)


def test_polynomial_algebra_basics():
    p = IntPolynomial((1, 2))
    q = IntPolynomial((0, 0, 1))
    assert (p * q).coefficients == (0, 0, 1, 2)
    assert (p + (-p)).is_zero
    assert (3 * p).coefficients == (3, 6)
    assert str(IntPolynomial((-3, 0, 1))) == "x^2 - 3"
    assert IntPolynomial(()).degree == -1
