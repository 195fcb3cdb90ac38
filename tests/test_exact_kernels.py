"""The scan's integer kernels against the Fraction arithmetic they replace.

`intervals.poly_enclosure` and `RatInterval` are the documented oracles:
every endpoint the integer route produces must equal theirs exactly, so the
refinement steps, the certified integers and every verdict stay the same.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cage_spectra import (
    IntPolynomial,
    RatInterval,
    derivative,
    dickson_family,
    eval_rational,
    isolate_roots,
    moore_bound,
    poly_enclosure,
)
from cage_spectra.feasibility import (
    ENCLOSURE_WIDTH_LIMIT,
    TARGET_BRACKET_BITS,
    _bisect,
    _dyadic_enclosure,
    _dyadic_pair,
    _family_poly,
    _multiplicity_enclosure,
    _sign_dyadic,
)

PAPER_GRID = [
    (k, d, e)
    for k in range(4, 21) for d in (7, 9, 11) for e in (2, 4, 6) if e <= k - 2
]
#: The benchmark's deep-girth triples that complete (the d = 27, k >= 16
#: ones raise BracketSeedError in root isolation).
DEEP_GIRTH = [
    (k, d, e)
    for k in (4, 8, 16, 32) for d in (15, 21, 27) for e in sorted({2, k - 2})
    if not (d == 27 and k >= 16)
]

coefficient_lists = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12)


@st.composite
def dyadic_brackets(draw):
    shift = draw(st.integers(0, 80))
    reach = 1 << (shift + 3)
    lo = draw(st.integers(-reach, reach))
    hi = draw(st.one_of(st.just(lo), st.integers(lo, reach)))
    return lo, hi, shift


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, dyadic_brackets())
@example([3, -1, 2], (-5, 7, 2))   # straddles 0
@example([3, -1, 2], (5, 5, 3))    # a point
@example([0, 0, -4, 1], (-9, -2, 1))
def test_dyadic_enclosure_matches_poly_enclosure(coeffs, bracket):
    lo, hi, shift = bracket
    a, b = _dyadic_enclosure(tuple(coeffs), lo, hi, shift)
    den = 1 << shift * (len(coeffs) - 1)
    x = RatInterval(Fraction(lo, 1 << shift), Fraction(hi, 1 << shift))
    expected = poly_enclosure(coeffs, x)
    assert (Fraction(a, den), Fraction(b, den)) == (expected.lo, expected.hi)


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, st.integers(-(1 << 90), 1 << 90), st.integers(0, 80))
def test_sign_dyadic_matches_rational_evaluation(coeffs, num, shift):
    value = eval_rational(IntPolynomial(coeffs), Fraction(num, 1 << shift))
    assert _sign_dyadic(tuple(coeffs), num, shift) == (value > 0) - (value < 0)


def rational_route(k, d, e, epsilon, lo, hi, shift):
    """The multiplicity enclosure in `RatInterval` arithmetic."""
    n = moore_bound(k, 2 * d) + e
    prefactor = Fraction(n * e * k * (k - 1), 2 * epsilon * (2 * epsilon + e // 2 - 1))
    x = RatInterval(Fraction(lo, 1 << shift), Fraction(hi, 1 << shift))
    numer = poly_enclosure(dickson_family("H", k, d - 2).coefficients, x)
    h_deriv = poly_enclosure(derivative(dickson_family("H", k, d - 1)).coefficients, x)
    denom = h_deriv * (RatInterval.point(k * k) - x.square())
    if denom.contains_zero():
        return None
    return (numer / denom) * prefactor


@st.composite
def triples(draw):
    k = draw(st.integers(4, 12))
    e = 2 * draw(st.integers(1, (k - 2) // 2))
    return k, draw(st.sampled_from((3, 5, 7))), e, draw(st.sampled_from((1, -e // 2)))


@settings(max_examples=200, deadline=None)
@given(triples(), dyadic_brackets())
@example((4, 3, 2, 1), (-3, 5, 1))      # straddles 0
@example((4, 3, 2, -1), (9, 9, 2))      # a point
@example((6, 5, 4, -2), (-20, -17, 3))
def test_multiplicity_enclosure_matches_rational_route_on_any_bracket(triple, bracket):
    k, d, e, epsilon = triple
    enclosure = _multiplicity_enclosure(k, d, e, epsilon, *bracket)
    assert enclosure == rational_route(k, d, e, epsilon, *bracket)


def assert_enclosures_match(k, d, e):
    """Every bracket the engine's refinement visits, for every root."""
    for epsilon in (1, -e // 2):
        for record in isolate_roots(k, d, e, epsilon):
            lo, hi, shift = _dyadic_pair(record.bracket)
            bits = TARGET_BRACKET_BITS
            while True:
                enclosure = _multiplicity_enclosure(k, d, e, epsilon, lo, hi, shift)
                assert enclosure == rational_route(k, d, e, epsilon, lo, hi, shift)
                if enclosure is not None and enclosure.width <= ENCLOSURE_WIDTH_LIMIT:
                    break
                bits += 32
                coeffs = _family_poly(k, d, epsilon)
                lo, hi, shift = _bisect(
                    coeffs, lo, hi, shift, _sign_dyadic(coeffs, lo, shift), bits
                )


def test_multiplicity_enclosure_matches_rational_route_on_paper_grid():
    for k, d, e in PAPER_GRID:
        assert_enclosures_match(k, d, e)


@pytest.mark.parametrize("k,d,e", DEEP_GIRTH)
def test_multiplicity_enclosure_matches_rational_route_on_deep_girth(k, d, e):
    assert_enclosures_match(k, d, e)
