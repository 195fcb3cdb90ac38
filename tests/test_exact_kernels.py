"""The scan's integer kernels against the arithmetic they replace.

`oracles.poly_enclosure` and `oracles.RatInterval` are the documented
oracles: every endpoint the integer route produces must equal theirs
exactly, so the refinement steps, the certified integers, the product gap
and every verdict stay the same.
Likewise `_bisect` must return exactly the bracket of the bit-by-bit halving
loop (`halving_loop` below).
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cage_spectra import (
    BracketSeedError,
    IntPolynomial,
    derivative,
    dickson_family,
    gap_check,
    isolate_roots,
    moore_bound,
)
from cage_spectra import feasibility
from cage_spectra.feasibility import (
    ENCLOSURE_WIDTH_LIMIT,
    TARGET_BRACKET_BITS,
    _bisect,
    _decisive,
    _dyadic_enclosure,
    _family_poly,
    _integers_in,
    _multiplicity_enclosure,
    _sign_dyadic,
)
from oracles import RatInterval, bracket_interval, enclosure_interval, poly_enclosure

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
    expected = poly_enclosure(coeffs, bracket_interval(bracket))
    assert (Fraction(a, den), Fraction(b, den)) == (expected.lo, expected.hi)


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, st.integers(-(1 << 90), 1 << 90), st.integers(0, 80))
def test_sign_dyadic_matches_rational_evaluation(coeffs, num, shift):
    value = IntPolynomial(coeffs)(Fraction(num, 1 << shift))
    assert _sign_dyadic(tuple(coeffs), num, shift) == (value > 0) - (value < 0)


def rational_route(k, d, e, epsilon, lo, hi, shift):
    """The multiplicity enclosure in `RatInterval` arithmetic."""
    n = moore_bound(k, 2 * d) + e
    prefactor = Fraction(n * e * k * (k - 1), 2 * epsilon * (2 * epsilon + e // 2 - 1))
    x = bracket_interval((lo, hi, shift))
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


def integer_route(k, d, e, epsilon, lo, hi, shift):
    """The engine's enclosure, its two unreduced fractions made a `RatInterval`;
    checks on the way that its cross-multiplied width test agrees."""
    ends = _multiplicity_enclosure(k, d, e, epsilon, lo, hi, shift)
    if ends is None:
        assert not _decisive(ends)
        return None
    (a, b), (c, q) = ends
    assert b > 0 and q > 0
    enclosure = enclosure_interval(ends)
    assert _decisive(ends) == (enclosure.width <= ENCLOSURE_WIDTH_LIMIT)
    return enclosure


@settings(max_examples=200, deadline=None)
@given(triples(), dyadic_brackets())
@example((4, 3, 2, 1), (-3, 5, 1))      # straddles 0
@example((4, 3, 2, -1), (9, 9, 2))      # a point
@example((6, 5, 4, -2), (-20, -17, 3))
def test_multiplicity_enclosure_matches_rational_route_on_any_bracket(triple, bracket):
    k, d, e, epsilon = triple
    assert integer_route(k, d, e, epsilon, *bracket) == rational_route(k, d, e, epsilon, *bracket)


def assert_enclosures_match(k, d, e):
    """Every bracket the engine's refinement visits, for every root: each
    enclosure equals the rational route, and each refined bracket the
    halving loop's."""
    for epsilon in (1, -e // 2):
        for record in isolate_roots(k, d, e, epsilon):
            lo, hi, shift = record.bracket
            bits = TARGET_BRACKET_BITS
            while True:
                enclosure = integer_route(k, d, e, epsilon, lo, hi, shift)
                assert enclosure == rational_route(k, d, e, epsilon, lo, hi, shift)
                if enclosure is not None and enclosure.width <= ENCLOSURE_WIDTH_LIMIT:
                    break
                bits += 32
                coeffs = _family_poly(k, d, epsilon)
                args = (coeffs, lo, hi, shift, _sign_dyadic(coeffs, lo, shift), bits)
                lo, hi, shift = _bisect(*args)
                assert (lo, hi, shift) == halving_loop(*args)


def test_multiplicity_enclosure_matches_rational_route_on_paper_grid():
    for k, d, e in PAPER_GRID:
        assert_enclosures_match(k, d, e)


@pytest.mark.parametrize("k,d,e", DEEP_GIRTH)
def test_multiplicity_enclosure_matches_rational_route_on_deep_girth(k, d, e):
    assert_enclosures_match(k, d, e)


# ---------------------------------------------------------------------------
# integer certificates: the integer count and the product gap


@st.composite
def fraction_ends(draw):
    """Ends ((a, b), (c, q)) with b, q > 0 and a/b <= c/q, some of zero
    width and some with an end on an integer."""
    b = draw(st.integers(1, 10**6))
    a = draw(st.integers(-10**9, 10**9))
    if draw(st.booleans()):
        a -= a % b  # a/b is an integer
    kind = draw(st.sampled_from(("any", "point", "integer")))
    if kind == "point":
        scale = draw(st.integers(1, 1000))
        return (a, b), (a * scale, b * scale)
    if kind == "integer":
        c = -(-a // b) + draw(st.integers(0, 3))
        q = draw(st.integers(1, 1000))
        return (a, b), (c * q, q)
    q = draw(st.integers(1, 10**6))
    c = -(-a * q // b) + draw(st.integers(0, 10**7))  # c/q >= a/b
    return (a, b), (c, q)


@settings(max_examples=500, deadline=None)
@given(fraction_ends())
@example(((-7, 2), (-3, 1)))      # negative, high end on an integer
@example(((-6, 2), (-6, 2)))      # zero width on an integer
@example(((5, 3), (5, 3)))        # zero width between integers
@example(((13, 10), (17, 10)))    # no integer
@example(((-1, 3), (1, 3)))       # straddles 0: the integer 0
@example(((0, 1), (3, 1)))        # several
def test_integers_in_matches_the_interval_oracle(ends):
    oracle = enclosure_interval(ends)
    integers = _integers_in(ends)
    assert len(integers) == oracle.contained_integer_count()
    assert (integers[0] if len(integers) == 1 else None) == oracle.contained_integer()
    if integers:
        assert oracle.lo <= integers[0] and integers[-1] <= oracle.hi


def oracle_gap(k, d, e):
    """lambda_2^2 - mu_2^2 from the second roots' brackets, squared and
    subtracted in `RatInterval` arithmetic."""
    mu2 = bracket_interval(isolate_roots(k, d, e, 1)[1].bracket)
    lam2 = bracket_interval(isolate_roots(k, d, e, -e // 2)[1].bracket)
    return lam2.square() - mu2.square()


def assert_gap_matches(k, d, e):
    verdict = gap_check(k, d, e)
    gap = oracle_gap(k, d, e)
    assert (verdict.lo, verdict.hi) == (gap.lo, gap.hi)
    assert verdict.contains_integer == (gap.contained_integer_count() > 0)
    assert verdict.within_unit_interval == (gap.lo > 0 and gap.hi < 1)


def test_gap_matches_the_interval_oracle_on_paper_grid():
    mixed = 0
    for k, d, e in PAPER_GRID:
        assert_gap_matches(k, d, e)
        mu_shift = isolate_roots(k, d, e, 1)[1].bracket[2]
        mixed += mu_shift != isolate_roots(k, d, e, -e // 2)[1].bracket[2]
    assert len(PAPER_GRID) == 135
    assert mixed > 0  # brackets of different shift are aligned before squaring


@pytest.mark.parametrize("k,d,e", DEEP_GIRTH)
def test_gap_matches_the_interval_oracle_on_deep_girth(k, d, e):
    assert_gap_matches(k, d, e)


# ---------------------------------------------------------------------------
# root brackets: `_bisect` against the halving loop


def halving_loop(coeffs, lo, hi, shift, sign_lo, bits):
    """Bit-by-bit bisection of (lo, hi) / 2^shift below width 2^-bits,
    collapsing onto a midpoint where P vanishes."""
    while ((hi - lo) << bits) >= (1 << shift):
        lo, hi, shift = lo << 1, hi << 1, shift + 1
        mid = (lo + hi) // 2
        sign_mid = _sign_dyadic(coeffs, mid, shift)
        if sign_mid == 0:
            return mid, mid, shift
        if sign_mid == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, shift


def poly_product(factors):
    out = [1]
    for factor in factors:
        prod = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        out = prod
    return tuple(out)


@st.composite
def bracketed_roots(draw):
    """An integer polynomial with one to three real roots placed in a dyadic
    bracket, some of them on a grid point the halving loop visits, with or
    without a factor that has no real roots and a nudge to the constant
    term; plus the bracket, the sign at its low end and a target width."""
    shift = draw(st.integers(0, 40))
    lo = draw(st.integers(-(1 << (shift + 3)), 1 << (shift + 3)))
    hi = lo + draw(st.integers(1, 1 << (shift + 4)))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        extra = draw(st.integers(0, 70))
        num = draw(st.integers(lo << extra, hi << extra))
        factors.append((-num, 1 << (shift + extra)))
    if draw(st.booleans()):
        factors.append((draw(st.integers(1, 100)), 0, 1))
    coeffs = list(poly_product(factors))
    coeffs[0] += draw(st.sampled_from((0, 0, 1, -1, 12345)))
    coeffs = tuple(coeffs)
    return coeffs, lo, hi, shift, _sign_dyadic(coeffs, lo, shift), draw(st.integers(0, 100))


@settings(max_examples=300, deadline=None)
@given(bracketed_roots())
@example(((-1, 3), 0, 1, 0, -1, 20))                      # one simple root, 1/3
@example(((-3, 4), 0, 1, 0, -1, 10))                      # root 3/4: collapses at a midpoint
@example((poly_product([(-1, 3), (-4, 3), (-7, 3)]), 0, 3, 0, -1, 30))  # three roots
@example(((-2, 0, 1), -1, 2, 0, -1, 40))                  # P' straddles 0 (root sqrt 2)
@example(((-1, 3), 0, 1, 10, -1, 5))                      # L = 0: already narrow
@example(((-1, 3), 5, 5, 0, 1, 20))                       # a point
@example(((7,), 0, 1, 0, 1, 20))                          # constant, no root
def test_bisect_matches_halving_loop(case):
    assert _bisect(*case) == halving_loop(*case)


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, dyadic_brackets(), st.sampled_from((-1, 0, 1)), st.integers(0, 100))
def test_bisect_matches_halving_loop_on_any_input(coeffs, bracket, sign_lo, bits):
    case = (tuple(coeffs), *bracket, sign_lo, bits)
    assert _bisect(*case) == halving_loop(*case)


_SEEDS = {}


def seed_brackets(k, d, epsilon):
    """The (lo, hi, shift, sign_lo) that root isolation of H_{d-1} - epsilon
    hands to `_bisect`, up to the first root that fails its case bound."""
    if (k, d, epsilon) not in _SEEDS:
        seeds = []

        def record(coeffs, lo, hi, shift, sign_lo, bits):
            seeds.append((lo, hi, shift, sign_lo))
            return _bisect(coeffs, lo, hi, shift, sign_lo, bits)

        with mock.patch.object(feasibility, "_bisect", record):
            try:
                feasibility._isolate(k, d, 2 if epsilon == 1 else -2 * epsilon, epsilon)
            except BracketSeedError:
                pass
        _SEEDS[k, d, epsilon] = seeds
    return _SEEDS[k, d, epsilon]


@st.composite
def dickson_seeds(draw):
    k = draw(st.integers(4, 40))
    d = draw(st.sampled_from(range(3, 32, 2)))
    epsilon = draw(st.sampled_from((1, -draw(st.integers(1, (k - 2) // 2)))))
    seeds = seed_brackets(k, d, epsilon)
    assume(seeds)
    return (k, d, epsilon), draw(st.sampled_from(seeds)), draw(st.booleans())


# drawing a seed isolates a whole family the first time, which can take a while
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dickson_seeds(), st.sampled_from(range(60, 445, 32)))
def test_bisect_matches_halving_loop_on_dickson_families(seed, bits):
    """From an isolation seed, or from its 60-bit bracket as the refinement
    does, at every refinement width."""
    (k, d, epsilon), (lo, hi, shift, sign_lo), refine = seed
    coeffs = _family_poly(k, d, epsilon)
    if refine:
        lo, hi, shift = halving_loop(coeffs, lo, hi, shift, sign_lo, TARGET_BRACKET_BITS)
    case = (coeffs, lo, hi, shift, sign_lo, bits)
    assert _bisect(*case) == halving_loop(*case)


GARBAGE = {
    "none": lambda real, *args: None,
    "zero": lambda real, *args: 0,
    "last": lambda real, coeffs, lo, hi, shift, halvings: (1 << halvings) - 1,
    "below": lambda real, *args: -1,
    "beyond": lambda real, coeffs, lo, hi, shift, halvings: 1 << halvings,
    "huge": lambda real, *args: 12345678901234567890123,
    "left": lambda real, *args: (real(*args) or 0) - 1,
    "right": lambda real, *args: (real(*args) or 0) + 1,
}


@pytest.mark.parametrize("garbage", sorted(GARBAGE))
def test_bisect_survives_a_wrong_prediction(garbage, monkeypatch):
    real = feasibility._predict_cell
    monkeypatch.setattr(
        feasibility, "_predict_cell", lambda *args: GARBAGE[garbage](real, *args)
    )
    for k, d, epsilon in ((4, 7, 1), (9, 11, -2), (4, 27, 1)):
        coeffs = _family_poly(k, d, epsilon)
        for lo, hi, shift, sign_lo in seed_brackets(k, d, epsilon):
            for bits in (TARGET_BRACKET_BITS, 124):
                case = (coeffs, lo, hi, shift, sign_lo, bits)
                assert _bisect(*case) == halving_loop(*case)
