"""The scan's integer kernels against the arithmetic they replace.

`oracles.poly_enclosure` and `oracles.RatInterval` are the documented
oracles: every endpoint the integer route produces must equal theirs
exactly, so the refinement steps, the certified integers, the product gap
and every verdict stay the same.
Likewise `_bisect` must return exactly the bracket of the bit-by-bit halving
loop at full degree (`oracles.halving_loop`, `oracles.bisect_reference`) on
every bracket that holds one root (`oracles.root_count`, a Sturm count),
and a root's bracket on any other; the x^2 evaluation of an even polynomial
must form the same integers as Horner on all of its coefficients.
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
    isolate_roots,
    moore_bound,
    spectral_feasibility,
)
from cage_spectra import feasibility
from cage_spectra.feasibility import (
    ENCLOSURE_WIDTH_LIMIT,
    TARGET_BRACKET_BITS,
    _bisect,
    _decisive,
    _dyadic_enclosure,
    _family,
    _horner_newton,
    _integers_in,
    _multiplicity_enclosure,
    _newton_even,
    _sign_dyadic,
    _sign_even,
)
from oracles import (
    RatInterval,
    bisect_reference,
    bracket_interval,
    enclosure_interval,
    family_coefficients,
    halving_loop,
    horner_sign,
    poly_enclosure,
    root_count,
)

PAPER_GRID = [
    (k, d, e)
    for k in range(4, 21) for d in (7, 9, 11) for e in (2, 4, 6) if e <= k - 2
]
#: The benchmark's 21 deep-girth triples.
DEEP_GIRTH = [(k, d, e) for k in (4, 8, 16, 32) for d in (15, 21, 27) for e in sorted({2, k - 2})]

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
                coeffs = family_coefficients(k, d, epsilon)
                args = (coeffs, lo, hi, shift, horner_sign(coeffs, lo, shift), bits)
                lo, hi, shift = _bisect(_family(k, d, epsilon), lo, hi, shift, bits)
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
    verdict = spectral_feasibility(k, d, e).gap
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
# the even family in x^2: P(x) = Q(x^2) evaluated through Q


def even(q):
    """P(x) = Q(x^2) at full degree, constant term first."""
    coeffs = [0] * (2 * len(q) - 1)
    coeffs[::2] = q
    return tuple(coeffs)


def full_degree_newton(coeffs, num, shift):
    """(2^(shift*deg) P, 2^(shift*(deg-1)) P') at num / 2^shift, term by term."""
    deg = len(coeffs) - 1
    value = sum(c * num**j << shift * (deg - j) for j, c in enumerate(coeffs))
    slope = sum(j * c * num ** (j - 1) << shift * (deg - j) for j, c in enumerate(coeffs) if j)
    return value, slope


numerators = st.one_of(
    st.just(0),
    st.integers(-(1 << 40), 1 << 40),
    st.integers(-(1 << 700), 1 << 700),
)


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, numerators, st.one_of(st.integers(0, 80), st.integers(300, 700)))
@example([5], 0, 0)                       # constant
@example([-3, 0, 1], -(1 << 600), 650)    # huge numerator and shift
@example([4, -4, 1], 2, 1)                # P = (x^2 - 2)^2 at x = 1: a double zero of Q at 1
def test_even_sign_and_newton_equal_the_full_degree_integers(q, num, shift):
    q = tuple(q)
    value, slope = full_degree_newton(even(q), num, shift)
    assert _newton_even(q, num, shift) == (value, slope)
    assert _horner_newton(even(q), num, shift) == (value, slope)
    assert _sign_even(q, num, shift) == (value > 0) - (value < 0)
    assert _sign_even(q, num, shift) == horner_sign(even(q), num, shift)


# ---------------------------------------------------------------------------
# root brackets: `_bisect` against the halving loop


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
    """Q for an even P(x) = Q(x^2) with one to three pairs of real roots
    +-r, r placed in a dyadic bracket, some of them on a grid point the
    halving loop visits, with or without a factor that has no real roots
    and a nudge to the constant term; plus the bracket (some holding 0,
    some negative) and a target width."""
    shift = draw(st.integers(0, 40))
    lo = draw(st.integers(-(1 << (shift + 3)), 1 << (shift + 3)))
    hi = lo + draw(st.integers(1, 1 << (shift + 4)))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        extra = draw(st.integers(0, 70))
        num = draw(st.integers(lo << extra, hi << extra))
        factors.append((-num * num, 1 << 2 * (shift + extra)))  # 2^(2s) y - num^2
    if draw(st.booleans()):
        factors.append((draw(st.integers(1, 100)), 0, 1))
    q = list(poly_product(factors))
    q[0] += draw(st.sampled_from((0, 0, 1, -1, 12345)))
    return tuple(q), lo, hi, shift, draw(st.integers(0, 100))


def assert_bisect_contract(q, lo, hi, shift, bits):
    """`_bisect`'s contract: on a bracket that holds exactly one root of
    P(x) = Q(x^2), the halving loop's bracket; on any other, None, a grid
    cell of the bracket below width 2^-bits whose ends P gives nonzero
    opposite signs, or a point where P vanishes."""
    coeffs = even(q)
    got = _bisect(q, lo, hi, shift, bits)
    expected = bisect_reference(coeffs, lo, hi, shift, bits)
    if root_count(coeffs, lo, hi, shift) == 1:
        assert got == expected
    elif got is None:
        assert expected is None  # None only where both ends share one sign
    else:
        got_lo, got_hi, got_shift = got
        if got_lo == got_hi:
            assert horner_sign(coeffs, got_lo, got_shift) == 0
            return
        halvings = got_shift - shift
        assert halvings >= 0 and got_hi - got_lo == hi - lo
        assert (got_lo - (lo << halvings)) % (hi - lo) == 0
        assert lo << halvings <= got_lo and got_hi <= hi << halvings
        assert (got_hi - got_lo) << bits < 1 << got_shift
        signs = horner_sign(coeffs, got_lo, got_shift), horner_sign(coeffs, got_hi, got_shift)
        assert signs in ((1, -1), (-1, 1))


@settings(max_examples=300, deadline=None)
@given(bracketed_roots())
@example(((-1, 9), 1, 2, 2, 20))                          # one simple root, 1/3
@example(((-1, 9), -2, -1, 2, 20))                        # its mirror, -1/3
@example(((-9, 16), 1, 2, 1, 10))                         # root 3/4: collapses at a midpoint
@example((poly_product([(-1, 9), (-16, 9), (-49, 9)]), 0, 3, 0, 30))  # three roots
@example(((-2, 1), -1, 2, 0, 40))                         # holds 0 (root sqrt 2)
@example(((-1, 9), 341, 342, 10, 5))                      # L = 0: already narrow
@example(((-1, 9), 5, 5, 0, 20))                          # a point, no root
@example(((-1, 9), 1, 3, 0, 20))                          # no sign change
@example(((-1, 9), 1, 3, 3, 20))                          # root 1/3 at the low end
@example(((7,), 0, 1, 0, 20))                             # constant, no root
def test_bisect_matches_halving_loop(case):
    assert_bisect_contract(*case)


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, dyadic_brackets(), st.integers(0, 100))
def test_bisect_matches_halving_loop_on_any_input(q, bracket, bits):
    assert_bisect_contract(tuple(q), *bracket, bits)


_SEEDS = {}


def isolate_uncached(k, d, e, epsilon):
    return feasibility._isolate(k, d, e, epsilon, feasibility._angle_tables(k, d))


def seed_brackets(k, d, epsilon):
    """The (lo, hi, shift) that root isolation of H_{d-1} - epsilon hands to
    `_bisect`: one per root i <= (d-1)/2, the roots it seeds."""
    if (k, d, epsilon) not in _SEEDS:
        seeds = []

        def record(q, lo, hi, shift, bits):
            seeds.append((lo, hi, shift))
            return _bisect(q, lo, hi, shift, bits)

        with mock.patch.object(feasibility, "_bisect", record):
            try:
                isolate_uncached(k, d, 2 if epsilon == 1 else -2 * epsilon, epsilon)
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


def refined(coeffs, lo, hi, shift):
    """The seed's 60-bit bracket, as the halving loop ends on it."""
    sign_lo = horner_sign(coeffs, lo, shift)
    return halving_loop(coeffs, lo, hi, shift, sign_lo, TARGET_BRACKET_BITS)


# drawing a seed isolates a whole family the first time, which can take a while
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dickson_seeds(), st.sampled_from(range(60, 445, 32)))
def test_bisect_matches_halving_loop_on_dickson_families(seed, bits):
    """From an isolation seed, or from its 60-bit bracket as the refinement
    does, at every refinement width."""
    (k, d, epsilon), (lo, hi, shift), refine = seed
    coeffs = family_coefficients(k, d, epsilon)
    if refine:
        lo, hi, shift = refined(coeffs, lo, hi, shift)
    assert _bisect(_family(k, d, epsilon), lo, hi, shift, bits) == bisect_reference(
        coeffs, lo, hi, shift, bits
    )


GARBAGE = {
    "none": lambda real, *args: None,
    "zero": lambda real, *args: 0,
    "last": lambda real, q, lo, hi, shift, halvings: (1 << halvings) - 1,
    "below": lambda real, *args: -1,
    "beyond": lambda real, q, lo, hi, shift, halvings: 1 << halvings,
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
        q = _family(k, d, epsilon)
        coeffs = family_coefficients(k, d, epsilon)
        for lo, hi, shift in seed_brackets(k, d, epsilon):
            for bits in (TARGET_BRACKET_BITS, 124):
                assert _bisect(q, lo, hi, shift, bits) == bisect_reference(
                    coeffs, lo, hi, shift, bits
                )


# ---------------------------------------------------------------------------
# the mirror: for odd d, H_{d-1} - eps is even and H_{d-2}, H'_{d-1} are odd,
# so root d - i, its enclosure and its refinement are exact mirrors of root i's

@st.composite
def odd_d_families(draw):
    """(k, d, e, epsilon) with d odd, well beyond the paper's grid."""
    k = draw(st.integers(4, 60))
    e = 2 * draw(st.integers(1, (k - 2) // 2))
    return k, draw(st.sampled_from(range(3, 42, 2))), e, draw(st.sampled_from((1, -e // 2)))


@given(odd_d_families())
def test_family_poly_is_even_and_the_enclosure_polynomials_odd(family):
    k, d, e, epsilon = family
    coeffs = family_coefficients(k, d, epsilon)
    assert not any(coeffs[1::2])
    assert even(_family(k, d, epsilon)) == coeffs
    polys = feasibility._polys(k, d)
    assert not any(polys.h_prev.coefficients[::2])
    assert not any(polys.h_deriv.coefficients[::2])


def as_fractions(ends):
    return None if ends is None else tuple(Fraction(num, den) for num, den in ends)


@settings(max_examples=150, deadline=None)
@given(odd_d_families(), st.data())
def test_multiplicity_enclosure_over_the_mirrored_bracket_is_equal(family, data):
    """On an arbitrary dyadic bracket, and on a root's own bracket."""
    k, d, e, epsilon = family
    roots = isolate_roots(k, d, e, epsilon)
    lo, hi, shift = data.draw(
        st.one_of(dyadic_brackets(), st.sampled_from([r.bracket for r in roots]))
    )
    ends = _multiplicity_enclosure(k, d, e, epsilon, lo, hi, shift)
    mirrored = _multiplicity_enclosure(k, d, e, epsilon, -hi, -lo, shift)
    assert as_fractions(mirrored) == as_fractions(ends)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dickson_seeds(), st.sampled_from(range(60, 445, 32)))
def test_bisect_on_the_mirrored_bracket_returns_the_mirrored_bracket(seed, bits):
    """From an isolation seed, or from its 60-bit bracket as the refinement
    does; the mirrored bracket's low end has the opposite sign unless the
    bracket has collapsed onto an exact root."""
    (k, d, epsilon), (lo, hi, shift), refine = seed
    q, coeffs = _family(k, d, epsilon), family_coefficients(k, d, epsilon)
    sign_lo = horner_sign(coeffs, lo, shift)
    if refine:
        lo, hi, shift = _bisect(q, lo, hi, shift, TARGET_BRACKET_BITS)
    assert horner_sign(coeffs, -hi, shift) == (-sign_lo if lo < hi else 0)
    got_lo, got_hi, got_shift = _bisect(q, -hi, -lo, shift, bits)
    assert (-got_hi, -got_lo, got_shift) == _bisect(q, lo, hi, shift, bits)
