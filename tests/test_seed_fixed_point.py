"""Root-isolation seeds in integer fixed point against the mpmath route.

`oracles.isolate_mp` is the isolation with 128-bit mpmath seeds, every root
isolated on its own.  The package isolates only the roots i < d/2 and
mirrors the rest (H_{d-1} - eps is even for odd d).  So its records for
i < d/2 must equal the oracle's bit for bit (bracket, theta, phi), and each
record for i > d/2 must be the exact mirror of record d - i, with a bracket
that meets the oracle's independently isolated one.  alpha, taken from the
angular-defect equation, must match the true root's (`alpha_reference`) to
a relative 1e-12.  The kernels it is built from are checked against mpmath
at 32 bits above their own precision, each within a stated bound in units
of the last place (ulp, 2^-bits), and so are the case-interval ends the
seeds are shrunk from, whose shrink must exceed that bound.
"""

import math
import re
from itertools import count

import pytest

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from cage_spectra import BracketSeedError
from cage_spectra import feasibility
from cage_spectra.feasibility import (
    _acos_near,
    _angle_tables,
    _case_end_error,
    _case_ends,
    _cos_sin,
    _fixed_pi,
    _fixed_two_s,
    _multiples,
    _root_angles,
    _seed_bits,
    _seed_shift,
)
from oracles import alpha_reference, isolate_mp


def isolation_keys(triples):
    """The distinct (k, d, epsilon) isolations of some triples, each with
    the first e that asks for it."""
    keys = {}
    for k, d, e in triples:
        for epsilon in (1, -e // 2):
            keys.setdefault((k, d, epsilon), e)
    return sorted((k, d, e, epsilon) for (k, d, epsilon), e in keys.items())


#: The isolations of the benchmark's 153 paper-grid and 21 deep-girth triples.
WORKLOAD_KEYS = isolation_keys(
    [(k, d, e) for k in range(4, 21) for d in (7, 9, 11) for e in (2, 4, 6) if e <= k - 2]
    + [(k, d, e) for k in (4, 8, 16, 32) for d in (15, 21, 27) for e in sorted({2, k - 2})]
)


def isolate_uncached(k, d, e, epsilon):
    return feasibility._isolate(k, d, e, epsilon)


def outcome(isolate, k, d, e, epsilon):
    try:
        return isolate(k, d, e, epsilon)
    except BracketSeedError as exc:
        return BracketSeedError, str(exc)


def meet(a, b) -> bool:
    """Whether the dyadic brackets (lo, hi, shift) a and b intersect."""
    top = max(a[2], b[2])
    (a_lo, a_hi), (b_lo, b_hi) = ((x[0] << top - x[2], x[1] << top - x[2]) for x in (a, b))
    return max(a_lo, b_lo) <= min(a_hi, b_hi)


def check_against_oracle(key):
    """Compare one isolation with the oracle's.  Returns the oracle's
    failure message when it raises where the package does not; that must
    be on a root i > d/2, whose record the oracle decides on its own."""
    k, d, e, epsilon = key
    got, want = outcome(isolate_uncached, *key), outcome(isolate_mp, *key)
    if got[0] is BracketSeedError:
        assert want[0] is BracketSeedError, key
        return None
    angles = {r.i: _root_angles(k, d, r) for r in got}
    for r in got:
        mirror = got[d - r.i - 1]
        assert (r.theta, r.eta) == (-mirror.theta, -mirror.eta), (key, r.i)
        assert r.bracket == (-mirror.bracket[1], -mirror.bracket[0], mirror.bracket[2]), (key, r.i)
        assert angles[r.i][1] == -angles[mirror.i][1], (key, r.i)
        assert math.isclose(angles[r.i][1], alpha_reference(k, d, r.i, r.eta), rel_tol=1e-12), (key, r.i)
    if want[0] is BracketSeedError:
        index = re.search(r"i=(\d+)\)$", want[1])
        assert index and int(index.group(1)) > d / 2, (key, want)
        return want[1]
    for r, oracle in zip(got, want):
        if r.i < d / 2:
            assert (r, angles[r.i][0]) == (oracle.record, oracle.phi), (key, r.i)
        else:
            assert meet(r.bracket, oracle.record.bracket), (key, r.i)
    return None


def test_fixed_point_isolation_equals_mpmath_on_the_workload_keys():
    """Exhaustive: the package isolates every key.  The oracle still fails
    on the d = 27, k >= 16 keys behind the benchmark's four former failures,
    each on a root i > d/2 whose alpha case bound its 2^-60 bracket cannot
    decide; the package's mirrored record there is exact, and lies in its
    case interval because root d - i's does."""
    assert len(WORKLOAD_KEYS) == 186 + 33
    oracle_failures = [key for key in WORKLOAD_KEYS if check_against_oracle(key)]
    assert oracle_failures == [
        (16, 27, 2, -1), (16, 27, 2, 1), (32, 27, 2, -1), (32, 27, 2, 1), (32, 27, 30, -15)
    ]


@st.composite
def isolations(draw):
    k = draw(st.integers(4, 40))
    d = draw(st.sampled_from(range(3, 32, 2)))
    e = 2 * draw(st.integers(1, (k - 2) // 2))
    return k, d, e, draw(st.sampled_from((1, -e // 2)))


@settings(max_examples=60, deadline=None)
@given(isolations())
def test_fixed_point_isolation_equals_mpmath_on_a_sample(key):
    check_against_oracle(key)


# ---------------------------------------------------------------------------
# the case-interval ends the seeds are shrunk from

def check_case_ends(k, d, epsilon):
    """Every fixed-point case-interval end of (k, d, epsilon) lies within
    `_case_end_error` ulp of -2s cos(phi_end) in mpmath, and the seed's
    span / 2^30 shrink exceeds that bound, so the seed lies inside the
    exact interval."""
    angles = _angle_tables(k, d)
    bits, two_s = angles.bits, angles.two_s
    a = abs(epsilon)
    with reference(bits):
        mp = mpmath.mp
        s_pow = mp.power(k - 1, mp.mpf(-(d - 1)) / 2)
        for i, eta, theta_lo, theta_hi in _case_ends(d, epsilon, angles):
            if eta > 0:
                phi_lo, phi_hi = i * mp.pi / (d + a * s_pow), i * mp.pi / d
            else:
                phi_lo, phi_hi = i * mp.pi / d, i * mp.pi / (d - a * s_pow)
            bound = _case_end_error(two_s, i, bits)
            assert ulps(theta_lo, -2 * mp.sqrt(k - 1) * mp.cos(phi_lo), bits) < bound, (k, d, epsilon, i)
            assert ulps(theta_hi, -2 * mp.sqrt(k - 1) * mp.cos(phi_hi), bits) < bound, (k, d, epsilon, i)
            assert bound << 30 < theta_hi - theta_lo, (k, d, epsilon, i)


def test_case_ends_within_their_bound_on_the_workload_keys():
    for k, d, _, epsilon in WORKLOAD_KEYS:
        check_case_ends(k, d, epsilon)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 200), st.sampled_from(range(3, 62, 2)), st.data())
def test_case_ends_within_their_bound_on_a_sample(k, d, data):
    e = 2 * data.draw(st.integers(1, (k - 2) // 2))
    check_case_ends(k, d, data.draw(st.sampled_from((1, -e // 2))))


def ceil_log2(span):
    """The least t with 2^t >= span, by counting."""
    return next(t for t in count() if 1 << t >= span)


@pytest.mark.parametrize("bits", [168, 400, 1400])
@pytest.mark.parametrize("m", [0, 1, 2, 30, 40, 52, 53, 54, 200, 1300])
def test_seed_shift_is_exact_around_powers_of_two(m, bits):
    """36 + floor(-log2(span / 2^bits)), at least 64: exactly
    36 + bits - ceil(log2 span).  Where binary64 holds span / 2^bits and its
    log2 exactly enough, the float formula the shift once came from agrees."""
    for span in sorted({max(1, 2**m - 1), 2**m, 2**m + 1}):
        shift = _seed_shift(span, bits)
        assert shift == max(64, 36 + bits - ceil_log2(span)), span
        if m <= 40 and bits - m < 1000:
            assert shift == max(64, 36 + int(-math.log2(span / (1 << bits)))), span


def test_seed_shift_does_not_underflow():
    """span / 2^bits below the least binary64 (2^-1074): the float width
    was 0.0 and gave the least shift, 64, collapsing the seed."""
    assert (1 << 170) / (1 << 1400) == 0.0
    assert _seed_shift(1 << 170, 1400) == 36 + 1400 - 170


# ---------------------------------------------------------------------------
# the kernels, against mpmath at bits + 32

def reference(bits):
    return mpmath.mp.workprec(bits + 32)


def ulps(fixed, exact, bits):
    return abs(fixed - exact * mpmath.mpf(2) ** bits)


@given(st.integers(4, 200), st.sampled_from(range(3, 64, 2)))
def test_seed_bits_sit_168_below_the_case_interval(k, d):
    # s^(1-d) = (k-1)^(-(d-1)/2), and 2^(bits-168) is the least power of two
    # at or above its reciprocal
    bits = _seed_bits(k, d)
    power = (k - 1) ** ((d - 1) // 2)
    assert 1 << (bits - 169) < power <= 1 << (bits - 168)


@given(st.integers(1, 1500))
def test_fixed_pi_within_one_ulp(bits):
    with reference(bits):
        assert ulps(_fixed_pi(bits), mpmath.mp.pi, bits) < 1


@given(st.integers(3, 10**6), st.integers(1, 1500))
def test_fixed_two_s_within_two_ulp_below(k, bits):
    with reference(bits):
        exact = 2 * mpmath.sqrt(k - 1) * mpmath.mpf(2) ** bits
        assert 0 <= exact - _fixed_two_s(k, bits) < 2


@st.composite
def fixed_angles(draw, reach=2):
    bits = draw(st.integers(8, 600))
    return draw(st.integers(-reach << bits, reach << bits)), bits


@given(fixed_angles())
def test_cos_sin_within_one_ulp(angle):
    x, bits = angle
    cos, sin = _cos_sin(x, bits)
    with reference(bits):
        t = mpmath.mpf(x) / mpmath.mpf(2) ** bits
        assert ulps(cos, mpmath.cos(t), bits) < 1
        assert ulps(sin, mpmath.sin(t), bits) < 1


@given(st.integers(168, 600), st.sampled_from(range(3, 64, 2)), st.integers(500, 2000))
def test_multiples_within_four_ulp_per_step(bits, d, per_mille):
    """Each angle-addition step adds at most the 1-ulp errors of the step's
    cos and sin plus two truncations: 4 ulp."""
    beta = _fixed_pi(bits) * per_mille // (1000 * d)
    with reference(bits):
        for i, (cos, sin) in enumerate(_multiples(beta, d - 1, bits)):
            t = i * mpmath.mpf(beta) / mpmath.mpf(2) ** bits
            assert ulps(cos, mpmath.cos(t), bits) <= 4 * i
            assert ulps(sin, mpmath.sin(t), bits) <= 4 * i


@given(
    st.integers(168, 600),
    st.sampled_from(range(3, 64, 2)),
    st.data(),
    st.floats(-0.3, 0.3),
)
def test_acos_near_within_its_bound(bits, d, data, offset):
    """phi to within 32 / sin(phi) ulp: the few Newton turns each leave a
    few ulp in cos(phi), and dividing by sin(phi) turns cosine error into
    angle error."""
    i = data.draw(st.integers(1, d - 1))
    near = _fixed_pi(bits) * i // d
    with reference(bits):
        one = mpmath.mpf(2) ** bits
        target = (near / one) + mpmath.mpf(offset) / d
        c = int(mpmath.floor(mpmath.cos(target) * one))
        phi = _acos_near(c, near, *_cos_sin(near, bits), bits)
        exact = mpmath.acos(c / one)
        assert ulps(phi, exact, bits) * mpmath.sin(exact) <= 32
