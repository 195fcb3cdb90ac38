"""Spectral feasibility of antipodal (k, 2d)-graphs with excess e.

For a hypothetical antipodal k-regular graph of even girth 2d (d odd) and
excess e with 2 <= e <= k - 2, every adjacency eigenvalue other than +-k is
a root of H_{d-1}(x) - eps with eps in {1, -e/2}, where H_{d-1} is the
degree-(d-1) Dickson polynomial of the second kind with parameter k - 1.
This module:

* isolates all 2(d-1) roots of the integer polynomial H_{d-1} - eps in
  dyadic brackets, seeded from the case-split angular intervals

      i*pi/(d + |eta| s^{1-d}) < phi_i < i*pi/d        (eta_i > 0)
      i*pi/d < phi_i < i*pi/(d - |eta| s^{1-d})        (eta_i < 0)

  with theta = -2 s cos(phi), s = sqrt(k-1), eta_i = eps * (-1)^(d+i).
  The seeds are computed in integer fixed point, at 168 bits below the
  scale s^(1-d) of the interval: pi by Machin's formula, cos and sin of the
  three base angles pi/d and pi/(d +- |eta| s^(1-d)) by Taylor series and
  their multiples by angle addition, 2s by `math.isqrt`; phi and alpha come
  from the final bracket by Newton's method in the same arithmetic.
  Each bracket is the cell exact bisection would end on: Newton's method in
  integers predicts it, and it is certified by an interval enclosure of
  P' that excludes 0 over the seed bracket (P is monotone there) and two
  exact signs at the cell's ends, with the halving loop as the fallback;

* evaluates the eigenvalue multiplicity in closed form

      m(theta) = n e k (k-1) H_{d-2}(theta)
                 / [ 2 eps (2 eps + e/2 - 1) H'_{d-1}(theta) (k^2 - theta^2) ]

  (`multiplicity_trig`, the trigonometric weight form built from f, g1,
  g2, g3, is a second route to the same value; the engine does not
  evaluate it, and the acceptance suite checks that the two agree);

* certifies integrality of each multiplicity with exact interval arithmetic
  propagated from the root bracket (an enclosure must contain exactly one
  integer), done in integers over the bracket's power of two;

* for d >= 7 certifies the product-gap exclusion: the squares of the
  second-smallest roots of the two families differ by a value trapped in a
  certified interval inside (0, 1), yet the difference would have to be an
  integer for the graph to exist.

n is always the Moore bound plus e; an external order is never accepted.
A "spectrally-admissible" verdict means no implemented test excludes the
triple; it is not an existence claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import (
    BracketSeedError,
    EvenHalfGirthError,
    ExcessRangeError,
    IllConditionedError,
    OddExcessError,
    ParameterDomainError,
    RegimeViolationError,
)
from .graphs import moore_bound
from .intersection import bd_moments, build_bd
from .polynomials import IntPolynomial, derivative, dickson_family

VERDICT_ADMISSIBLE = "spectrally-admissible"
VERDICT_INTEGRALITY = "excluded-by-integrality"
VERDICT_GAP = "excluded-by-gap"
VERDICT_OUTSIDE = "outside-regime"

#: Root brackets are shrunk below this dyadic width before any verdict.
TARGET_BRACKET_BITS = 60

#: A multiplicity enclosure wider than this triggers bracket refinement.
ENCLOSURE_WIDTH_LIMIT = Fraction(1, 2)

_GAP_MIN_D = 7  # the product-gap argument needs girth 2d >= 14


def validate_parameters(k: int, d: int, e: int) -> None:
    """Reject triples outside the proven regime, each with a named error:
    odd e, even d, and e outside [2, k-2]."""
    if e % 2:
        raise OddExcessError(f"excess must be even, got e={e}")
    if d % 2 == 0:
        raise EvenHalfGirthError(f"half-girth d must be odd, got d={d}")
    if d < 3:
        raise ParameterDomainError(f"half-girth d must be >= 3, got d={d}")
    if e < 2:
        raise ExcessRangeError(f"excess must be >= 2, got e={e}")
    if e > k - 2:
        raise ExcessRangeError(f"excess must satisfy e <= k - 2, got e={e} with k={k}")


# ---------------------------------------------------------------------------
# root isolation

@dataclass(frozen=True)
class RootRecord:
    """One isolated root theta_i of H_{d-1}(x) - eps.

    phi in (0, pi) satisfies theta = -2 s cos(phi); alpha = i*pi - d*phi is
    the angular defect, whose sign and magnitude obey the case bound for
    eta = eps * (-1)^(d+i).  ``bracket`` is the integer triple (lo, hi, shift):
    theta lies in [lo, hi] / 2^shift, of width below 2^-60.
    """

    i: int
    epsilon: int
    eta: int
    theta: float
    phi: float
    alpha: float
    bracket: tuple[int, int, int]


class _Polys(NamedTuple):
    """The polynomials the scan needs for one (k, d)."""

    h: IntPolynomial        # H_{d-1}
    h_prev: IntPolynomial   # H_{d-2}
    h_deriv: IntPolynomial  # H'_{d-1}


@lru_cache(maxsize=None)
def _polys(k: int, d: int) -> _Polys:
    h = dickson_family("H", k, d - 1)
    return _Polys(h, dickson_family("H", k, d - 2), derivative(h))


def _family_poly(k: int, d: int, epsilon: int) -> tuple[int, ...]:
    """Coefficients of H_{d-1} - epsilon, constant term first."""
    coeffs = list(_polys(k, d).h.coefficients)
    coeffs[0] -= epsilon
    return tuple(coeffs)


def _sign_dyadic(coeffs: tuple[int, ...], num: int, shift: int) -> int:
    """Exact sign of P(num / 2^shift) for an integer polynomial P: the sign of
    2^(shift*deg) P(num / 2^shift), by Horner's rule in integers."""
    acc = coeffs[-1]
    for j, c in enumerate(reversed(coeffs[:-1]), 1):
        acc = acc * num + (c << shift * j)
    return (acc > 0) - (acc < 0)


def _dyadic_enclosure(coeffs: tuple[int, ...], lo: int, hi: int, shift: int) -> tuple[int, int]:
    """Interval Horner of an integer polynomial (constant term first) over
    the dyadic bracket [lo, hi] / 2^shift, in integers.

    Returns numerators (a, b): [a, b] / 2^(shift*deg) equals interval Horner
    in exact rational arithmetic endpoint for endpoint.  Each step multiplies
    by the bracket, taking the extreme corners by sign as the four-product
    min/max would, then adds c; every endpoint keeps the one shared power of
    two, so no gcd is ever taken.
    """
    a = b = coeffs[-1]
    for j, c in enumerate(reversed(coeffs[:-1]), 1):
        c <<= shift * j
        if lo >= 0:
            a, b = (a * lo if a >= 0 else a * hi) + c, (b * hi if b >= 0 else b * lo) + c
        elif hi <= 0:
            a, b = (b * lo if b >= 0 else b * hi) + c, (a * hi if a >= 0 else a * lo) + c
        else:
            a, b = min(a * hi, b * lo) + c, max(a * lo, b * hi) + c
    return a, b


def _horner_newton(coeffs: tuple[int, ...], num: int, shift: int) -> tuple[int, int]:
    """P and P' at num / 2^shift in one Horner pass, in integers: returns
    (2^(shift*deg) P, 2^(shift*(deg-1)) P'), so P/P' in units of 2^-shift is
    their integer quotient."""
    acc, slope = coeffs[-1], 0
    for j, c in enumerate(reversed(coeffs[:-1]), 1):
        slope = slope * num + acc
        acc = acc * num + (c << shift * j)
    return acc, slope


#: Extra bits the Newton predictor carries below the grid of final cells.
_NEWTON_GUARD = 16

#: Bits a Newton step is assumed to lose to the curvature of P: a step that
#: moves an iterate by 2^-b leaves it about 2^(MARGIN - 2b) from the root.
_NEWTON_MARGIN = 12

#: Newton steps before the predictor gives up.
_NEWTON_STEPS = 40


def _predict_cell(coeffs, lo, hi, shift, halvings):
    """Index j of the grid cell of width (hi - lo) / 2^(shift+halvings) that
    holds the root of P in (lo, hi) / 2^shift, counted from lo, predicted by
    Newton's method from the midpoint; None when it does not settle.

    Each step runs at the scale its result can use (twice the bits its start
    is right to), so only the last one or two run at the full scale: the
    cell grid plus `_NEWTON_GUARD` bits.
    """
    top = shift + halvings + _NEWTON_GUARD
    scale = min(top, max(shift + 1, 2 * _NEWTON_MARGIN))
    x = (lo + hi) << (scale - shift - 1)
    known = shift + 1 - (hi - lo).bit_length()  # bits to which the midpoint is right
    for _ in range(_NEWTON_STEPS):
        target = min(top, max(scale, 2 * known))
        x <<= target - scale
        scale = target
        value, slope = _horner_newton(coeffs, x, scale)
        if slope == 0:
            return None
        step = value // slope
        x -= step
        # the step was the old iterate's error; the new one is right to
        # about twice as many bits
        known = min(scale, 2 * (scale - step.bit_length()) - _NEWTON_MARGIN)
        if known >= top:
            break
    else:
        return None
    return ((x >> _NEWTON_GUARD) - (lo << halvings)) // (hi - lo)


def _monotone(coeffs, lo, hi, shift) -> bool:
    """True when the interval-Horner enclosure of P' over the dyadic bracket
    [lo, hi] / 2^shift excludes 0, so P is strictly monotone on it."""
    slope = tuple(j * c for j, c in enumerate(coeffs))[1:]
    if not slope:
        return False
    slope_lo, slope_hi = _dyadic_enclosure(slope, lo, hi, shift)
    return slope_lo > 0 or slope_hi < 0


def _bisect(coeffs, lo, hi, shift, sign_lo, bits):
    """Shrink the dyadic bracket (lo, hi)/2^shift below width 2^-bits,
    keeping P(lo) and P(hi) of opposite sign (or collapsing onto an exact
    root): the bracket of the halving loop at the end, mostly without its
    sign evaluations.

    Halving keeps the numerator width w = hi - lo and runs a number of steps
    L fixed by the width alone, so unless it collapses onto an exact root it
    ends on a cell [lo 2^L + j w, lo 2^L + (j+1) w] / 2^(shift+L) of a uniform
    grid.  The Newton-predicted cell j is taken only when certified: the
    interval-Horner enclosure of P' over the whole bracket excludes 0 (P is
    strictly monotone there, so every grid point left of the root has the
    sign of the cell's low end and every one right of it the sign of its
    high end, and halving can only reach this cell), and exact signs show
    sign_lo at the cell's low end and -sign_lo at its high end.  Anything
    else runs the halving loop.
    """
    width = hi - lo
    halvings = max(0, width.bit_length() + bits - shift) if width > 0 else 0
    if halvings and _monotone(coeffs, lo, hi, shift):
        cell = _predict_cell(coeffs, lo, hi, shift, halvings)
        if cell is not None and 0 <= cell < 1 << halvings:
            low, scale = (lo << halvings) + cell * width, shift + halvings
            if _sign_dyadic(coeffs, low, scale) == sign_lo != 0 and _sign_dyadic(
                coeffs, low + width, scale
            ) == -sign_lo:
                return low, low + width, scale
    while ((hi - lo) << bits) >= (1 << shift):
        lo <<= 1
        hi <<= 1
        shift += 1
        mid = (lo + hi) // 2
        sign_mid = _sign_dyadic(coeffs, mid, shift)
        if sign_mid == 0:
            lo = hi = mid
            break
        if sign_mid == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, shift


# ---------------------------------------------------------------------------
# fixed-point kernels for the seeds: a real x is held as an integer near
# x * 2^bits

#: Bits the series kernels carry below the precision they return.
_KERNEL_GUARD = 16


def _drop_guard(x: int) -> int:
    """x rounded from `_KERNEL_GUARD` extra bits to the nearest ulp."""
    return (x + (1 << (_KERNEL_GUARD - 1))) >> _KERNEL_GUARD


def _seed_bits(k: int, d: int) -> int:
    """Working precision of the seeds, phi and alpha: 168 bits below
    s^(1-d) = (k-1)^(-(d-1)/2), the scale of the angular case interval."""
    return 168 + ((k - 1) ** ((d - 1) // 2) - 1).bit_length()


def _atan_inv(m: int, bits: int) -> int:
    """atan(1/m) in fixed point by its Taylor series, each term truncated."""
    power, m2 = (1 << bits) // m, m * m  # 2^bits / m^(2j+1)
    total, j = 0, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if j % 2 else term
        power //= m2
        j += 1
    return total


@lru_cache(maxsize=None)
def _fixed_pi(bits: int) -> int:
    """pi in fixed point, within 1 ulp, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239)."""
    work = bits + _KERNEL_GUARD
    return _drop_guard(16 * _atan_inv(5, work) - 4 * _atan_inv(239, work))


def _fixed_two_s(k: int, bits: int) -> int:
    """2s = 2 sqrt(k-1) in fixed point, at most 2 ulp below it."""
    return 2 * math.isqrt((k - 1) << 2 * bits)


def _cos_sin(x: int, bits: int) -> tuple[int, int]:
    """cos and sin of x / 2^bits in fixed point, each within 1 ulp for
    |x / 2^bits| <= 2, by their Taylor series."""
    work = bits + _KERNEL_GUARD
    ax = abs(x) << _KERNEL_GUARD
    term = cos = 1 << work
    sin, n = 0, 0
    while term:
        n += 1
        term = (term * ax >> work) // n  # |x|^n / n!
        if n % 2:
            sin += term if n % 4 == 1 else -term
        else:
            cos += term if n % 4 == 0 else -term
    return _drop_guard(cos), _drop_guard(sin if x >= 0 else -sin)


def _turn(cos: int, sin: int, by_cos: int, by_sin: int, bits: int) -> tuple[int, int]:
    """(cos, sin) of the sum of two angles, by angle addition."""
    return (cos * by_cos - sin * by_sin) >> bits, (sin * by_cos + cos * by_sin) >> bits


def _multiples(beta: int, count: int, bits: int) -> list[tuple[int, int]]:
    """(cos, sin) of i * beta / 2^bits for i = 0..count, by the
    angle-addition recurrence from one `_cos_sin`."""
    step = _cos_sin(beta, bits)
    out = [(1 << bits, 0)]
    for _ in range(count):
        out.append(_turn(*out[-1], *step, bits))
    return out


def _acos_near(c: int, phi: int, cos_phi: int, sin_phi: int, bits: int) -> int:
    """The angle in (0, pi) whose cosine is c / 2^bits, in fixed point with
    bits >= 64.

    ``phi`` is a nearby angle with its cosine and sine.  The float acos
    gives the first step from it; Newton's method on cos then refines it,
    turning (cos_phi, sin_phi) by each step until the next one would be
    below the last few bits."""
    guess = math.acos(c / (1 << bits)) - phi / (1 << bits)
    step = round(math.ldexp(guess, 64)) << (bits - 64)
    for _ in range(_NEWTON_STEPS):
        cos_phi, sin_phi = _turn(cos_phi, sin_phi, *_cos_sin(step, bits), bits)
        phi += step
        step = ((cos_phi - c) << bits) // sin_phi
        if 2 * step.bit_length() + 8 < bits:
            break
    return phi + step


#: Isolated roots per (k, d, epsilon), for the life of the process.  The
#: roots do not depend on e beyond epsilon, so the epsilon = 1 family is
#: shared by every e; a failed isolation is never stored.
_ROOTS: dict[tuple[int, int, int], tuple[RootRecord, ...]] = {}


def isolate_roots(k: int, d: int, e: int, epsilon: int) -> list[RootRecord]:
    """Isolate the d-1 roots of H_{d-1}(x) - epsilon in exact dyadic brackets.

    epsilon must be 1 or -e/2.  Each root is seeded from its angular case
    interval, bracketed to dyadic width below 2^-60, and checked against its
    alpha case bound; a seed without a sign change is an internal error.
    Records come back sorted by theta ascending with i = 1..d-1, in a new
    list on every call.
    """
    validate_parameters(k, d, e)
    if epsilon not in (1, -e // 2):
        raise ParameterDomainError(
            f"epsilon must be 1 or -e/2 = {-e // 2}, got {epsilon}"
        )
    key = (k, d, epsilon)
    roots = _ROOTS.get(key)
    if roots is None:
        roots = _ROOTS[key] = _isolate(k, d, e, epsilon)
    return list(roots)


def _isolate(k: int, d: int, e: int, epsilon: int) -> tuple[RootRecord, ...]:
    """The uncached isolation; ``e`` only names the triple in errors.

    The seeds, phi and alpha are computed in fixed point at `_seed_bits`
    bits.  |eta| s^(1-d) is the rational a / q, so the case interval's ends
    are the multiples of three base angles pi/d and pi/(d +- a/q)."""
    coeffs = _family_poly(k, d, epsilon)
    bits = _seed_bits(k, d)
    pi = _fixed_pi(bits)
    two_s = _fixed_two_s(k, bits)
    a, q = abs(epsilon), (k - 1) ** ((d - 1) // 2)
    beta = pi // d
    centre = _multiples(beta, d - 1, bits)                  # i pi / d
    inner = _multiples(pi * q // (d * q + a), d - 1, bits)  # i pi / (d + a/q)
    outer = _multiples(pi * q // (d * q - a), d - 1, bits)  # i pi / (d - a/q)
    records = []
    for i in range(1, d):
        eta = epsilon if (d + i) % 2 == 0 else -epsilon
        cos_lo, cos_hi = (inner[i][0], centre[i][0]) if eta > 0 else (centre[i][0], outer[i][0])
        theta_lo = -(two_s * cos_lo) >> bits
        theta_hi = -(two_s * cos_hi) >> bits
        # seed strictly inside the open interval; the root keeps a
        # bounded fraction of the interval width on both sides:
        # lo = ceil((theta_lo + w/2^30) 2^shift), hi = floor((theta_hi - w/2^30) 2^shift)
        span = theta_hi - theta_lo
        width = span / (1 << bits)
        shift = max(64, 36 + int(-math.log2(width)) if width > 0 else 64)
        lo = -((-((theta_lo << 30) + span) << shift) >> (bits + 30))
        hi = (((theta_hi << 30) - span) << shift) >> (bits + 30)
        sign_lo = _sign_dyadic(coeffs, lo, shift)
        sign_hi = _sign_dyadic(coeffs, hi, shift)
        if sign_lo == 0:
            hi = lo
        elif sign_hi == 0:
            lo = hi
        elif sign_lo * sign_hi > 0:
            raise BracketSeedError(
                f"seed interval for (k={k}, d={d}, e={e}, eps={epsilon}, i={i}) "
                "does not bracket a sign change"
            )
        else:
            lo, hi, shift = _bisect(coeffs, lo, hi, shift, sign_lo, TARGET_BRACKET_BITS)
        # cos(phi) = -theta_mid / (2s) at the bracket's midpoint
        cos_phi = (-(lo + hi) << 2 * bits) // (two_s << (shift + 1))
        phi = _acos_near(cos_phi, i * beta, *centre[i], bits)
        alpha = i * pi - d * phi
        bound = a * min(phi, pi - phi) // q
        if eta > 0 and not (0 < alpha < bound):
            raise BracketSeedError(
                f"alpha={alpha / (1 << bits)} outside case bound (0, {bound / (1 << bits)}) "
                f"for (k={k}, d={d}, e={e}, eps={epsilon}, i={i})"
            )
        if eta < 0 and not (-bound < alpha < 0):
            raise BracketSeedError(
                f"alpha={alpha / (1 << bits)} outside case bound ({-bound / (1 << bits)}, 0) "
                f"for (k={k}, d={d}, e={e}, eps={epsilon}, i={i})"
            )
        records.append(
            RootRecord(
                i=i,
                epsilon=epsilon,
                eta=eta,
                theta=(lo + hi) / (1 << (shift + 1)),
                phi=phi / (1 << bits),
                alpha=alpha / (1 << bits),
                bracket=(lo, hi, shift),
            )
        )
    top = max(r.bracket[2] for r in records)  # order the low ends at one shift
    records.sort(key=lambda r: r.bracket[0] << (top - r.bracket[2]))
    if [r.i for r in records] != list(range(1, d)):
        raise BracketSeedError("isolated roots are not ascending in their index order")
    return tuple(records)


# ---------------------------------------------------------------------------
# multiplicity formulas

def multiplicity_closed_form(k: int, d: int, e: int, epsilon: int, theta: float) -> float:
    """Eigenvalue multiplicity at a root theta of H_{d-1} - epsilon:

        n e k (k-1) H_{d-2}(theta)
        / [ 2 eps (2 eps + e/2 - 1) H'_{d-1}(theta) (k^2 - theta^2) ]

    with n = M(k, 2d) + e.  Raises IllConditionedError when the derivative
    or k^2 - theta^2 falls below 1e-12 in magnitude."""
    validate_parameters(k, d, e)
    n = moore_bound(k, 2 * d) + e
    polys = _polys(k, d)
    h_prev = polys.h_prev(theta)
    h_deriv = polys.h_deriv(theta)
    k2t2 = k * k - theta * theta
    if abs(h_deriv) < 1e-12 or abs(k2t2) < 1e-12:
        raise IllConditionedError(
            f"multiplicity at theta={theta} is ill-conditioned "
            f"(|H'|={abs(h_deriv):.3e}, |k^2-theta^2|={abs(k2t2):.3e})"
        )
    return (n * e * k * (k - 1) * h_prev) / (
        2 * epsilon * (2 * epsilon + e // 2 - 1) * h_deriv * k2t2
    )


def f_weight(k: int, z: float) -> float:
    """f(z) = 4 s^2 (1 - z^2) / (k^2 - 4 s^2 z^2) on (-1, 1); even, concave."""
    if not -1.0 < z < 1.0:
        raise ParameterDomainError(f"z must lie in (-1, 1), got {z}")
    if k < 3:
        raise ParameterDomainError(f"degree k must be >= 3, got {k}")
    s2 = k - 1
    zz = z * z
    return 4 * s2 * (1 - zz) / (k * k - 4 * s2 * zz)


_G_SIGNS = {"g1": None, "g2": -1, "g3": +1}


def g_weight(which: str, k: int, d: int, e: int, z: float) -> float:
    """The monotone weights g1 (increasing), g2 (decreasing), g3 (increasing):

        g(z; a) = k (k-1) (sqrt(1 - a^2 s^(2-2d) (1 - z^2)) + a s^(1-d) z)
                  / (d sqrt(1 - a^2 s^(2-2d) (1 - z^2)) + a s^(1-d) z)

    with a = 1 for g1, a = -e/2 for g2, a = +e/2 for g3.  The radicand is
    positive in the supported regime; a nonpositive radicand means the
    requested parameters violate it and raises."""
    if which not in _G_SIGNS:
        raise ParameterDomainError(f"unknown weight {which!r}; expected g1, g2, or g3")
    if not -1.0 < z < 1.0:
        raise ParameterDomainError(f"z must lie in (-1, 1), got {z}")
    sign = _G_SIGNS[which]
    a = 1 if sign is None else sign * (e // 2)
    s_pow = (k - 1) ** (-(d - 1) / 2)
    radicand = 1 - a * a * (k - 1) ** (-(d - 1)) * (1 - z * z)
    if radicand <= 0:
        raise RegimeViolationError(
            f"radicand {radicand:.6e} is not positive for {which} at "
            f"(k={k}, d={d}, e={e}, z={z}); parameters violate the regime"
        )
    root = math.sqrt(radicand)
    return k * (k - 1) * (root + a * s_pow * z) / (d * root + a * s_pow * z)


def multiplicity_trig(k: int, d: int, e: int, record: RootRecord) -> float:
    """Multiplicity from the trigonometric weight form:

        eps = 1:            n e / (4 s^2 (e/2+1)) * f(cos phi) * g1(eta cos phi)
        eps = -e/2, i odd:  n   / (2 s^2 (e/2+1)) * f(cos phi) * g2(cos phi)
        eps = -e/2, i even: n   / (2 s^2 (e/2+1)) * f(cos phi) * g3(cos phi)

    Must agree with `multiplicity_closed_form` to 1e-6 relative."""
    validate_parameters(k, d, e)
    expected_eta = record.epsilon if (d + record.i) % 2 == 0 else -record.epsilon
    if record.eta != expected_eta:
        raise BracketSeedError(
            f"record eta={record.eta} inconsistent with eps={record.epsilon}, i={record.i}"
        )
    n = moore_bound(k, 2 * d) + e
    s2 = k - 1
    z = math.cos(record.phi)
    if record.epsilon == 1:
        return n * e / (4 * s2 * (e // 2 + 1)) * f_weight(k, z) * g_weight(
            "g1", k, d, e, record.eta * z
        )
    if record.epsilon != -e // 2:
        raise ParameterDomainError(f"record epsilon {record.epsilon} matches neither 1 nor -e/2")
    if (record.i % 2 == 1) != (record.eta < 0):
        raise BracketSeedError(
            f"branch selection inconsistent: i={record.i} with eta={record.eta}"
        )
    which = "g2" if record.i % 2 == 1 else "g3"
    return n / (2 * s2 * (e // 2 + 1)) * f_weight(k, z) * g_weight(which, k, d, e, z)


# ---------------------------------------------------------------------------
# certified integrality

@dataclass(frozen=True)
class MultiplicityAssessment:
    """Certified view of one root's multiplicity: it lies in [a/b, c/q] for
    ``enclosure`` ((a, b), (c, q)) with b, q > 0, and ``integer`` is the one
    integer there (None when there is not exactly one)."""

    record: RootRecord
    closed_form: float
    enclosure: tuple[tuple[int, int], tuple[int, int]]
    integer: int | None
    nearest: int
    deviation: float

    @property
    def integral(self) -> bool:
        return self.integer is not None


def _dyadic_square(lo: int, hi: int) -> tuple[int, int]:
    """Tight enclosure of x^2 over [lo, hi] / 2^shift, over 2^(2 shift)."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


def _integers_in(ends) -> range:
    """The integers in [a/b, c/q] for ends ((a, b), (c, q)) with b, q > 0."""
    (a, b), (c, q) = ends
    return range(-(-a // b), c // q + 1)


def _multiplicity_enclosure(
    k: int, d: int, e: int, epsilon: int, lo: int, hi: int, shift: int
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Exact enclosure of the closed-form multiplicity over the theta bracket
    [lo, hi] / 2^shift, as two unreduced fractions (numerator, positive
    denominator); None when the denominator enclosure contains zero.

    Equal, endpoint for endpoint, to the exact rational interval evaluation

        N / (D * (k^2 - x^2)) * prefactor,   N = H_{d-2}(x),  D = H'_{d-1}(x)

    with N and D enclosed by interval Horner and x^2 by its tight square,
    but done in integers: N and D (both of degree d-2) carry 2^(shift (d-2)),
    k^2 - x^2 carries 2^(2 shift), so the quotient carries 2^(2 shift).  Its
    extreme corners are picked by sign; no gcd is taken.
    """
    n = moore_bound(k, 2 * d) + e
    pre_num = n * e * k * (k - 1)
    pre_den = 2 * epsilon * (2 * epsilon + e // 2 - 1)
    polys = _polys(k, d)
    n_lo, n_hi = _dyadic_enclosure(polys.h_prev.coefficients, lo, hi, shift)
    h_lo, h_hi = _dyadic_enclosure(polys.h_deriv.coefficients, lo, hi, shift)
    # k^2 - x^2 from the tight enclosure of x^2
    sq_lo, sq_hi = _dyadic_square(lo, hi)
    k2 = k * k << 2 * shift
    w_lo, w_hi = k2 - sq_hi, k2 - sq_lo
    corners = (h_lo * w_lo, h_lo * w_hi, h_hi * w_lo, h_hi * w_hi)
    d_lo, d_hi = min(corners), max(corners)
    if d_lo <= 0 <= d_hi:
        return None
    # corners of [n_lo, n_hi] * [1/d_hi, 1/d_lo]; the prefactor is positive
    # for both families (eps = 1 and eps = -e/2 with e >= 2), so it keeps them
    if d_lo > 0:
        low = (n_lo, d_hi if n_lo >= 0 else d_lo)
        high = (n_hi, d_lo if n_hi >= 0 else d_hi)
    else:
        low = (-n_hi, -(d_hi if n_hi >= 0 else d_lo))
        high = (-n_lo, -(d_lo if n_lo >= 0 else d_hi))
    scale = 2 * shift
    return (
        (low[0] * pre_num << scale, low[1] * pre_den),
        (high[0] * pre_num << scale, high[1] * pre_den),
    )


def _decisive(ends) -> bool:
    """The enclosure exists and is no wider than `ENCLOSURE_WIDTH_LIMIT`,
    by cross-multiplication."""
    if ends is None:
        return False
    (a, b), (c, q) = ends
    limit = ENCLOSURE_WIDTH_LIMIT
    return (c * b - a * q) * limit.denominator <= limit.numerator * b * q


def _assess_multiplicity(k, d, e, record: RootRecord) -> MultiplicityAssessment:
    """Closed-form multiplicity with a certified enclosure; the bracket is
    refined until the enclosure is decisively narrow."""
    lo, hi, shift = record.bracket
    bits = TARGET_BRACKET_BITS
    ends = _multiplicity_enclosure(k, d, e, record.epsilon, lo, hi, shift)
    coeffs = None
    while not _decisive(ends):
        bits += 32
        if bits > 444:
            raise IllConditionedError(
                f"multiplicity enclosure failed to converge at (k={k}, d={d}, "
                f"e={e}, eps={record.epsilon}, i={record.i})"
            )
        if coeffs is None:
            coeffs = _family_poly(k, d, record.epsilon)
            # every refined bracket keeps this sign of P at its low end
            sign_lo = _sign_dyadic(coeffs, lo, shift)
        if lo == hi:
            raise IllConditionedError("degenerate exact bracket with singular denominator")
        lo, hi, shift = _bisect(coeffs, lo, hi, shift, sign_lo, bits)
        ends = _multiplicity_enclosure(k, d, e, record.epsilon, lo, hi, shift)
    integers = _integers_in(ends)
    closed = multiplicity_closed_form(k, d, e, record.epsilon, record.theta)
    nearest = round(closed)
    return MultiplicityAssessment(
        record=record,
        closed_form=closed,
        enclosure=ends,
        integer=integers[0] if len(integers) == 1 else None,
        nearest=int(nearest),
        deviation=abs(closed - nearest),
    )


# ---------------------------------------------------------------------------
# multiplicity structure checks (symmetry and strict minimality)

@dataclass(frozen=True)
class SymmetryReport:
    """m(theta) = m(-theta) within each family for odd d, plus the strict
    minimality of the multiplicity at the family's relevant extreme root."""

    k: int
    d: int
    e: int
    symmetry_max_rel_dev: float
    mu_minimality_margin: float | None
    lambda_minimality_margin: float | None

    @property
    def symmetry_ok(self) -> bool:
        return self.symmetry_max_rel_dev <= 1e-6

    @property
    def mu_minimality_vacuous(self) -> bool:
        return self.mu_minimality_margin is None

    @property
    def lambda_minimality_vacuous(self) -> bool:
        return self.lambda_minimality_margin is None

    @property
    def ok(self) -> bool:
        return (
            self.symmetry_ok
            and (self.mu_minimality_margin is None or self.mu_minimality_margin > 0)
            and (self.lambda_minimality_margin is None or self.lambda_minimality_margin > 0)
        )


def multiplicity_symmetry_checks(k: int, d: int, e: int) -> SymmetryReport:
    """Check m(theta_i) = m(theta_{d-i}) in both families (tolerance 1e-6
    relative) and the strict inequalities

        m(mu_2) < m(mu_i) for 3 <= i <= d-3        (mu: roots of H_{d-1} - 1)
        m(lambda_1) < m(lambda_i) for 2 <= i <= d-2 (lambda: roots of H_{d-1} + e/2)

    Margins are reported; an empty index range leaves the margin None
    (vacuous)."""
    validate_parameters(k, d, e)
    mu = [multiplicity_closed_form(k, d, e, 1, r.theta) for r in isolate_roots(k, d, e, 1)]
    lam = [
        multiplicity_closed_form(k, d, e, -e // 2, r.theta)
        for r in isolate_roots(k, d, e, -e // 2)
    ]
    dev = 0.0
    for values in (mu, lam):
        for idx in range(len(values)):
            mirror = d - 2 - idx  # i and d - i in 0-based indexing
            dev = max(dev, abs(values[idx] - values[mirror]) / abs(values[mirror]))
    mu_margin = None
    if d >= 7:
        mu_margin = min(mu[i - 1] - mu[1] for i in range(3, d - 2))
    lam_margin = None
    if d >= 5:
        lam_margin = min(lam[i - 1] - lam[0] for i in range(2, d - 1))
    return SymmetryReport(
        k=k,
        d=d,
        e=e,
        symmetry_max_rel_dev=dev,
        mu_minimality_margin=mu_margin,
        lambda_minimality_margin=lam_margin,
    )


# ---------------------------------------------------------------------------
# the product-gap exclusion

@dataclass(frozen=True)
class GapVerdict:
    """Certified bounds on lambda_2^2 - mu_2^2.

    ``lo``/``hi`` are exact rationals from the squared root brackets.  ``excluded``
    requires only the certified interval to contain no integer; the
    closed-form analytic bound and the closing inequality chain

        s^((d-3)/2) (d + (e/2) s^(1-d)) > (k-1) d >= (e+1) d > 4 pi sqrt(e/2+1)

    are recorded alongside as the argument's certificate."""

    k: int
    d: int
    e: int
    applicable: bool
    reason: str | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None
    analytic_bound: float | None = None
    contains_integer: bool | None = None
    within_unit_interval: bool | None = None
    chain_values: tuple[float, float, float, float] | None = None
    chain_ok: bool | None = None

    @property
    def excluded(self) -> bool:
        return bool(self.applicable and self.contains_integer is False)

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return VERDICT_OUTSIDE
        return VERDICT_GAP if self.excluded else "not-excluded"


def gap_check(k: int, d: int, e: int) -> GapVerdict:
    """Run the product-gap exclusion for d >= 7 (girth >= 14); smaller d is
    outside the regime and no exclusion is claimed."""
    validate_parameters(k, d, e)
    if d < _GAP_MIN_D:
        return GapVerdict(
            k=k, d=d, e=e, applicable=False,
            reason=f"gap argument needs girth 2d >= 14, got 2d = {2 * d}",
        )
    mu_lo, mu_hi, mu_shift = isolate_roots(k, d, e, 1)[1].bracket
    lam_lo, lam_hi, lam_shift = isolate_roots(k, d, e, -e // 2)[1].bracket
    shift = max(mu_shift, lam_shift)
    mu_sq = _dyadic_square(mu_lo << (shift - mu_shift), mu_hi << (shift - mu_shift))
    lam_sq = _dyadic_square(lam_lo << (shift - lam_shift), lam_hi << (shift - lam_shift))
    gap_lo, gap_hi = lam_sq[0] - mu_sq[1], lam_sq[1] - mu_sq[0]  # over 2^(2 shift)
    unit = 1 << 2 * shift
    s_pow = (k - 1) ** (-(d - 1) / 2)                       # s^(1-d)
    s32 = (k - 1) ** ((d - 3) / 4)                          # s^((d-3)/2)
    analytic = (
        16 * math.pi ** 2 * (e / 2 + 1) * (k - 1) ** ((3 - d) / 2)
        * (2 * d + (e / 2 - 1) * s_pow)
        / ((d - s_pow) ** 2 * (d + e / 2 * s_pow) ** 2)
    )
    chain = (
        s32 * (d + (e / 2) * s_pow),
        (k - 1) * d,
        (e + 1) * d,
        4 * math.pi * math.sqrt(e / 2 + 1),
    )
    chain_ok = chain[0] > chain[1] >= chain[2] > chain[3]
    return GapVerdict(
        k=k,
        d=d,
        e=e,
        applicable=True,
        lo=Fraction(gap_lo, unit),
        hi=Fraction(gap_hi, unit),
        analytic_bound=analytic,
        contains_integer=len(_integers_in(((gap_lo, unit), (gap_hi, unit)))) > 0,
        within_unit_interval=0 < gap_lo and gap_hi < unit,
        chain_values=chain,
        chain_ok=chain_ok,
    )


# ---------------------------------------------------------------------------
# full feasibility report

@dataclass(frozen=True)
class MomentCheck:
    """Power-sum comparison against the intersection-matrix oracle for
    q = 0..2d-1, relative to the natural magnitude of the summands."""

    ok: bool
    worst_q: int
    worst_rel_dev: float
    tolerance: float = 1e-6


@dataclass(frozen=True)
class FeasibilityReport:
    k: int
    d: int
    e: int
    n: int
    roots: tuple[RootRecord, ...]
    assessments: tuple[MultiplicityAssessment, ...]
    all_positive: bool
    all_integral: bool
    sum_value: float
    sum_ok: bool
    moment_check: MomentCheck
    gap: GapVerdict | None
    final_verdict: str

    @property
    def max_integrality_deviation(self) -> float:
        return max((a.deviation for a in self.assessments), default=0.0)

    def spectrum(self) -> list[tuple[float, float | int]]:
        """Full candidate spectrum, ascending, including +-k with
        multiplicity 1; certified-integral multiplicities appear as ints."""
        inner = [
            (a.record.theta, a.integer if a.integral else a.closed_form)
            for a in self.assessments
        ]
        return [(-float(self.k), 1)] + sorted(inner) + [(float(self.k), 1)]


def _moment_check(k: int, d: int, e: int, n: int, assessments) -> MomentCheck:
    walks = bd_moments(build_bd(k, d), 2 * d)
    worst_q, worst = 0, 0.0
    for q in range(2 * d):
        lhs = sum(a.closed_form * a.record.theta ** q for a in assessments)
        lhs += float(k) ** q + float(-k) ** q
        rhs = float(n * walks[q])
        scale = max(
            abs(rhs),
            sum(abs(a.closed_form * a.record.theta ** q) for a in assessments)
            + 2.0 * float(k) ** q,
        )
        rel = abs(lhs - rhs) / scale if scale else abs(lhs - rhs)
        if rel > worst:
            worst_q, worst = q, rel
    return MomentCheck(ok=worst <= 1e-6, worst_q=worst_q, worst_rel_dev=worst)


def spectral_feasibility(k: int, d: int, e: int) -> FeasibilityReport:
    """Assemble the full spectral verdict for (k, d, e).

    Isolates all 2(d-1) candidate eigenvalues, computes every multiplicity in
    closed form with a certified enclosure, and checks: positivity,
    integrality, the multiplicity sum n - 2, the moment identity for
    q = 0..2d-1, and (for d >= 7) the product-gap exclusion.  The gap
    exclusion reproduces the nonexistence argument and takes precedence;
    otherwise any failed spectral consistency check excludes by integrality.
    """
    validate_parameters(k, d, e)
    n = moore_bound(k, 2 * d) + e
    roots = isolate_roots(k, d, e, 1) + isolate_roots(k, d, e, -e // 2)
    roots.sort(key=lambda r: r.theta)
    assessments = tuple(_assess_multiplicity(k, d, e, r) for r in roots)

    all_positive = all(a.closed_form > 0 for a in assessments)
    all_integral = all(a.integral for a in assessments)
    total = sum(a.closed_form for a in assessments)
    sum_ok = abs(total - (n - 2)) <= 1e-6 * n
    moments = _moment_check(k, d, e, n, assessments)

    gap = gap_check(k, d, e) if d >= _GAP_MIN_D else None

    if gap is not None and gap.excluded:
        verdict = VERDICT_GAP
    elif not (all_positive and all_integral and sum_ok and moments.ok):
        verdict = VERDICT_INTEGRALITY
    else:
        verdict = VERDICT_ADMISSIBLE

    return FeasibilityReport(
        k=k,
        d=d,
        e=e,
        n=n,
        roots=tuple(roots),
        assessments=assessments,
        all_positive=all_positive,
        all_integral=all_integral,
        sum_value=total,
        sum_ok=sum_ok,
        moment_check=moments,
        gap=gap,
        final_verdict=verdict,
    )


@dataclass(frozen=True)
class SkippedTriple:
    """A scan entry whose parameters fall outside the supported regime."""

    k: int
    d: int
    e: int
    reason: str

    final_verdict: str = VERDICT_OUTSIDE


ScanItem = Union[FeasibilityReport, SkippedTriple]


def scan(
    k_range: Iterable[int], d_range: Iterable[int], e_range: Iterable[int]
) -> Iterator[ScanItem]:
    """Stream feasibility reports over the parameter grid in deterministic
    (k, then d, then e) order; invalid triples yield SkippedTriple notes."""
    for k in k_range:
        for d in d_range:
            for e in e_range:
                try:
                    yield spectral_feasibility(k, d, e)
                except ParameterDomainError as exc:
                    yield SkippedTriple(k=k, d=d, e=e, reason=str(exc))
