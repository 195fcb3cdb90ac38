"""Independent reference computations the tests compare the package against.

Each one reaches its value by another route than the engine does (`Fraction`
interval arithmetic where the engine keeps integers over a power of two,
synthetic polynomial division in binary64 or mpmath,
the transcendental angular-defect equation, list-of-list matrices where the
package packs each row into one int, full matrix polynomials of B_D where
the package reads only its Krylov rows e_0^T B^j, a queue-based search per
root where the package searches from every root at once, a byte-by-byte graph6
payload decoder with `math.isqrt` where the package decodes in numpy with a
binary search over the triangular numbers, full-degree
Horner signs and bit-by-bit halving where the package evaluates the even
family polynomial in x^2 and takes a certified Newton cell, a Sturm root
count in `Fraction`s where the package counts disjoint sign-change cells
against the degree, traces in
Q[x]/(P) summed over all roots at once where the package encloses one
multiplicity per root bracket, closed walks of the infinite k-regular tree
counted by distance layer where the lemma checks read the rows of B_D, the
trigonometric forms of H_{d-1} and of the multiplicities where the package
evaluates integer polynomials, the gap's closing inequality chain in
integers where the package proves it once), so agreement is evidence that
both are right.  None of them is used by the package itself.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from dataclasses import dataclass
from itertools import zip_longest
from operator import mul
from typing import NamedTuple, Sequence, Union

import mpmath

from cage_spectra.errors import (
    BracketSeedError,
    DegreeRangeError,
    Graph6ParseError,
    ParameterDomainError,
)
from cage_spectra.feasibility import (
    TARGET_BRACKET_BITS,
    RootRecord,
    multiplicity_closed_form,
    validate_parameters,
)
from cage_spectra.graphs import moore_bound
from cage_spectra.intersection import build_bd
from cage_spectra.polynomials import derivative, dickson_family

#: mpmath working precision, in bits, wherever binary64 is not enough.
MP_BITS = 128

Rat = Union[int, Fraction]


# ---------------------------------------------------------------------------
# exact closed-interval arithmetic over the rationals (Moore, Interval
# Analysis, 1966): `Fraction` endpoints, so directed rounding degenerates to
# exact arithmetic and "does this interval contain an integer" is decidable

@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, x: Rat) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "RatInterval") -> "RatInterval":
        other = _coerce(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "RatInterval":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "RatInterval":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(products), max(products))

    def __truediv__(self, other) -> "RatInterval":
        other = _coerce(other)
        if other.contains_zero():
            raise ZeroDivisionError("interval division by an interval containing zero")
        inv = RatInterval(1 / other.hi, 1 / other.lo)
        return self * inv

    def square(self) -> "RatInterval":
        """Tight enclosure of {x^2 : x in self}."""
        if self.lo >= 0:
            return RatInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RatInterval(self.hi * self.hi, self.lo * self.lo)
        return RatInterval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def contained_integer_count(self) -> int:
        """Number of integers z with lo <= z <= hi."""
        return max(0, math.floor(self.hi) - math.ceil(self.lo) + 1)

    def contained_integer(self) -> int | None:
        """The unique integer in the interval, or None if there is not
        exactly one."""
        if self.contained_integer_count() != 1:
            return None
        return math.ceil(self.lo)


def _coerce(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval.point(x)


def bracket_interval(bracket: tuple[int, int, int]) -> RatInterval:
    """A root record's dyadic bracket (lo, hi, shift) as [lo, hi] / 2^shift."""
    lo, hi, shift = bracket
    return RatInterval(Fraction(lo, 1 << shift), Fraction(hi, 1 << shift))


def enclosure_interval(ends: tuple[tuple[int, int], tuple[int, int]]) -> RatInterval:
    """A multiplicity enclosure ((a, b), (c, q)) as [a/b, c/q]."""
    (a, b), (c, q) = ends
    return RatInterval(Fraction(a, b), Fraction(c, q))


def poly_enclosure(coefficients: Sequence[Union[int, Fraction]], x: RatInterval) -> RatInterval:
    """Interval Horner evaluation of a polynomial (constant term first).

    The feasibility engine evaluates its enclosures with an integer kernel on
    dyadic brackets (`feasibility._dyadic_enclosure`); this `Fraction`
    evaluation is the oracle that kernel must equal endpoint for endpoint."""
    acc = RatInterval.point(0)
    for c in reversed(coefficients):
        acc = acc * x + RatInterval.point(c)
    return acc


def ld_entry00(k: int, d: int, theta: float) -> float:
    """(L_d(B_d))_{0,0} where L_d(x) = (x^2-k^2)(H_{d-1}(x)-H_{d-1}(theta))/(x-theta).

    The quotient is computed by synthetic division (exact polynomial division
    up to the numeric carrier of theta), so no restriction on theta is
    needed.  Agrees with -k*(k-1)*H_{d-2}(theta).  Uses binary64 up to d = 9
    and `MP_BITS` of mpmath precision beyond.
    """
    if d < 2:
        raise ParameterDomainError(f"d must be >= 2, got {d}")
    h = dickson_family("H", k, d - 1)
    if d > 9:
        with mpmath.mp.workprec(MP_BITS):
            return float(_ld_entry00(k, d, h, mpmath.mpf(theta)))
    return float(_ld_entry00(k, d, h, float(theta)))


def _ld_entry00(k, d, h, theta):
    shifted = [h.coefficients[0] - h(theta)] + [c * _one_like(theta) for c in h.coefficients[1:]]
    # numerator (x^2 - k^2) * (H_{d-1}(x) - H_{d-1}(theta)), constant first
    numer = [0 * theta] * (len(shifted) + 2)
    for j, c in enumerate(shifted):
        numer[j] += -k * k * c
        numer[j + 2] += c
    quotient = _synthetic_divide(numer, theta)
    return dense_eval_poly(quotient, bd_rows(k, d))[0][0]


def _one_like(x):
    return x * 0 + 1 if isinstance(x, mpmath.mpf) else 1.0


def _synthetic_divide(coeffs, root):
    """Divide the polynomial (constant first) by (x - root); the remainder is
    discarded (it is the evaluation at root, zero up to roundoff here)."""
    quotient = []
    carry = 0 * root
    for c in reversed(coeffs):
        quotient.append(carry)
        carry = carry * root + c
    quotient = quotient[1:]  # drop the leading zero from the degree bump
    quotient.reverse()
    return quotient


def transcendental_residual(record: RootRecord, alpha: float, k: int, d: int) -> float:
    """Left side of the angular-defect equation at the record's i and eta and
    at ``alpha``:

        sin(alpha) - eta * s^(1-d) * sin((i*pi - alpha)/d)

    Must vanish (below 1e-9) for a genuine record and its alpha."""
    if record.epsilon == 0:
        raise ParameterDomainError(
            "epsilon = 0 (the zero-excess limit) is outside the supported regime"
        )
    with mpmath.mp.workprec(MP_BITS):
        mp = mpmath.mp
        s_pow = mp.power(k - 1, mp.mpf(-(d - 1)) / 2)
        alpha = mp.mpf(alpha)
        value = mp.sin(alpha) - record.eta * s_pow * mp.sin((record.i * mp.pi - alpha) / d)
        return float(value)


def alpha_reference(k: int, d: int, i: int, eta: int) -> float:
    """The angular defect alpha of root i, solved from the angular-defect
    equation sin(alpha) = eta s^(1-d) sin((i*pi - alpha)/d) by `findroot` in
    `MP_BITS` of mpmath, from the start asin(eta s^(1-d) sin(i*pi/d)): the
    true root's alpha to working precision, with no bracket and no
    cancellation in i*pi - d*phi."""
    with mpmath.mp.workprec(MP_BITS):
        mp = mpmath.mp
        c = eta * mp.power(k - 1, mp.mpf(-(d - 1)) / 2)
        start = mp.asin(c * mp.sin(i * mp.pi / d))
        return float(mp.findroot(lambda a: mp.sin(a) - c * mp.sin((i * mp.pi - a) / d), start))


# ---------------------------------------------------------------------------
# exact signs and bisection at full degree: the package evaluates the even
# family polynomial H_{d-1} - eps as Q(x^2), these evaluate it term by term

def family_coefficients(k: int, d: int, epsilon: int) -> tuple[int, ...]:
    """H_{d-1} - epsilon at full degree, constant term first."""
    coeffs = list(dickson_family("H", k, d - 1).coefficients)
    coeffs[0] -= epsilon
    return tuple(coeffs)


def horner_sign(coeffs: Sequence[int], num: int, shift: int) -> int:
    """Exact sign of P(num / 2^shift) for an integer polynomial P (constant
    term first): the sign of 2^(shift*deg) P(num / 2^shift), by Horner's
    rule over every coefficient."""
    deg = len(coeffs) - 1
    acc = 0
    for j in range(deg, -1, -1):
        acc = acc * num + coeffs[j] * (1 << shift * (deg - j))
    return (acc > 0) - (acc < 0)


def halving_loop(coeffs, lo, hi, shift, sign_lo, bits):
    """Bit-by-bit bisection of (lo, hi) / 2^shift below width 2^-bits,
    keeping sign_lo at the low end and collapsing onto a midpoint where P
    vanishes."""
    while ((hi - lo) << bits) >= (1 << shift):
        lo, hi, shift = lo << 1, hi << 1, shift + 1
        mid = (lo + hi) // 2
        sign_mid = horner_sign(coeffs, mid, shift)
        if sign_mid == 0:
            return mid, mid, shift
        if sign_mid == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, shift


def bisect_reference(coeffs, lo, hi, shift, bits):
    """What the package's `_bisect` must return for the even polynomial
    ``coeffs``: the point bracket at an end where P vanishes (the low end
    first), None when P has one nonzero sign at both ends, and otherwise the
    bracket `halving_loop` ends on."""
    sign_lo = horner_sign(coeffs, lo, shift)
    if sign_lo == 0:
        return lo, lo, shift
    sign_hi = horner_sign(coeffs, hi, shift)
    if sign_hi == 0:
        return hi, hi, shift
    if sign_hi == sign_lo:
        return None
    return halving_loop(coeffs, lo, hi, shift, sign_lo, bits)


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b, both constant term first with no
    trailing zeros."""
    a, quotient = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        factor, offset = a[-1] / b[-1], len(a) - len(b)
        quotient[offset] = factor
        for j, c in enumerate(b):
            a[offset + j] -= factor * c
        while a and a[-1] == 0:
            a.pop()
    return quotient, a


def root_count(coeffs: Sequence[int], lo: int, hi: int, shift: int) -> float:
    """The number of distinct real roots of an integer polynomial P (constant
    term first) in the closed interval [lo, hi] / 2^shift, exactly, by
    Sturm's theorem (Basu, Pollack & Roy, *Algorithms in Real Algebraic
    Geometry*, 2006, Theorem 2.50) in `Fraction`s; math.inf for P = 0.

    The chain P, P', -rem(P, P'), ... ends in g = gcd(P, P'); divided by g
    it has no common root, so its sign variations (zeros dropped) fall by
    one exactly where x passes a root of P.  The variations at lo less
    those at hi count the roots in (lo, hi]; a root at lo is added."""
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return math.inf
    chain = [p, [j * c for j, c in enumerate(p)][1:]]
    while chain[-1]:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    chain = [_divmod(poly, chain[-1])[0] for poly in chain]

    def value(poly, x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    def variations(x):
        signs = [v > 0 for v in (value(poly, x) for poly in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    x_lo, x_hi = Fraction(lo, 1 << shift), Fraction(hi, 1 << shift)
    return variations(x_lo) - variations(x_hi) + (value(chain[0], x_lo) == 0)


class MpRoot(NamedTuple):
    """One root of `isolate_mp`: its record, and phi and alpha = i*pi - d*phi
    at the bracket's midpoint."""

    record: RootRecord
    phi: float
    alpha: float


def isolate_mp(k: int, d: int, e: int, epsilon: int) -> tuple[MpRoot, ...]:
    """Root isolation with the seeds, phi and alpha in `MP_BITS` of mpmath.

    The route the package took before its seeds moved to integer fixed
    point: the case interval's ends, -2s cos(phi) at each, the slop, the
    seed's ceiling and floor, acos and alpha, all as mpmath floats, and the
    case bound checked on alpha at the bracket's midpoint.  The exact parts
    are `horner_sign` at full degree and `halving_loop`, every root
    isolated on its own, so the package must return the same records and
    phi for the roots it seeds and raise on the same keys, bar the roots
    i > d/2 whose case bound the midpoint's alpha cannot decide."""
    coeffs = family_coefficients(k, d, epsilon)
    records = []
    with mpmath.mp.workprec(MP_BITS):
        mp = mpmath.mp
        two_s = 2 * mp.sqrt(k - 1)
        s_pow = mp.power(k - 1, mp.mpf(-(d - 1)) / 2)
        for i in range(1, d):
            eta = epsilon if (d + i) % 2 == 0 else -epsilon
            a = abs(eta)
            if eta > 0:
                phi_lo, phi_hi = i * mp.pi / (d + a * s_pow), i * mp.pi / d
            else:
                phi_lo, phi_hi = i * mp.pi / d, i * mp.pi / (d - a * s_pow)
            theta_lo = -two_s * mp.cos(phi_lo)
            theta_hi = -two_s * mp.cos(phi_hi)
            slop = (theta_hi - theta_lo) / (1 << 30)
            width = float(theta_hi - theta_lo)
            shift = max(64, 36 + int(-math.log2(width)) if width > 0 else 64)
            lo = int(mp.ceil((theta_lo + slop) * (1 << shift)))
            hi = int(mp.floor((theta_hi - slop) * (1 << shift)))
            sign_lo = horner_sign(coeffs, lo, shift)
            sign_hi = horner_sign(coeffs, hi, shift)
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
                lo, hi, shift = halving_loop(coeffs, lo, hi, shift, sign_lo, TARGET_BRACKET_BITS)
            theta_mid = mp.mpf(lo + hi) / (1 << (shift + 1))
            phi = mp.acos(-theta_mid / two_s)
            alpha = i * mp.pi - d * phi
            bound = a * s_pow * min(phi, mp.pi - phi)
            if eta > 0 and not (0 < alpha < bound):
                raise BracketSeedError(
                    f"alpha={float(alpha)} outside case bound (0, {float(bound)}) "
                    f"for (k={k}, d={d}, e={e}, eps={epsilon}, i={i})"
                )
            if eta < 0 and not (-bound < alpha < 0):
                raise BracketSeedError(
                    f"alpha={float(alpha)} outside case bound ({-float(bound)}, 0) "
                    f"for (k={k}, d={d}, e={e}, eps={epsilon}, i={i})"
                )
            record = RootRecord(
                i=i, epsilon=epsilon, eta=eta, theta=float(theta_mid), bracket=(lo, hi, shift)
            )
            records.append(MpRoot(record, float(phi), float(alpha)))
    records.sort(key=lambda r: bracket_interval(r.record.bracket).lo)
    if [r.record.i for r in records] != list(range(1, d)):
        raise BracketSeedError("isolated roots are not ascending in their index order")
    return tuple(records)


# ---------------------------------------------------------------------------
# the paper's float formulas: the trigonometric closed forms of H_{d-1} and
# of the multiplicities (weights f, g1, g2, g3), and the clique spectrum of
# the distance-(d+1) relation; the package evaluates the integer
# polynomials and the closed form in theta instead

def h_closed_form(k: int, d: int, phi: float) -> float:
    """Trigonometric closed form of H_{d-1} at x = -2*sqrt(k-1)*cos(phi):

        H_{d-1}(x) = (-s)^(d-1) * sin(d*phi) / sin(phi),   s = sqrt(k-1)

    for phi in the open interval (0, pi).
    """
    if k < 3:
        raise DegreeRangeError(f"degree k must be >= 3, got {k}")
    if d < 2:
        raise ParameterDomainError(f"d must be >= 2, got {d}")
    if not 0.0 < phi < math.pi:
        raise ParameterDomainError(f"phi must lie in (0, pi), got {phi}")
    s = math.sqrt(k - 1)
    return (-s) ** (d - 1) * math.sin(d * phi) / math.sin(phi)


def h_roots_closed_form(k: int, d: int) -> list[float]:
    """The d-1 roots of H_{d-1}: 2*sqrt(k-1)*cos(i*pi/d), ascending."""
    if k < 3:
        raise DegreeRangeError(f"degree k must be >= 3, got {k}")
    if d < 2:
        raise ParameterDomainError(f"d must be >= 2, got {d}")
    s = math.sqrt(k - 1)
    return [2.0 * s * math.cos(i * math.pi / d) for i in range(d - 1, 0, -1)]


class RegimeViolationError(ArithmeticError):
    """A weight-function radicand left its guaranteed-positive regime: the
    requested parameters violate the assumptions the formulas were derived
    under."""


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

    with cos phi = -theta / (2s).  Must agree with `multiplicity_closed_form`
    to 1e-6 relative."""
    validate_parameters(k, d, e)
    expected_eta = record.epsilon if (d + record.i) % 2 == 0 else -record.epsilon
    if record.eta != expected_eta:
        raise BracketSeedError(
            f"record eta={record.eta} inconsistent with eps={record.epsilon}, i={record.i}"
        )
    n = moore_bound(k, 2 * d) + e
    s2 = k - 1
    z = -record.theta / (2 * math.sqrt(s2))
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


def mp_multiplicities(k: int, d: int, e: int, epsilon: int) -> list[float]:
    """The float closed-form multiplicity at each root `isolate_mp` isolates
    on its own, i = 1..d-1: the package builds root d - i as the mirror of
    root i, so only these show the symmetry m(theta_i) = m(theta_{d-i})."""
    return [
        multiplicity_closed_form(k, d, e, epsilon, r.record.theta) for r in isolate_mp(k, d, e, epsilon)
    ]


def minimality_margins(k: int, d: int, e: int) -> tuple[float | None, float | None]:
    """The least slack in the paper's strict inequalities

        m(mu_2) < m(mu_i) for 3 <= i <= d-3        (mu: roots of H_{d-1} - 1)
        m(lambda_1) < m(lambda_i) for 2 <= i <= d-2 (lambda: roots of H_{d-1} + e/2)

    as (mu margin, lambda margin); an empty index range gives None."""
    mu, lam = mp_multiplicities(k, d, e, 1), mp_multiplicities(k, d, e, -e // 2)
    return (
        min((mu[i - 1] - mu[1] for i in range(3, d - 2)), default=None),
        min((lam[i - 1] - lam[0] for i in range(2, d - 1)), default=None),
    )


def gap_chain_holds(k: int, d: int, e: int) -> bool:
    """The gap argument's closing chain, with s = sqrt(k-1),

        s^((d-3)/2) (d + (e/2) s^(1-d)) > (k-1) d >= (e+1) d > 4 pi sqrt(e/2+1),

    checked in integers; True proves it.  The first link holds when
    s^((d-3)/2) >= k-1, compared as fourth powers, (k-1)^(d-3) >= (k-1)^4,
    and e > 0.  The last has both sides positive and squares to
    (e+1)^2 d^2 > 16 pi^2 (e/2+1), which pi < 22/7 implies when
    49 (e+1)^2 d^2 >= 16 * 22^2 (e/2+1)."""
    first = (k - 1) ** (d - 3) >= (k - 1) ** 4 and e > 0
    second = (k - 1) * d >= (e + 1) * d
    third = 49 * (e + 1) ** 2 * d * d >= 8 * 22 ** 2 * (e + 2)
    return first and second and third


def antipodal_spectrum(n: int, e: int) -> list[tuple[int, int]]:
    """Spectrum of a disjoint union of c = 2n/(e+2) cliques on e/2+1 vertices:
    eigenvalue e/2 with multiplicity c and -1 with multiplicity n - c."""
    if e < 2 or e % 2:
        raise ParameterDomainError(f"excess must be even and >= 2, got {e}")
    if (2 * n) % (e + 2):
        raise ParameterDomainError(f"(e+2) = {e + 2} does not divide 2n = {2 * n}")
    c = 2 * n // (e + 2)
    return [(e // 2, c), (-1, n - c)]


# ---------------------------------------------------------------------------
# the moment identity, exactly and without roots: for every q < 2d
#
#     sum_eps Tr_{Q[x]/(P_eps)}(R_eps x^q) + k^q + (-k)^q = n w_q
#
# with P_eps = H_{d-1} - eps, R_eps the closed-form multiplicity as a residue
# class mod P_eps, and w_q the closed q-walks from a vertex of the k-regular
# tree (a graph of girth 2d looks like the tree out to q < 2d).  Polynomials
# are lists, constant term first, of ints or Fractions.

def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a, b) -> tuple[list, list]:
    """Quotient and remainder of a by b != 0 over Q."""
    a, lead = list(a), Fraction(b[-1])
    quotient = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = quotient[i] = a[i + len(b) - 1] / lead
        for j, y in enumerate(b):
            a[i + j] -= c * y
    return _trim(quotient), _trim(a[: len(b) - 1])


def inverse_mod(g, p) -> tuple[list[int], int]:
    """g^-1 mod p over Q by the extended Euclidean algorithm, as integer
    coefficients over one common denominator.  Raises ValueError when g and
    p have a common factor."""
    r0, r1 = list(p), _poly_divmod(g, p)[1]
    s0, s1 = [], [1]  # s_i g = r_i mod p
    while len(r1) > 1:
        quotient, rest = _poly_divmod(r0, r1)
        r0, r1 = r1, rest
        s0, s1 = s1, _trim([x - y for x, y in zip_longest(s0, _poly_mul(quotient, s1), fillvalue=0)])
    if not r1:
        raise ValueError("not invertible: the polynomials share a factor")
    inverse = [Fraction(c) / r1[0] for c in s1]
    den = math.lcm(*(c.denominator for c in inverse))
    return [c.numerator * (den // c.denominator) for c in inverse], den


def newton_power_sums(p, count) -> list[int]:
    """sum of theta^j over the roots theta of the monic integer polynomial
    p, for j = 0..count-1, by Newton's identities."""
    m = len(p) - 1
    sums = [m]
    for j in range(1, count):
        total = sum(p[m - i] * sums[j - i] for i in range(1, min(j - 1, m) + 1))
        sums.append(-total - (j * p[m - j] if j <= m else 0))
    return sums


def tree_closed_walks(k: int, count: int) -> list[int]:
    """Closed q-walks from a vertex of the infinite k-regular tree, for
    q = 0..count-1, from the walk counts into each distance layer: a vertex
    at distance j >= 1 has one neighbour nearer and k - 1 farther, the root
    has k farther."""
    layers, walks = [1], []
    for _ in range(count):
        walks.append(layers[0])
        step = [0] * (len(layers) + 1)
        for j, a in enumerate(layers):
            step[j + 1] += a * (k if j == 0 else k - 1)
            if j:
                step[j - 1] += a
        layers = step
    return walks


def exact_moments(k: int, d: int, e: int) -> list[Fraction]:
    """sum m(theta) theta^q over the whole candidate spectrum (+-k with
    multiplicity 1), q = 0..2d-1, with m the closed-form multiplicity

        n e k (k-1) H_{d-2}(x) / [2 eps (2 eps + e/2 - 1) H'_{d-1}(x) (k^2 - x^2)]

    summed over each family's roots as a trace in Q[x]/(P_eps): the
    residue R = (H_{d-2} mod P) (H'_{d-1} (k^2 - x^2))^-1, times x^q, dotted
    with P's power sums.  The moment identity says this is n w_q."""
    n = moore_bound(k, 2 * d) + e
    h = dickson_family("H", k, d - 1)
    h_prev = dickson_family("H", k, d - 2).coefficients
    denominator = _poly_mul(derivative(h).coefficients, (k * k, 0, -1))
    moments = [Fraction(k**q + (-k) ** q) for q in range(2 * d)]
    for eps in (1, -e // 2):
        p = [h.coefficients[0] - eps, *h.coefficients[1:]]
        inverse, den = inverse_mod(denominator, p)
        residue = _poly_divmod(_poly_mul(h_prev, inverse), p)[1]  # integral: p is monic
        sums = newton_power_sums(p, len(residue) + 2 * d)
        scale = Fraction(n * e * k * (k - 1), 2 * eps * (2 * eps + e // 2 - 1) * den)
        for q in range(2 * d):
            moments[q] += scale * sum(map(mul, residue, sums[q:]))
    return moments


# ---------------------------------------------------------------------------
# the list route for the graph identities: one Python int per matrix entry

def adjacency_matmul(adjacency, x):
    """A·X for the 0/1 adjacency matrix A given by ``adjacency`` (one
    neighbour list per vertex): row u is the sum of the rows of X at u's
    neighbours, a zero row for an isolated vertex."""
    width = len(x[0]) if x else 0
    return [
        list(map(sum, zip(*[x[w] for w in nbrs]))) if nbrs else [0] * width
        for nbrs in adjacency
    ]


def adjacency_eval_poly(coefficients, adjacency):
    """p(A) for integer coefficients (constant term first), by Horner's rule
    P <- A·P + c·I on lists."""
    n = len(adjacency)
    result = [[0] * n for _ in range(n)]
    for c in reversed(coefficients):
        result = adjacency_matmul(adjacency, result)
        for i, row in enumerate(result):
            row[i] += c
    return result


def dense_matmul(a, b):
    """The product of list-of-rows matrices, each entry a dot product."""
    return [[sum(map(mul, row, column)) for column in zip(*b)] for row in a]


def dense_eval_poly(coefficients, matrix):
    """p(M) for a square list-of-rows matrix M (constant term first), by
    Horner's rule P <- P·M + c·I on full matrices; exact for integer
    coefficients."""
    n = len(matrix)
    result = [[0] * n for _ in range(n)]
    for c in reversed(coefficients):
        result = dense_matmul(result, matrix)
        for i, row in enumerate(result):
            row[i] += c
    return result


def bd_rows(k, D):
    """B_D as a list of rows."""
    return [list(row) for row in build_bd(k, D).entries]


def dense_minimal_polynomial(k, D, h_coefficients):
    """The full matrices B^2 - k^2 I, h(B) and their product, for B = B_D and
    the polynomial h with the given coefficients."""
    b = bd_rows(k, D)
    square = dense_eval_poly((-k * k, 0, 1), b)
    h_at_b = dense_eval_poly(h_coefficients, b)
    return square, h_at_b, dense_matmul(square, h_at_b)


def adjacency_rows(adjacency):
    """The 0/1 adjacency matrix as a list of rows."""
    return [[int(v in nbrs) for v in range(len(adjacency))] for nbrs in adjacency]


def distance_rows(adjacency):
    """Distance rows from every vertex, -1 where unreachable, by one plain
    queue-based breadth-first search per root."""
    rows = []
    for root in range(len(adjacency)):
        row = [-1] * len(adjacency)
        row[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        rows.append(row)
    return rows


def distance_matrix(adjacency, i):
    """A_i as a list of 0/1 rows, read from `distance_rows`."""
    return [[int(x == i) for x in row] for row in distance_rows(adjacency)]


def path_count_residual(graph, k, d, a_d, a_far):
    """max |F_d(A) - k*A_d + A*A_{d+1}| on lists, for the given 0/1 lists
    ``a_d`` and ``a_far`` (A_{d+1}), with F_d(A) by Horner's rule."""
    lhs = adjacency_eval_poly(dickson_family("F", k, d).coefficients, graph.adjacency)
    walks = adjacency_matmul(graph.adjacency, a_far)
    return max(
        (
            abs(f - k * a + w)
            for f_row, a_row, w_row in zip(lhs, a_d, walks)
            for f, a, w in zip(f_row, a_row, w_row)
        ),
        default=0,
    )


def allones_residual(graph, k, d, a_far):
    """max |(A + k*I)(H_{d-1}(A) + A_{d+1}) - k*J| on lists, for the given
    0/1 list ``a_far`` (A_{d+1}), with H_{d-1}(A) by Horner's rule."""
    inner = [
        [h + a for h, a in zip(h_row, a_row)]
        for h_row, a_row in zip(
            adjacency_eval_poly(dickson_family("H", k, d - 1).coefficients, graph.adjacency),
            a_far,
        )
    ]
    walks = adjacency_matmul(graph.adjacency, inner)
    return max(
        (abs(w + k * m - k) for w_row, m_row in zip(walks, inner) for w, m in zip(w_row, m_row)),
        default=0,
    )


def power_traces(adjacency, count):
    """tr(A^q) for q = 0..count-1: tr(A^q) = <A^m, A^(q-m)> entrywise with
    m = q // 2, because A is symmetric."""
    n = len(adjacency)
    low = [[int(i == j) for j in range(n)] for i in range(n)]  # A^m
    high = adjacency_matmul(adjacency, low)  # A^(m+1)
    traces = []
    for q in range(count):
        if q >= 2 and q % 2 == 0:
            low, high = high, adjacency_matmul(adjacency, high)
        other = high if q % 2 else low
        traces.append(sum(sum(map(mul, ra, rb)) for ra, rb in zip(low, other)))
    return traces


# ---------------------------------------------------------------------------
# graph6 payload decoding one set bit at a time

def decode_graph6_payload(n, body):
    """The sorted neighbour rows (a tuple of tuples) of the order-``n`` graph
    whose graph6 payload is ``body`` (bytes, in range, of the right length),
    by byte-by-byte decoding, not the package's numpy route: every set bit
    of every payload byte is one edge, its pair found by
    `math.isqrt`.  A set padding bit raises the package's `Graph6ParseError`."""
    nbits = n * (n - 1) // 2
    rows = [[] for _ in range(n)]
    for pos, byte in enumerate(body):
        value = byte - 63
        while value:
            top = value.bit_length() - 1
            value ^= 1 << top
            t = 6 * pos + 5 - top
            if t >= nbits:
                raise Graph6ParseError("trailing padding bits are nonzero")
            j = (1 + math.isqrt(8 * t + 1)) // 2
            i = t - j * (j - 1) // 2
            rows[i].append(j)
            rows[j].append(i)
    return tuple(tuple(sorted(row)) for row in rows)
