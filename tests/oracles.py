"""Independent reference computations the tests compare the package against.

Each one reaches its value by another route than the engine does (`Fraction`
interval arithmetic where the engine keeps integers over a power of two,
synthetic polynomial division in binary64 or mpmath,
the transcendental angular-defect equation, list-of-list matrices where the
package packs each row into one int, a queue-based search per root where the
package searches from every root at once, a bit-by-bit graph6 payload decoder
where the package decodes in numpy), so agreement is evidence that both are
right.  None of them is used by the package itself.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from dataclasses import dataclass
from operator import mul
from typing import Sequence, Union

import mpmath

from cage_spectra import _intmat
from cage_spectra.errors import BracketSeedError, Graph6ParseError, ParameterDomainError
from cage_spectra.feasibility import (
    TARGET_BRACKET_BITS,
    RootRecord,
    _bisect,
    _family_poly,
    _sign_dyadic,
)
from cage_spectra.intersection import build_bd
from cage_spectra.polynomials import dickson_family

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
    b = build_bd(k, d).rows()
    return _intmat.eval_poly(quotient, b)[0][0]


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


def transcendental_residual(record: RootRecord, k: int, d: int) -> float:
    """Left side of the angular-defect equation at the record's alpha:

        sin(alpha) - eta * s^(1-d) * sin((i*pi - alpha)/d)

    Must vanish (below 1e-9) for a genuine record."""
    if record.epsilon == 0:
        raise ParameterDomainError(
            "epsilon = 0 (the zero-excess limit) is outside the supported regime"
        )
    with mpmath.mp.workprec(MP_BITS):
        mp = mpmath.mp
        s_pow = mp.power(k - 1, mp.mpf(-(d - 1)) / 2)
        alpha = mp.mpf(record.alpha)
        value = mp.sin(alpha) - record.eta * s_pow * mp.sin((record.i * mp.pi - alpha) / d)
        return float(value)


def isolate_mp(k: int, d: int, e: int, epsilon: int) -> tuple[RootRecord, ...]:
    """Root isolation with the seeds, phi and alpha in `MP_BITS` of mpmath.

    The route the package took before its seeds moved to integer fixed
    point: the case interval's ends, -2s cos(phi) at each, the slop, the
    seed's ceiling and floor, acos and alpha, all as mpmath floats.  The
    exact parts (`_sign_dyadic`, `_bisect`) are the package's own, so the
    package must return the same records and raise on the same keys."""
    coeffs = _family_poly(k, d, epsilon)
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
            records.append(
                RootRecord(
                    i=i,
                    epsilon=epsilon,
                    eta=eta,
                    theta=float(theta_mid),
                    phi=float(phi),
                    alpha=float(alpha),
                    bracket=(lo, hi, shift),
                )
            )
    records.sort(key=lambda r: bracket_interval(r.bracket).lo)
    if [r.i for r in records] != list(range(1, d)):
        raise BracketSeedError("isolated roots are not ascending in their index order")
    return tuple(records)


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


def path_count_residual(graph, k, d, coefficients):
    """max |F_d(A) - k*A_d + A*A_{d+1}| on lists, for the coefficients of F_d."""
    lhs = adjacency_eval_poly(coefficients, graph.adjacency)
    walks = adjacency_matmul(graph.adjacency, distance_matrix(graph.adjacency, d + 1))
    return max(
        (
            abs(f - k * a + w)
            for f_row, a_row, w_row in zip(lhs, distance_matrix(graph.adjacency, d), walks)
            for f, a, w in zip(f_row, a_row, w_row)
        ),
        default=0,
    )


def allones_residual(graph, k, d, coefficients):
    """max |(A + k*I)(H_{d-1}(A) + A_{d+1}) - k*J| on lists, for the
    coefficients of H_{d-1}."""
    inner = [
        [h + a for h, a in zip(h_row, a_row)]
        for h_row, a_row in zip(
            adjacency_eval_poly(coefficients, graph.adjacency),
            distance_matrix(graph.adjacency, d + 1),
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
    by the bit-by-bit decoding the package used before it decoded in numpy:
    every set bit of every payload byte is one edge, its pair found by
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
