"""Integer polynomial families from the degree-parameter three-term recurrence.

Three families G_i, F_i, H_i share the recurrence

    P_{i+1}(x) = x * P_i(x) - (k - 1) * P_{i-1}(x)

and differ only in their base cases:

    G_0 = 1,  G_1 = x + 1                    (recurrence from i >= 1)
    F_0 = 1,  F_1 = x,  F_2 = x^2 - k        (recurrence from i >= 2)
    H_0 = 1,  H_1 = x                        (recurrence from i >= 1)

H_i is the Dickson polynomial of the second kind with parameter k - 1; its
roots are 2*sqrt(k-1)*cos(j*pi/(i+1)) and it admits the trigonometric closed
form implemented by `h_closed_form`.  The family also extends to negative
indices (H_{-1} = 0, H_{-2} = -1/(k-1)), but no formula implemented here
evaluates below index 0, so the constructor rejects i < 0 rather than carry
rational coefficients.

All coefficients are exact Python integers.  Exactness is reserved for sign
queries (`eval_rational`); diagnostic evaluation is binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .errors import DegreeRangeError, ParameterDomainError

#: Exact rational scalar used wherever a certified sign is required.
#: `fractions.Fraction` already guarantees a reduced form with positive
#: denominator, which is exactly the invariant needed here.
ExactRational = Fraction

Scalar = Union[int, float, Fraction]

FAMILIES = ("G", "F", "H")


@dataclass(frozen=True, init=False)
class IntPolynomial:
    """Univariate polynomial with exact integer coefficients.

    Coefficients are stored densely, constant term first; trailing zeros are
    trimmed so the leading coefficient is nonzero unless the polynomial is
    zero.  The zero polynomial has ``coefficients == ()`` and degree -1.
    """

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(int(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction input, binary64 for float."""
        result = 0 * x if self.is_zero else self.coefficients[-1] + 0 * x
        for c in reversed(self.coefficients[:-1]):
            result = result * x + c
        return result

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            [ca + (b[j] if j < len(b) else 0) for j, ca in enumerate(a)]
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coefficients])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: Union[int, "IntPolynomial"]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coefficients])
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1 or 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift_up(self) -> "IntPolynomial":
        """Multiply by x."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) + self.coefficients)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coefficients[j]
            if c == 0:
                continue
            mono = "" if j == 0 else ("x" if j == 1 else f"x^{j}")
            mag = abs(c)
            body = mono if (mag == 1 and j > 0) else (f"{mag}{mono}" if j else f"{mag}")
            parts.append(("- " if c < 0 else "+ " if parts else "") + body)
        return " ".join(parts)


def dickson_family(kind: str, k: int, i: int) -> IntPolynomial:
    """Return the i-th member of the family ``kind`` in {"G", "F", "H"}.

    Every member is monic of degree i.  Raises for k < 3 (below the regime
    these families are used in) and for i < 0.  Members are immutable and
    memoised per (kind, k, i) for the life of the process.
    """
    kind = kind.upper()
    if kind not in FAMILIES:
        raise ParameterDomainError(f"unknown family {kind!r}; expected one of {FAMILIES}")
    if k < 3:
        raise DegreeRangeError(f"degree k must be >= 3, got {k}")
    if i < 0:
        raise ParameterDomainError(f"family index must be >= 0, got {i}")
    return _family_member(kind, k, i)


@lru_cache(maxsize=None)
def _family_member(kind: str, k: int, i: int) -> IntPolynomial:
    if kind == "G":
        seeds = [IntPolynomial((1,)), IntPolynomial((1, 1))]
    elif kind == "F":
        seeds = [IntPolynomial((1,)), IntPolynomial((0, 1)), IntPolynomial((-k, 0, 1))]
    else:
        seeds = [IntPolynomial((1,)), IntPolynomial((0, 1))]
    if i < len(seeds):
        return seeds[i]
    prev, cur = seeds[-2], seeds[-1]
    for _ in range(i - len(seeds) + 1):
        prev, cur = cur, cur.shift_up() - (k - 1) * prev
    return cur


def eval_rational(p: IntPolynomial, x: Scalar) -> Fraction:
    """Exact Horner evaluation at a rational point; the sign of the result
    is certified."""
    result = Fraction(0)
    for c in reversed(p.coefficients):
        result = result * x + c
    return result


def derivative(p: IntPolynomial) -> IntPolynomial:
    """Formal derivative, exact; memoised per coefficient tuple, so the
    derivative of a family member is built once per (kind, k, i)."""
    return _derivative(p.coefficients)


@lru_cache(maxsize=None)
def _derivative(coefficients: tuple[int, ...]) -> IntPolynomial:
    return IntPolynomial([j * c for j, c in enumerate(coefficients)][1:])


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
