"""Independent reference computations the tests compare the package against.

Each one reaches its value by another route than the engine does (`Fraction`
interval arithmetic, synthetic polynomial division in binary64 or mpmath,
the transcendental angular-defect equation), so agreement is evidence that
both are right.  None of them is used by the package itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

import mpmath

from cage_spectra import _intmat
from cage_spectra.errors import ParameterDomainError
from cage_spectra.feasibility import RootRecord
from cage_spectra.intersection import build_bd
from cage_spectra.intervals import RatInterval
from cage_spectra.polynomials import dickson_family

#: mpmath working precision, in bits, wherever binary64 is not enough.
MP_BITS = 128


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
