"""Integer polynomial families from the degree-parameter three-term recurrence.

Three families G_i, F_i, H_i share the recurrence

    P_{i+1}(x) = x * P_i(x) - (k - 1) * P_{i-1}(x)

and differ only in their base cases:

    G_0 = 1,  G_1 = x + 1                    (recurrence from i >= 1)
    F_0 = 1,  F_1 = x,  F_2 = x^2 - k        (recurrence from i >= 2)
    H_0 = 1,  H_1 = x                        (recurrence from i >= 1)

H_i is the Dickson polynomial of the second kind with parameter k - 1; its
roots are 2*sqrt(k-1)*cos(j*pi/(i+1)).  The family also extends to negative
indices (H_{-1} = 0, H_{-2} = -1/(k-1)), but no formula implemented here
evaluates below index 0, so the constructor rejects i < 0 rather than carry
rational coefficients.

All coefficients are exact Python integers.  Evaluation is exact at int and
`Fraction` points and binary64 at floats.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable

from .errors import DegreeRangeError, ParameterDomainError

FAMILIES = ("G", "F", "H")


@dataclass(frozen=True, init=False)
class IntPolynomial:
    """Univariate polynomial with exact integer coefficients.

    Coefficients are stored densely, constant term first; trailing zeros are
    trimmed so the leading coefficient is nonzero unless the polynomial is
    zero.  The zero polynomial has ``coefficients == ()`` and degree -1.
    Each coefficient must be an integer (``operator.index``): a float or a
    str raises TypeError instead of being truncated.
    """

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]):
        coeffs = list(map(operator.index, coefficients))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

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


def dickson_family(kind: str, k: int, i: int) -> IntPolynomial:
    """Return the i-th member of the family ``kind`` in {"G", "F", "H"}.

    Every member is monic of degree i.  Raises for k < 3 (below the regime
    these families are used in) and for i < 0.  Each call runs the
    recurrence from the seeds on coefficient lists, each step updating the
    list of x * P_i in place; nothing is memoised here, and callers that
    reuse a member keep it themselves.
    """
    kind = kind.upper()
    if kind not in FAMILIES:
        raise ParameterDomainError(f"unknown family {kind!r}; expected one of {FAMILIES}")
    if k < 3:
        raise DegreeRangeError(f"degree k must be >= 3, got {Decimal(k)}")
    if i < 0:
        raise ParameterDomainError(f"family index must be >= 0, got {Decimal(i)}")
    if kind == "G":
        seeds = ((1,), (1, 1))
    elif kind == "F":
        seeds = ((1,), (0, 1), (-k, 0, 1))
    else:
        seeds = ((1,), (0, 1))
    if i < len(seeds):
        return IntPolynomial(seeds[i])
    prev, cur = seeds[-2:]
    m = k - 1
    for _ in range(i - len(seeds) + 1):
        # x * P_i - (k - 1) * P_{i-1}; x * P_i is two coefficients longer
        nxt = [0, *cur]
        for j, p in enumerate(prev):
            nxt[j] -= m * p
        prev, cur = cur, nxt
    return IntPolynomial(cur)


def derivative(p: IntPolynomial) -> IntPolynomial:
    """Formal derivative, exact."""
    return IntPolynomial(j * c for j, c in enumerate(p.coefficients) if j)
