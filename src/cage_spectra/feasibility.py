"""Spectral feasibility of antipodal (k, 2d)-graphs with excess e.

For a hypothetical antipodal k-regular graph of even girth 2d (d odd) and
excess e with 2 <= e <= k - 2, every adjacency eigenvalue other than +-k is
a root of H_{d-1}(x) - eps with eps in {1, -e/2}, where H_{d-1} is the
degree-(d-1) Dickson polynomial of the second kind with parameter k - 1.
This module:

* isolates all 2(d-1) roots of the integer polynomial H_{d-1} - eps in
  dyadic brackets.  For odd d the polynomial is even, so only the roots
  i <= (d-1)/2 are seeded, and root d - i is their exact mirror: bracket
  (-hi, -lo), phi_{d-i} = pi - phi_i, alpha_{d-i} = -alpha_i.  The seeds
  come from the case-split angular intervals

      i*pi/(d + |eta| s^{1-d}) < phi_i < i*pi/d        (eta_i > 0)
      i*pi/d < phi_i < i*pi/(d - |eta| s^{1-d})        (eta_i < 0)

  with theta = -2 s cos(phi), s = sqrt(k-1), eta_i = eps * (-1)^(d+i).
  The seeds are computed in integer fixed point, at 168 bits below the
  scale s^(1-d) of the interval: pi by Machin's formula, cos and sin of the
  three base angles pi/d and pi/(d +- |eta| s^(1-d)) by Taylor series and
  their multiples by angle addition, 2s by `math.isqrt`.  The case bound is
  certified exactly, with no angle computed (`_check_family`): each seed is
  shrunk inward from its fixed-point ends by more than their stated error
  bound, so it lies inside the case interval, and the final bracket lies
  inside its seed, both by integer comparisons.  phi and the angular defect
  alpha = i*pi - d*phi are computed only for the JSON report, from the
  final bracket (`FeasibilityReport.angles`).
  Each bracket is the cell exact bisection would end on.  Newton's method
  in truncated fixed point predicts it, starting from the root's
  second-order value in s^(1-d) from the angular-defect equation
  (`_asymptotic_start`), and the cell is taken only when the bracket rule
  certifies it by two exact signs at its ends, nonzero and opposite; the
  seed's own end signs are evaluated only for a seed already below the
  target width, or when the halving loop runs as the fallback.  So the
  start and the truncation set how many Newton steps a root costs (none or
  one for most deep-girth roots), never which bracket it gets.
  One root count per family certifies the whole isolation: the seeds ascend
  disjointly and end below 0, so with their mirrors they are d - 1 disjoint
  intervals, each holding a sign change of P = H_{d-1} - eps, of degree
  d - 1.  So each seed holds exactly one root, a simple one, and the Newton
  cell is the one halving would reach; no bracket is checked for
  monotonicity.  P is even,
  P(x) = Q(x^2), so the one sign kernel is exact Horner on Q at x^2 (the
  same integers as P at x, in half the Horner steps), and the one Newton
  kernel is the same Horner truncated to the Newton scale; there is no
  general-degree kernel under them.
  The angle tables the seeds read are cached per (k, d) by themselves, for
  the life of the process, whichever family builds them first.  The roots
  of the eps = 1 family, the one every e shares, are cached per (k, d) too;
  a -e/2 family is isolated anew for its triple, with its two side tables;

* evaluates the eigenvalue multiplicity in closed form

      m(theta) = n e k (k-1) H_{d-2}(theta)
                 / [ 2 eps (2 eps + e/2 - 1) H'_{d-1}(theta) (k^2 - theta^2) ];

* certifies integrality of each multiplicity with exact interval arithmetic
  propagated from the root bracket (an enclosure must contain exactly one
  integer), done in integers over the bracket's power of two.  One that
  holds no integer is final at any width; otherwise the bracket is refined
  once, straight to a cap, and that enclosure decides
  (`_assess_multiplicity`).  H_{d-2} and H'_{d-1} are odd, so a mirrored root
  has its partner's enclosure and closed form: the report states this
  mirror rule once (`FeasibilityReport._mirrored`), and each pair is
  assessed once;

* for d >= 7 certifies the product-gap exclusion: the squares of the
  second-smallest roots of the two families differ by a value trapped in a
  certified interval inside (0, 1), yet the difference would have to be an
  integer for the graph to exist.  The interval is integer arithmetic on
  the two brackets; the argument's closing inequality chain is a theorem
  on the regime (`GapVerdict`), so no code evaluates it.

The verdict is decided in certificate order (Biggs & Ito, 1980), and it
rests on two exact facts alone: the gap first, then integrality.  A triple
is admissible exactly when every enclosure holds one integer and that
integer is at least 1.  The certificates hold exact data only; the report
derives the binary64 values it prints.  `spectral_feasibility` isolates the
roots and runs the gap check; the enclosures and their refinement are
computed only when the report is asked for them, once.  So a gap-excluded
`scan` text row costs isolation and the integer gap, and one with d = 3 or
5 the enclosures that decide it, with no float closed form; a CSV row
costs one float closed form per mirrored pair besides, while the JSON
report and the `feasibility` text report print every multiplicity and pay
for the enclosures, the float closed forms and the float analytic gap
bound.  The moment identity the multiplicities must satisfy (their sum
n - 2 among it) holds exactly in Q[x]/(H_{d-1} - eps); the test suite
proves it there, with no roots, so no float check of it runs here.

n is always the Moore bound plus e; an external order is never accepted.
A "spectrally-admissible" verdict means no implemented test excludes the
triple; it is not an existence claim.

One section at the top of the module certifies every verdict, and nothing
below it is trusted.  It holds every exact fact a verdict reads, on plain
integers: the regime (`validate_parameters`), the one sign kernel
(`_sign_even`), the bracket rule every root bracket is returned through
(`_bracket`), the family check that certifies a family's isolation and holds
every refusal of it (`_check_family`), the check that a refined bracket lies
inside its isolation bracket and that its enclosure decides
(`_refined_enclosure`), the case-interval error bound, the integer interval
kernels of the multiplicity enclosure, and the gap (`_gap`, `GapVerdict`).
Everything below it only proposes or prints: the angle tables and the
seeds, the Newton start and Newton's method, the halving fallback, the
refinement cap, the angles and the float closed forms.  So a proposal that
is wrong costs work or ends in a refusal, never a different verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import (
    BracketSeedError,
    EvenHalfGirthError,
    ExcessRangeError,
    IllConditionedError,
    OddExcessError,
    ParameterDomainError,
)
from .graphs import moore_bound
from .polynomials import derivative, dickson_family

VERDICT_ADMISSIBLE = "spectrally-admissible"
VERDICT_INTEGRALITY = "excluded-by-integrality"
VERDICT_GAP = "excluded-by-gap"
VERDICT_OUTSIDE = "outside-regime"

#: Root brackets are shrunk below this dyadic width before any verdict.
TARGET_BRACKET_BITS = 60

_GAP_MIN_D = 7  # the product-gap argument needs girth 2d >= 14


# ---------------------------------------------------------------------------
# the checked section: every exact fact a verdict reads, and nothing else.
# It reads plain integers and calls only itself, `errors`, `Fraction`,
# `Decimal`, `math.ceil` and its declared inputs: `_polys` and `_family`
# (the integer coefficients of one (k, d)), `moore_bound` and `_root_name`.
# Everything below it only proposes (the seeds, Newton, the halving
# fallback, the refinement cap) or prints (the angles, the float closed
# forms); a verdict rests on nothing it computes unless this section has
# checked it.

def validate_parameters(k: int, d: int, e: int) -> None:
    """Reject triples outside the proven regime, each with a named error:
    odd e, even d, and e outside [2, k-2]."""
    if e % 2:
        raise OddExcessError(f"excess must be even, got e={Decimal(e)}")
    if d % 2 == 0:
        raise EvenHalfGirthError(f"half-girth d must be odd, got d={Decimal(d)}")
    if d < 3:
        raise ParameterDomainError(f"half-girth d must be >= 3, got d={Decimal(d)}")
    if e < 2:
        raise ExcessRangeError(f"excess must be >= 2, got e={Decimal(e)}")
    if e > k - 2:
        raise ExcessRangeError(f"excess must satisfy e <= k - 2, got e={Decimal(e)}"
                               f" with k={Decimal(k)}")


def _sign_even(q: tuple[int, ...], num: int, shift: int) -> int:
    """Exact sign of P(num / 2^shift) for P(x) = Q(x^2), Q's coefficients
    constant term first: Horner's rule in integers on Q at num^2 / 2^(2 shift)
    forms 2^(shift deg P) P(num / 2^shift), the integer Horner on P forms at
    num / 2^shift, in half the steps."""
    x, double = num * num, 2 * shift
    acc, scale = q[-1], 0
    for c in q[-2::-1]:
        scale += double
        acc = acc * x + (c << scale)
    return (acc > 0) - (acc < 0)


def _bracket(q: tuple[int, ...], lo: int, hi: int, shift: int) -> tuple[int, int, int] | None:
    """The bracket the exact signs of P(x) = Q(x^2) at lo and hi / 2^shift
    certify: an end where P vanishes as the point (lo, lo, shift) or
    (hi, hi, shift), the bracket itself when P gives its ends nonzero
    opposite signs, and None otherwise.  Every bracket `_bisect` returns
    comes from here; the low end's sign is taken first, and a zero there
    takes no second sign."""
    sign_lo = _sign_even(q, lo, shift)
    if sign_lo == 0:
        return lo, lo, shift
    sign_hi = _sign_even(q, hi, shift)
    if sign_hi == 0:
        return hi, hi, shift
    return (lo, hi, shift) if sign_hi == -sign_lo else None


def _inside(inner: tuple[int, int, int], outer: tuple[int, int, int]) -> bool:
    """Whether the dyadic bracket ``inner`` lies inside ``outer``, compared
    at inner's shift, which must be no coarser than outer's."""
    (lo, hi, shift), (outer_lo, outer_hi, outer_shift) = inner, outer
    up = shift - outer_shift
    return up >= 0 and outer_lo << up <= lo <= hi <= outer_hi << up


def _check_family(root: tuple[int, int, int, int], seeds, brackets) -> list[tuple[int, int, int]]:
    """The d - 1 brackets of one family P = H_{d-1} - epsilon, in index
    order, certified to isolate its roots; ``root`` is (k, d, e, epsilon),
    which names a root in the errors.

    ``seeds`` holds, for i = 1..(d-1)/2, (i, error, span, (lo, hi, shift)):
    the seed of root i, which is its fixed-point case interval, span ulp
    wide at the tables' precision, shrunk inward by span / 2^30 on each side
    and rounded inward; error is that interval's end error bound
    (`_case_end_error`), in the same ulp.  ``brackets`` yields root i's
    bracket from its seed, every one a `_bracket` result, and is pulled
    only after seed i passed its integer checks, so a refused seed takes no
    sign.  Each refusal is a BracketSeedError:

    * the shrink must exceed the error bound, so the seed lies inside the
      exact case interval;
    * each seed must start strictly above the high end of seed i - 1;
    * the bracket must exist and lie inside its seed (so inside the case
      interval: a wrong root's or the other family's bracket leaves it);
    * the last seed must end below 0.

    Then the seeds and their mirrors are d - 1 disjoint intervals, each
    holding a cell with nonzero opposite end signs or an exact root of P,
    of degree d - 1: each holds exactly one root, a simple one.  P is even
    for odd d, so root d - i's bracket is the exact mirror (-hi, -lo) of
    root i's, and it lies in its own case interval (`_isolate`)."""
    checked, last = [], None
    for i, error, span, seed in seeds:
        if error << 30 >= span:
            raise BracketSeedError(f"seed for {_root_name(*root, i)} is not certified inside its "
                                   "case interval: its shrink does not exceed the ends' error bound")
        if last is not None and seed[0] << last[2] <= last[1] << seed[2]:
            raise BracketSeedError(f"seed for {_root_name(*root, i)} overlaps the seed of root i - 1")
        bracket = next(brackets)
        if bracket is None:
            raise BracketSeedError(f"seed interval for {_root_name(*root, i)} does not bracket "
                                   "a sign change")
        if not _inside(bracket, seed):
            raise BracketSeedError(f"bracket for {_root_name(*root, i)} leaves its seed")
        checked.append(bracket)
        last = seed
    if last[1] >= 0:
        raise BracketSeedError(f"seed for {_root_name(*root, i)} reaches 0, where its mirror's "
                               "seed starts")
    return checked + [(-hi, -lo, shift) for lo, hi, shift in reversed(checked)]


def _case_end_error(two_s: int, i: int, bits: int) -> int:
    """A bound, in ulp (2^-bits), on how far the fixed-point case-interval
    ends of root i (`_case_ends`) lie from the exact -2s cos(phi_end):
    6 i (2s) + 3, rounded up.

    pi is within 1 ulp (`_fixed_pi`), so each base angle pi // d and
    pi q // (d q +- a) is within 3/2 ulp of its exact value, and i times it
    within 3i/2.  `_multiples` adds at most 4 ulp per angle-addition step:
    a step rotates the error it inherits, adds the 1-ulp errors of the
    step's cos and sin (`_cos_sin`) and truncates.  So the table cosine is
    within 6i ulp of cos(phi_end); times 2s, with 2s itself at most 2 ulp
    low (`_fixed_two_s`) and one floor of the product, that is
    6 i (2s) + 3 ulp.
    """
    return (6 * i * two_s >> bits) + 4


def _dyadic_square(lo: int, hi: int) -> tuple[int, int]:
    """Tight enclosure of x^2 over [lo, hi] / 2^shift, over 2^(2 shift)."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


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
    scale = 0
    for c in coeffs[-2::-1]:
        scale += shift
        c <<= scale
        if lo >= 0:
            a, b = (a * lo if a >= 0 else a * hi) + c, (b * hi if b >= 0 else b * lo) + c
        elif hi <= 0:
            a, b = (b * lo if b >= 0 else b * hi) + c, (a * hi if a >= 0 else a * lo) + c
        else:
            a, b = min(a * hi, b * lo) + c, max(a * lo, b * hi) + c
    return a, b


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
    _, h_prev, h_deriv = _polys(k, d)
    n_lo, n_hi = _dyadic_enclosure(h_prev, lo, hi, shift)
    h_lo, h_hi = _dyadic_enclosure(h_deriv, lo, hi, shift)
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


def _integers_in(ends) -> range:
    """The integers in [a/b, c/q] for ends ((a, b), (c, q)) with b, q > 0."""
    (a, b), (c, q) = ends
    return range(-(-a // b), c // q + 1)


def _decisive(ends) -> bool:
    """The enclosure exists and is no wider than 1/2, by cross-multiplication,
    so it holds at most one integer."""
    if ends is None:
        return False
    (a, b), (c, q) = ends
    return 2 * (c * b - a * q) <= b * q


def _refined_enclosure(root: tuple[int, int, int, int], i: int, isolation, bracket):
    """The multiplicity enclosure over ``bracket``, a refinement of root i's
    isolation bracket ``isolation``, for ``root`` = (k, d, e, epsilon).  A
    bracket outside the isolation bracket is refused (BracketSeedError), and
    so is an enclosure that is not decisive (IllConditionedError): only a
    decisive one may stand for the multiplicity."""
    if bracket is None or not _inside(bracket, isolation):
        raise BracketSeedError(f"refined bracket for {_root_name(*root, i)} leaves its "
                               "isolation bracket")
    ends = _multiplicity_enclosure(*root, *bracket)
    if not _decisive(ends):
        raise IllConditionedError("multiplicity enclosure failed to converge at "
                                  f"{_root_name(*root, i)}")
    return ends


@dataclass(frozen=True)
class GapVerdict:
    """The certified interval [lo, hi] that holds lambda_2^2 - mu_2^2, for
    d >= 7 (girth >= 14); ``lo`` and ``hi`` are exact rationals from the
    squared root brackets.  ``excluded`` requires only that the interval
    contain no integer.

    The argument's closing inequality chain

        s^((d-3)/2) (d + (e/2) s^(1-d)) > (k-1) d >= (e+1) d > 4 pi sqrt(e/2+1)

    is a theorem on every triple the gap check runs on (odd d >= 7, even e,
    2 <= e <= k-2), so it is proved here and evaluated nowhere:

    * (d-3)/4 >= 1 and k-1 >= 3 give s^((d-3)/2) = (k-1)^((d-3)/4) >= k-1,
      and e >= 2 makes d + (e/2) s^(1-d) > d;
    * the second link is e <= k-2;
    * (e+1) d >= 7 (e+1), and with t = e/2 + 1 >= 2, so e + 1 = 2t - 1,
      7 (2t-1) > 4 pi sqrt(t) squares to 49 (2t-1)^2 > 16 pi^2 t, which
      holds: 2t - 1 >= 3t/2 and t^2 >= 2t give 49 (2t-1)^2 >= (441/2) t,
      and 16 pi^2 < 160.

    The JSON and the text report print ``chain_ok`` as the constant true.
    The analytic bound the certified high end sits below is binary64 (None
    where binary64 cannot hold it), and only the reports that print it
    compute it (`FeasibilityReport.analytic_gap_bound`)."""

    lo: Fraction
    hi: Fraction

    @property
    def contains_integer(self) -> bool:
        return math.ceil(self.lo) <= self.hi

    @property
    def within_unit_interval(self) -> bool:
        return 0 < self.lo and self.hi < 1

    @property
    def excluded(self) -> bool:
        return not self.contains_integer

    @property
    def verdict(self) -> str:
        return VERDICT_GAP if self.excluded else "not-excluded"


def _gap(mu: tuple[int, int, int], lam: tuple[int, int, int]) -> GapVerdict:
    """The gap verdict from the brackets of the second-smallest roots of the
    two families: ``mu`` for epsilon = 1 and ``lam`` for epsilon = -e/2.
    Integer arithmetic only."""
    (mu_lo, mu_hi, mu_shift), (lam_lo, lam_hi, lam_shift) = mu, lam
    shift = max(mu_shift, lam_shift)
    mu_sq = _dyadic_square(mu_lo << (shift - mu_shift), mu_hi << (shift - mu_shift))
    lam_sq = _dyadic_square(lam_lo << (shift - lam_shift), lam_hi << (shift - lam_shift))
    unit = 1 << 2 * shift  # both ends are over 2^(2 shift)
    return GapVerdict(Fraction(lam_sq[0] - mu_sq[1], unit), Fraction(lam_sq[1] - mu_sq[0], unit))


# ---------------------------------------------------------------------------
# root isolation: proposes only

@dataclass(frozen=True)
class RootRecord:
    """One isolated root theta_i of H_{d-1}(x) - eps, with
    eta = eps * (-1)^(d+i), the sign and size of its case.

    ``bracket`` is the integer triple (lo, hi, shift): theta lies in
    [lo, hi] / 2^shift, of width below 2^-60, and the bracket lies inside
    the image of the root's angular case interval under -2 s cos.
    ``theta`` is the bracket's midpoint in binary64, or None where binary64
    cannot hold it (|theta| < 2s passes its range for k past about 2^2046).
    The angles phi and alpha are not kept; `FeasibilityReport.angles`
    computes them for the reports that print them.
    """

    i: int
    epsilon: int
    eta: int
    theta: float | None
    bracket: tuple[int, int, int]


def _midpoint_float(lo: int, hi: int, shift: int) -> float | None:
    """(lo + hi) / 2^(shift+1) in binary64, or None past its range."""
    try:
        return (lo + hi) / (1 << (shift + 1))
    except OverflowError:
        return None


@lru_cache(maxsize=None)
def _polys(k: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The coefficients, constant term first, of H_{d-1}, H_{d-2} and
    H'_{d-1} for one (k, d): the integers the checked section reads."""
    h = dickson_family("H", k, d - 1)
    return h.coefficients, dickson_family("H", k, d - 2).coefficients, derivative(h).coefficients


def _family(k: int, d: int, epsilon: int) -> tuple[int, ...]:
    """H_{d-1} - epsilon as Q(x^2): Q's coefficients (constant term first)
    are H_{d-1}'s even ones."""
    q = list(_polys(k, d)[0][::2])
    q[0] -= epsilon
    return tuple(q)


def _newton_even(q: tuple[int, ...], num: int, top: int) -> tuple[int, int]:
    """P and P' at x = num / 2^top for P(x) = Q(x^2), in truncated fixed
    point: one Horner pass on Q at y = floor(num^2 / 2^top), about x^2 at
    ``top`` fractional bits, floors each step of the value and of Q's slope
    back to ``top`` fractional bits.  P' = 2x Q'(x^2).  Returns (a, b) whose
    floor quotient a // b is the Newton step P/P' in units of 2^-top, up to
    the truncation error.

    The integers stay about ``top`` bits plus the size of the values, where
    exact Horner's grow to ``top`` deg P bits.  The error only steers
    `_predict_cell`: `_bisect` takes the cell it leads to on two exact
    signs (`_bracket`) or runs the halving loop."""
    y = num * num >> top
    acc, slope = q[-1] << top, 0
    for c in q[-2::-1]:
        slope = (slope * y >> top) + acc
        acc = (acc * y >> top) + (c << top)
    return acc << top, num * slope >> top - 1


#: Extra bits the Newton predictor carries below the grid of final cells.
_NEWTON_GUARD = 16

#: Bits a Newton step is assumed to lose to the curvature of P: a step that
#: moves an iterate by 2^-b leaves it about 2^(MARGIN - 2b) from the root.
_NEWTON_MARGIN = 12

#: Newton steps before the predictor gives up.
_NEWTON_STEPS = 40


def _predict_cell(q, lo, hi, shift, halvings, start):
    """Index j of the grid cell of width (hi - lo) / 2^(shift+halvings) that
    holds the root of P(x) = Q(x^2) in (lo, hi) / 2^shift, counted from lo,
    predicted by Newton's method from ``start``; None when it does not
    settle.

    ``start`` is (x, scale, known): x / 2^scale, claimed within 2^-known of
    the root.  Every step runs at the full scale ``top``, the cell grid plus
    `_NEWTON_GUARD` bits, and the claim only decides whether any step runs:
    a start claimed right to the full scale takes none.  A step of b bits
    (in units of 2^-top) leaves the new iterate about 2^(MARGIN + 2b - 2 top)
    from the root, so the iteration stops once 2b + `_NEWTON_MARGIN` <= top.

    The steps are truncated fixed point at ``top`` (`_newton_even`), not
    exact, and nothing here is certified: the prediction only steers.  No
    bracket can move, because `_bisect` takes the predicted cell only when
    exact signs at its two ends are nonzero and opposite, which for a
    one-root bracket makes it the halving loop's cell, and otherwise runs
    the halving loop.  A poor start, a truncation error or a wrong cell
    costs evaluations, never a different bracket.
    """
    x, scale, known = start
    top = shift + halvings + _NEWTON_GUARD
    x = x << top >> scale
    if known < top:
        for _ in range(_NEWTON_STEPS):
            value, slope = _newton_even(q, x, top)
            if slope == 0:
                return None
            step = value // slope
            x -= step
            if 2 * step.bit_length() + _NEWTON_MARGIN <= top:
                break
        else:
            return None
    return ((x >> _NEWTON_GUARD) - (lo << halvings)) // (hi - lo)


def _bisect(q: tuple[int, ...], lo, hi, shift, bits, start=None):
    """The bracket the halving loop ends on when it shrinks the dyadic
    bracket (lo, hi)/2^shift of P(x) = Q(x^2) below width 2^-bits, whenever
    (lo, hi) holds exactly one root of P: the cell whose ends P gives
    opposite signs, or a point where P vanishes.  On any other bracket the
    result is still a root's bracket, not necessarily the halving loop's: a
    grid cell whose ends P gives nonzero opposite signs, a point where P
    vanishes, or None when P has one nonzero sign at both ends of (lo, hi).
    An end where P vanishes is returned as the point bracket.

    Halving keeps the numerator width w = hi - lo and runs a number of steps
    L fixed by the width alone, so unless it collapses onto an exact root it
    ends on a cell [lo 2^L + j w, lo 2^L + (j+1) w] / 2^(shift+L) of a uniform
    grid.  The Newton-predicted cell j is taken when the bracket rule
    (`_bracket`) certifies it by nonzero opposite end signs.  If (lo, hi)
    holds one root, it lies inside that cell, so every grid point left of it
    has the sign of the cell's low end and every one right of it that of its
    high end: halving could only reach this cell.  A zero at the cell's end
    is not taken, since the halving loop may reach that root at a coarser
    shift.  Otherwise the rule runs on the bracket itself, which ends a
    bracket already below the target width, and the halving loop runs from
    its result: each step doubles the shift and keeps the rule's bracket on
    the low half, or else the one on the high half.  So every bracket
    returned is the rule's.  A taken cell or a bracket already below the
    target width costs exactly two signs; a halving step costs two to four,
    where a loop that carried the low end's sign would take one, and it
    runs only where the prediction fails.  Both callers pass one-root
    brackets: `_isolate` certifies its seeds so by counting roots after the
    fact (`_check_family`), and the refinement step passes the cells
    `_isolate` returned (`_refined_enclosure`).

    Newton starts at ``start`` (x, scale, known), `_predict_cell`'s start,
    or at the bracket's midpoint when it is None: `_isolate` passes the
    root's asymptotic value (`_asymptotic_start`), and the refinement step
    none, so it starts at the midpoint of the cell it refines.  Whatever the
    start, the cell is taken on its signs alone, so a poor start costs
    Newton steps, never a different bracket.
    """
    width = hi - lo
    halvings = max(0, width.bit_length() + bits - shift) if width > 0 else 0
    if halvings:
        if start is None:  # the midpoint, within 2^-known of the whole bracket
            start = lo + hi, shift + 1, shift + 1 - width.bit_length()
        cell = _predict_cell(q, lo, hi, shift, halvings, start)
        if cell is not None and 0 <= cell < 1 << halvings:
            low = (lo << halvings) + cell * width
            bracket = _bracket(q, low, low + width, shift + halvings)
            if bracket is not None and bracket[0] < bracket[1]:
                return bracket
    bracket = _bracket(q, lo, hi, shift)
    while bracket and (bracket[1] - bracket[0]) << bits >= 1 << bracket[2]:  # the halving loop
        lo, hi, shift = bracket[0] << 1, bracket[1] << 1, bracket[2] + 1
        mid = (lo + hi) // 2
        bracket = _bracket(q, lo, mid, shift) or _bracket(q, mid, hi, shift)
    return bracket


# ---------------------------------------------------------------------------
# fixed-point kernels for the seeds: a real x is held as an integer near
# x * 2^bits

#: Bits the series kernels carry below the precision they return.
_KERNEL_GUARD = 16


def _drop_guard(x: int) -> int:
    """x rounded from `_KERNEL_GUARD` extra bits to the nearest ulp."""
    return (x + (1 << (_KERNEL_GUARD - 1))) >> _KERNEL_GUARD


def _seed_bits(k: int, d: int) -> int:
    """Working precision of the seeds and of phi: 168 bits below
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


class _Angles(NamedTuple):
    """What the seeds and `_root_angles` of one (k, d) read, in fixed point
    at `bits` (`_seed_bits`): pi, 2s, q = s^(d-1), beta = pi/d, and the
    (cos, sin) of i*beta and of i*pi/(d +- 1/q) for i = 0..(d-1)/2.  The
    last two are the case interval's far ends for |epsilon| = 1."""

    bits: int
    pi: int
    two_s: int
    q: int
    beta: int
    centre: list[tuple[int, int]]  # i pi / d
    inner: list[tuple[int, int]]   # i pi / (d + 1/q)
    outer: list[tuple[int, int]]   # i pi / (d - 1/q)


def _side_tables(pi: int, d: int, q: int, a: int, bits: int):
    """(cos, sin) of i*pi/(d + a/q) and of i*pi/(d - a/q), i = 0..(d-1)/2."""
    half = (d - 1) // 2
    return (
        _multiples(pi * q // (d * q + a), half, bits),
        _multiples(pi * q // (d * q - a), half, bits),
    )


@lru_cache(maxsize=None)
def _angle_tables(k: int, d: int) -> _Angles:
    """The angle tables of (k, d), built once per (k, d) for the life of the
    process; both families' seeds and `_root_angles` read them."""
    bits = _seed_bits(k, d)
    pi = _fixed_pi(bits)
    q = (k - 1) ** ((d - 1) // 2)
    beta = pi // d
    return _Angles(
        bits, pi, _fixed_two_s(k, bits), q, beta,
        _multiples(beta, (d - 1) // 2, bits), *_side_tables(pi, d, q, 1, bits),
    )


def _case_ends(d: int, epsilon: int, angles: _Angles) -> Iterator[tuple[int, int, int, int]]:
    """(i, eta, theta_lo, theta_hi) for each seeded root i = 1..(d-1)/2: the
    ends -2s cos(phi) of its angular case interval, in fixed point at
    ``angles.bits``, each within `_case_end_error` ulp of the exact end.

    |eta| s^(1-d) is the rational a / q, so the interval's ends are
    multiples of three base angles pi/d and pi/(d +- a/q); for a = 1 all
    three tables come from ``angles``, otherwise the two outer ones are
    built here."""
    bits, pi, two_s, q, _, centre, inner, outer = angles
    a = abs(epsilon)
    if a != 1:
        inner, outer = _side_tables(pi, d, q, a, bits)
    for i in range(1, (d - 1) // 2 + 1):
        eta = epsilon if (d + i) % 2 == 0 else -epsilon
        cos_lo, cos_hi = (inner[i][0], centre[i][0]) if eta > 0 else (centre[i][0], outer[i][0])
        yield i, eta, -(two_s * cos_lo) >> bits, -(two_s * cos_hi) >> bits


def _seed_shift(span: int, bits: int) -> int:
    """The shift of a seed whose case interval is span / 2^bits wide:
    36 + floor(-log2(span / 2^bits)), at least 64, computed exactly for
    span >= 1 (ceil(log2 span) is the bit length of span - 1), so it does
    not underflow where s^(1-d) is below the least binary64."""
    return max(64, 36 + bits - (span - 1).bit_length())


def _asymptotic_start(
    k: int, d: int, i: int, eta: int, span: int, angles: _Angles
) -> tuple[int, int, int]:
    """The Newton start (x, scale, known) of seeded root i: x / 2^scale is
    theta_i to second order in u = eta s^(1-d), from the angular-defect
    equation, and it lies within 2^-known of theta_i.

    With phi = i pi/d - delta, the equation d phi = i pi - alpha,
    sin(alpha) = u sin(phi) gives d delta = u sin(i pi/d - delta) to first
    order in alpha.  Two rounds of it from delta = 0, with the table's
    (c, s_i) = (cos, sin)(i pi/d) and q = s^(d-1),

        delta_1 = eta s_i / (d q),   delta_2 = eta (s_i - c delta_1) / (d q),

    and cos(phi) = c + s_i delta_2 - c delta_2^2 / 2 give the start
    -2s cos(phi), in integers at the tables' fixed point ``angles.bits``.

    The claim: |x / 2^scale - theta_i| <= 2^-known, with
    known = min(C + 3, bits - E.bit_length() - 3), where E is
    `_case_end_error` and

        C = 3 (bits - span.bit_length()) + (k-1).bit_length()
            - 2 (d^2 // i).bit_length().

    Each of the start's two errors is at most half of 2^-known.  The
    truncation error is third order in u; to leading order it is at most
    2s |u|^3 s_i^2 (s_i^2 / (6d) + c^2 / d^3).  In the case interval's width
    w = span / 2^bits, about 2s s_i (i pi/d) |u| / d, that is at most
    w^3 (d^2/i)^2 / (30 (2s)^2) (s_i <= i pi/d, and s_i >= 2i/d for
    i pi/d <= pi/2), below 2^-(C + 5.9), which leaves the higher-order
    terms a factor of 3.7 below 2^-(C + 4).  The fixed-point error is below
    4E ulp, under 2^-(bits - E.bit_length() - 2): c and s_i are within 6i
    ulp (`_case_end_error`), and the delta terms add at most 3i + 5 ulp to
    the cosine (|u| < 1/2 and d >= 3), times 2s and one floor.  The claim
    steers `_predict_cell` only; no bracket rests on it.
    """
    bits, _, two_s, q, _, centre, _, _ = angles
    c, s_i = centre[i]
    dq = d * q
    delta1 = eta * s_i // dq
    delta2 = eta * (s_i - (c * delta1 >> bits)) // dq
    cos_phi = c + (s_i * delta2 >> bits) - (c * delta2 * delta2 >> 2 * bits + 1)
    cubic = 3 * (bits - span.bit_length()) + (k - 1).bit_length() - 2 * (d * d // i).bit_length()
    known = min(cubic + 3, bits - _case_end_error(two_s, i, bits).bit_length() - 3)
    return -(two_s * cos_phi) >> bits, bits, known


#: Per (k, d), for the life of the process: the roots of the epsilon = 1
#: family, the one family every e shares.  A -e/2 family serves one triple
#: and is not kept; a failed isolation stores nothing.
_ROOTS: dict[tuple[int, int], tuple[RootRecord, ...]] = {}


def isolate_roots(k: int, d: int, e: int, epsilon: int) -> list[RootRecord]:
    """Isolate the d-1 roots of H_{d-1}(x) - epsilon in exact dyadic brackets.

    epsilon must be 1 or -e/2.  Each root i <= (d-1)/2 is seeded from its
    angular case interval and bracketed to dyadic width below 2^-60; root
    d - i is its exact mirror (H_{d-1} - epsilon is even for odd d).  Every
    bracket is certified, in integers, to lie inside its root's case
    interval, and the isolation by counting roots: the seeds are disjoint
    and below 0, so each of the d - 1 brackets holds exactly one root.  A
    seed without a sign change, seeds that overlap or reach 0, or a bracket
    whose containment cannot be certified is an internal error.
    Records come back in index order i = 1..d-1, which is the ascending
    order of their exact brackets, in a new list on every call.  Only the
    epsilon = 1 family's records are cached; the (k, d) angle tables both
    families' seeds read are cached apart (`_angle_tables`).
    """
    validate_parameters(k, d, e)
    if epsilon not in (1, -e // 2):
        raise ParameterDomainError(
            f"epsilon must be 1 or -e/2 = {Decimal(-e // 2)}, got {Decimal(epsilon)}"
        )
    if epsilon != 1:
        return list(_isolate(k, d, e, epsilon))
    if (k, d) not in _ROOTS:
        _ROOTS[k, d] = _isolate(k, d, e, 1)
    return list(_ROOTS[k, d])


def _root_name(k: int, d: int, e: int, epsilon: int, i: int) -> str:
    """A seeded root as errors name it, each integer in full at any size (a
    `Decimal` prints past the int-string limit, as `cli.format_int` does)."""
    return "(k={}, d={}, e={}, eps={}, i={})".format(*map(Decimal, (k, d, e, epsilon, i)))


def _isolate(k: int, d: int, e: int, epsilon: int) -> tuple[RootRecord, ...]:
    """The isolation of one family, in index order, from the cached (k, d)
    angle tables; ``e`` only names the triple in errors.

    Each seed is its case interval's fixed-point ends (`_case_ends`) shrunk
    inward by span / 2^30 of the interval and rounded inward to the seed's
    shift, and `_bisect` brackets its root from the root's Newton start
    (`_asymptotic_start`).  Nothing here is certified: `_check_family`
    takes the seeds with their error bounds, pulls each bracket only after
    its seed passed, and returns the family's d - 1 brackets or refuses.

    Only the roots i <= (d-1)/2 (theta < 0) are seeded; root d - i is their
    mirror.  Its case interval (eta flips sign) contains the mirror of root
    i's: pi - i pi/(d + a/q) < (d - i) pi/(d - a/q) for 2i < d, and
    pi - i pi/(d - a/q) > (d - i) pi/(d + a/q) likewise.  So its bracket
    needs no check of its own."""
    q = _family(k, d, epsilon)
    angles = _angle_tables(k, d)
    bits, two_s = angles.bits, angles.two_s
    seeds, etas = [], []  # (i, error, span, seed) and eta_i for i = 1..(d-1)/2
    for i, eta, theta_lo, theta_hi in _case_ends(d, epsilon, angles):
        # seed strictly inside the open interval; the root keeps a
        # bounded fraction of the interval width on both sides:
        # lo = ceil((theta_lo + w/2^30) 2^shift), hi = floor((theta_hi - w/2^30) 2^shift)
        span = theta_hi - theta_lo
        shift = _seed_shift(span, bits)
        seed = (-((-((theta_lo << 30) + span) << shift) >> (bits + 30)),
                (((theta_hi << 30) - span) << shift) >> (bits + 30), shift)
        seeds.append((i, _case_end_error(two_s, i, bits), span, seed))
        etas.append(eta)
    brackets = (
        _bisect(q, *seed, TARGET_BRACKET_BITS, _asymptotic_start(k, d, i, eta, span, angles))
        for (i, _, span, seed), eta in zip(seeds, etas)
    )
    checked = _check_family((k, d, e, epsilon), seeds, brackets)
    etas += [-eta for eta in reversed(etas)]
    return tuple(
        RootRecord(i, epsilon, eta, _midpoint_float(*bracket), bracket)
        for i, (eta, bracket) in enumerate(zip(etas, checked), 1)
    )


def _root_angles(k: int, d: int, record: RootRecord) -> tuple[float, float]:
    """(phi, alpha) of an isolated root of H_{d-1} - epsilon, for the reports
    that print them.

    phi in (0, pi) is acos(-theta / (2s)) at the bracket's midpoint, by
    `_acos_near` at the seeds' fixed point and from the cached (k, d) angle
    tables; root d - i takes pi - phi_i from its mirror i, in the same fixed
    point.
    alpha = i pi - d phi is the angular defect.  Formed as that difference
    it would cancel to the bracket's error; it is taken instead from the
    angular-defect equation sin(alpha) = eta s^(1-d) sin(phi), as
    asin(eta sin(phi) / q) with q = s^(d-1) and sin(phi) in fixed point:
    |eta| s^(1-d) < 1/2 in the regime, so the principal branch is alpha.
    """
    bits, pi, two_s, q, beta, centre, _, _ = _angle_tables(k, d)
    lo, hi, shift = record.bracket
    i, mirrored = record.i, 2 * record.i > d
    if mirrored:
        i, lo, hi = d - i, -hi, -lo
    # cos(phi) = -theta_mid / (2s) at the bracket's midpoint
    cos_phi = (-(lo + hi) << 2 * bits) // (two_s << (shift + 1))
    phi = _acos_near(cos_phi, i * beta, *centre[i], bits)
    sin_phi = math.isqrt((1 << 2 * bits) - cos_phi * cos_phi)
    return (pi - phi if mirrored else phi) / (1 << bits), math.asin(record.eta * sin_phi / (q << bits))


# ---------------------------------------------------------------------------
# multiplicity formulas

@lru_cache(maxsize=None)
def _float_coefficients(k: int, d: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The coefficients of H_{d-2} and H'_{d-1} in binary64, constant term
    first, converted once per (k, d); raises OverflowError when one is past
    binary64's range."""
    return tuple(tuple(map(float, p)) for p in _polys(k, d)[1:])


def _horner_float(coeffs: tuple[float, ...], x: float) -> float:
    """Horner's rule in binary64: the operations, in their order, of
    `IntPolynomial.__call__` at a finite float, whose int coefficients are
    converted by the same correctly rounded rule, so the result is the same
    float."""
    result = coeffs[-1]
    for c in coeffs[-2::-1]:
        result = result * x + c
    return result


def multiplicity_closed_form(k: int, d: int, e: int, epsilon: int, theta: float) -> float:
    """Eigenvalue multiplicity at a root theta of H_{d-1} - epsilon:

        n e k (k-1) H_{d-2}(theta)
        / [ 2 eps (2 eps + e/2 - 1) H'_{d-1}(theta) (k^2 - theta^2) ]

    with n = M(k, 2d) + e, in binary64.  Raises OverflowError when a
    coefficient of H_{d-2} or H'_{d-1} is past binary64's range, and
    IllConditionedError when the derivative or k^2 - theta^2 falls below
    1e-12 in magnitude."""
    validate_parameters(k, d, e)
    n = moore_bound(k, 2 * d) + e
    prev_coeffs, deriv_coeffs = _float_coefficients(k, d)
    h_prev = _horner_float(prev_coeffs, theta)
    h_deriv = _horner_float(deriv_coeffs, theta)
    k2t2 = k * k - theta * theta
    if abs(h_deriv) < 1e-12 or abs(k2t2) < 1e-12:
        raise IllConditionedError(
            f"multiplicity at theta={theta} is ill-conditioned "
            f"(|H'|={abs(h_deriv):.3e}, |k^2-theta^2|={abs(k2t2):.3e})"
        )
    return (n * e * k * (k - 1) * h_prev) / (
        2 * epsilon * (2 * epsilon + e // 2 - 1) * h_deriv * k2t2
    )


# ---------------------------------------------------------------------------
# the multiplicity assessments

@dataclass(frozen=True)
class MultiplicityAssessment:
    """Certified view of one root's multiplicity: it lies in [a/b, c/q] for
    ``enclosure`` ((a, b), (c, q)) with b, q > 0, and ``integer`` is the one
    integer there (None when there is not exactly one).  It holds no float:
    the float closed form a report prints for a non-integral multiplicity is
    the report's (`FeasibilityReport.spectrum`).  It names no root either:
    `FeasibilityReport.assessments` is aligned with ``roots``, and a mirrored
    pair shares one assessment."""

    enclosure: tuple[tuple[int, int], tuple[int, int]]
    integer: int | None

    @property
    def integral(self) -> bool:
        return self.integer is not None


def _assess_multiplicity(k, d, e, record: RootRecord) -> MultiplicityAssessment:
    """The certified enclosure of the closed-form multiplicity at
    ``record``, in one refinement step at most.

    The enclosure over the isolation bracket comes first.  If it exists and
    holds no integer, it certifies a non-integral multiplicity, at any
    width.  Otherwise `_bisect` refines the bracket once, straight to the
    cap TARGET_BRACKET_BITS + log2 n + 2d bits, and the enclosure over that
    bracket must be no wider than 1/2 (IllConditionedError otherwise); its
    one integer, if it has one, is ``integer``.  The cap's bits grow with
    log2 n, the scale of the multiplicity, and with d, through the
    overestimate of interval Horner.

    One step does what widening the bracket a few bits per round up to the
    cap would, and no worse:

    * halving cells nest, so the cap bracket lies inside every bracket a
      widening loop would visit on the way;
    * interval Horner, the tight square and the quotient with its corners
      picked by sign are all inclusion-isotone (Moore, 1966), so the cap
      enclosure lies inside each of that loop's enclosures;
    * hence this rule raises only where the loop would have raised, and its
      integer is the loop's or None; a None where the loop stopped on a
      wider enclosure that held an integer is a certified non-integer.
    """
    ends = _multiplicity_enclosure(k, d, e, record.epsilon, *record.bracket)
    if ends is None or _integers_in(ends):
        cap = TARGET_BRACKET_BITS + (moore_bound(k, 2 * d) + e).bit_length() + 2 * d
        # `_isolate` certified that the bracket holds exactly one root of P
        bracket = _bisect(_family(k, d, record.epsilon), *record.bracket, cap)
        ends = _refined_enclosure((k, d, e, record.epsilon), record.i, record.bracket, bracket)
    integers = _integers_in(ends)
    return MultiplicityAssessment(
        enclosure=ends,
        integer=integers[0] if len(integers) == 1 else None,
    )


# ---------------------------------------------------------------------------
# full feasibility report

@dataclass(frozen=True)
class FeasibilityReport:
    """The spectral verdict for (k, d, e), decided in certificate order.

    Only the roots and the gap are computed up front.  Every other attribute
    is computed on first access, once, and only ``final_verdict`` decides
    which of them a verdict needs: a gap exclusion reads nothing else, and
    otherwise the enclosures decide it.  ``repr`` and ``==`` read the fields
    alone.  The per-root attributes are tuples aligned with ``roots``; the
    enclosures and the closed forms are computed at the seeded roots only,
    and a mirror reads its partner's (`_mirrored`).
    """

    k: int
    d: int
    e: int
    n: int
    roots: tuple[RootRecord, ...]
    gap: GapVerdict | None

    def _mirrored(self, f) -> tuple:
        """f at each seeded root (2i < d), in the order of ``roots``: root
        d - i gets root i's value, since H_{d-2} and H'_{d-1} are odd and
        theta_{d-i} = -theta_i."""
        seeded = {(r.epsilon, r.i): f(r) for r in self.roots if 2 * r.i < self.d}
        return tuple(seeded[r.epsilon, min(r.i, self.d - r.i)] for r in self.roots)

    @cached_property
    def _closed_forms(self) -> tuple[float | None, ...]:
        """The float closed form at each root, in the order of ``roots``, or
        None where binary64 cannot evaluate it (theta has no binary64 value,
        or it overflows, with an error or to inf or nan, or is
        ill-conditioned); evaluated once per mirrored pair.  The CSV's
        deviation column reads them all, and `spectrum` those of the
        non-integral multiplicities."""

        def closed_form(r):
            if r.theta is None:
                return None
            try:
                m = multiplicity_closed_form(self.k, self.d, self.e, r.epsilon, r.theta)
            except (OverflowError, IllConditionedError):
                return None
            return m if math.isfinite(m) else None

        return self._mirrored(closed_form)

    @cached_property
    def assessments(self) -> tuple[MultiplicityAssessment, ...]:
        """One certified assessment per root, in the order of ``roots``; a
        mirrored pair shares one (`_mirrored`)."""
        return self._mirrored(lambda r: _assess_multiplicity(self.k, self.d, self.e, r))

    @cached_property
    def angles(self) -> tuple[tuple[float, float], ...]:
        """(phi, alpha) of each root, in the order of ``roots``
        (`_root_angles`); only the JSON report prints them."""
        return tuple(_root_angles(self.k, self.d, r) for r in self.roots)

    @cached_property
    def all_integral(self) -> bool:
        return all(a.integral for a in self.assessments)

    @cached_property
    def final_verdict(self) -> str:
        """The gap exclusion first; otherwise admissible exactly when every
        enclosure holds one integer and it is a positive multiplicity."""
        if self.gap is not None and self.gap.excluded:
            return VERDICT_GAP
        if all(a.integral and a.integer >= 1 for a in self.assessments):
            return VERDICT_ADMISSIBLE
        return VERDICT_INTEGRALITY

    @cached_property
    def max_integrality_deviation(self) -> float | None:
        """The largest |m - round(m)| over the float closed forms, read
        without the enclosures; None when any closed form is None."""
        forms = self._closed_forms
        if None in forms:
            return None
        return max(abs(m - round(m)) for m in forms)

    @cached_property
    def analytic_gap_bound(self) -> float | None:
        """The binary64 analytic bound on lambda_2^2 - mu_2^2 that the
        certified gap sits below, for the JSON and the ``feasibility`` text
        report, which alone print it; only a report with a gap reads it.
        None where binary64 cannot evaluate it: k - 1 past its range raises
        `OverflowError`, and s^(3-d) below it makes the bound 0."""
        k, d, e = self.k, self.d, self.e
        try:
            s_pow = (k - 1) ** (-(d - 1) / 2)  # s^(1-d)
            bound = (
                16 * math.pi ** 2 * (e / 2 + 1) * (k - 1) ** ((3 - d) / 2)
                * (2 * d + (e / 2 - 1) * s_pow)
                / ((d - s_pow) ** 2 * (d + e / 2 * s_pow) ** 2)
            )
        except OverflowError:
            return None
        return bound if 0 < bound < math.inf else None

    def spectrum(self) -> list[tuple[float | Fraction, float | int | None]]:
        """Full candidate spectrum in the exact ascending order of ``roots``,
        between the exact ends -k and k (`Fraction`s, so a k past binary64
        prints) with multiplicity 1 each, and each root's binary64 theta
        (None past its range); certified-integral multiplicities appear as
        ints, a non-integral one as its float closed form, and one without a
        float closed form as None.  The closed forms are computed only when
        a multiplicity is non-integral."""
        inner = [
            (r.theta, a.integer if a.integral else self._closed_forms[j])
            for j, (r, a) in enumerate(zip(self.roots, self.assessments))
        ]
        return [(Fraction(-self.k), 1)] + inner + [(Fraction(self.k), 1)]


def spectral_feasibility(k: int, d: int, e: int) -> FeasibilityReport:
    """The spectral verdict for (k, d, e), in certificate order.

    Isolates all 2(d-1) candidate eigenvalues and, for d >= 7, runs the
    product-gap exclusion, which reproduces the nonexistence argument and
    decides the verdict when it excludes.  The rest is computed on first
    access to the report: every multiplicity in closed form with a certified
    enclosure (once per mirrored pair theta_i = -theta_{d-i}).  A verdict
    the gap does not decide reads the enclosures: unless each holds exactly
    one integer and that integer is at least 1, integrality excludes.

    So a gap-excluded ``scan`` text row pays for isolation and the integer
    gap only, and a CSV row for the float closed forms of
    ``max_integrality_deviation`` besides; the JSON report and the
    ``feasibility`` text report print every multiplicity and pay for the
    enclosures, the float closed forms and the float
    ``analytic_gap_bound``, and the JSON report alone for the angles.  A
    verdict that reads the enclosures (d = 3 or 5) computes no float closed
    form for it, so neither does a ``scan`` text row.

    The two families are merged by (i, eta < 0), which is their exact
    bracket order: every bracket lies in its root's case interval, so the
    eta > 0 root of index i lies below -2s cos(i pi/d) and the eta < 0 root
    above it, and the case intervals of successive indices are disjoint.
    """
    mu = isolate_roots(k, d, e, 1)  # validates the triple first
    lam = isolate_roots(k, d, e, -e // 2)
    return FeasibilityReport(
        k=k,
        d=d,
        e=e,
        n=moore_bound(k, 2 * d) + e,
        roots=tuple(sorted(mu + lam, key=lambda r: (r.i, r.eta < 0))),
        gap=_gap(mu[1].bracket, lam[1].bracket) if d >= _GAP_MIN_D else None,
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
