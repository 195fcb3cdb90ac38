"""Exception types shared across the package."""


class CageSpectraError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(CageSpectraError, ValueError):
    """A (k, d, e) or related parameter lies outside the supported regime."""


class OddExcessError(ParameterDomainError):
    """The excess e must be even."""


class EvenHalfGirthError(ParameterDomainError):
    """The half-girth d must be odd (even d is incompatible with antipodality)."""


class ExcessRangeError(ParameterDomainError):
    """The excess must satisfy 2 <= e <= k - 2."""


class DegreeRangeError(ParameterDomainError):
    """The degree k is below the supported range."""


class Graph6ParseError(CageSpectraError, ValueError):
    """Malformed graph6 input."""


class StructuralRefusal(CageSpectraError, RuntimeError):
    """A verifier refused to run because its structural preconditions failed;
    the message names each failed fact."""


class IllConditionedError(CageSpectraError, ArithmeticError):
    """A multiplicity enclosure over a refined root bracket is not decisive:
    its denominator encloses zero, or it is wider than 1/2, so it may hold
    more than one integer (`feasibility._refined_enclosure`, its one raise
    site)."""


class BracketSeedError(CageSpectraError, RuntimeError):
    """Internal error: a root-isolation seed did not bracket a sign change,
    its inward shrink did not exceed the error bound of its fixed-point case
    interval (so it could not be certified inside that interval), the
    seeds overlap or reach 0 (so the roots cannot be counted one per
    bracket), the final bracket left its seed, or a refined bracket left its
    isolation bracket.  Indicates the interval case analysis was misapplied;
    never expected for valid input."""
