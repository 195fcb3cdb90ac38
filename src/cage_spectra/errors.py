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
    """A verifier refused to run because its structural preconditions failed.

    Carries the offending verdict (when one was computed) in ``verdict``.
    """

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class IllConditionedError(CageSpectraError, ArithmeticError):
    """A multiplicity evaluation hit a denominator too close to zero."""


class BracketSeedError(CageSpectraError, RuntimeError):
    """Internal error: a root-isolation seed did not bracket a sign change,
    its inward shrink did not exceed the error bound of its fixed-point case
    interval (so it could not be certified inside that interval), the
    seeds overlap or reach 0 (so the roots cannot be counted one per
    bracket), the final bracket left its seed, or a refined bracket left its
    isolation bracket.  Indicates the interval case analysis was misapplied;
    never expected for valid input."""
