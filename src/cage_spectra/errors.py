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


class RegimeViolationError(CageSpectraError, ArithmeticError):
    """A weight-function radicand or denominator left its guaranteed-positive
    regime; the requested parameters violate the assumptions the formulas
    were derived under."""


class BracketSeedError(CageSpectraError, RuntimeError):
    """Internal error: a root-isolation seed interval did not bracket a sign
    change, or an isolated root violated its case bound.  Indicates the
    interval case analysis was misapplied; never expected for valid input."""
