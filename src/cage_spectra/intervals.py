"""Exact closed-interval arithmetic over the rationals.

Used to turn a certified root bracket into a certified enclosure of any
rational expression of the root.  Because endpoints are `Fraction`s there is
no rounding at all: directed rounding degenerates to exact arithmetic, and
"does this enclosure contain an integer" is decidable exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


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

    @classmethod
    def of(cls, a: Rat, b: Rat) -> "RatInterval":
        a, b = Fraction(a), Fraction(b)
        return cls(min(a, b), max(a, b))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "RatInterval") -> "RatInterval":
        other = _coerce(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "RatInterval":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "RatInterval":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "RatInterval":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

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

    def contains(self, x: Rat) -> bool:
        return self.lo <= x <= self.hi

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
