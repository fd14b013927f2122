"""Exact decisions about expressions with square roots of rationals.

Two tools: integer sign tests for a + b*sqrt(q) against x (all class
thresholds in the fixed-point analysis have this shape once multiplied by
a positive denominator, so no precision loop is ever needed there), and
rational-endpoint interval arithmetic with directed-rounding square roots
for the constants checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


def surd_sign(a: int, b: int, qn: int, qd: int, x: int) -> int:
    """Sign of (a + b*sqrt(qn/qd)) - x for integers a, b, x; requires
    qn >= 0 and qd > 0. Decided by one integer comparison of squares."""
    if qn < 0:
        raise ValueError("q must be non-negative")
    t = x - a
    if b == 0 or qn == 0:
        return (t < 0) - (t > 0)
    if b > 0:
        if t <= 0:
            return 1
        s = b * b * qn - t * t * qd
    else:
        if t >= 0:
            return -1
        s = t * t * qd - b * b * qn
    return (s > 0) - (s < 0)


def sqrt_bounds(x: Fraction, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= 2**-prec_bits * max(1, hi).

    Exact (lo == hi) when x is a perfect rational square.
    """
    if x < 0:
        raise ValueError("sqrt of negative value")
    if x == 0:
        return Fraction(0), Fraction(0)
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        exact = Fraction(rn, rd)
        return exact, exact
    scale = 1 << prec_bits
    # sqrt(n/d) = sqrt(n*d)/d
    s = math.isqrt(n * d * scale * scale)
    lo = Fraction(s, d * scale)
    hi = Fraction(s + 1, d * scale)
    return lo, hi


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @staticmethod
    def exact(x) -> "RatInterval":
        f = Fraction(x)
        return RatInterval(f, f)

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        prods = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(prods), max(prods))

    def __truediv__(self, other: "RatInterval") -> "RatInterval":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval denominator straddles zero")
        inv = RatInterval(1 / other.hi, 1 / other.lo)
        return self * inv

    def sqrt(self, prec_bits: int) -> "RatInterval":
        lo, _ = sqrt_bounds(self.lo, prec_bits)
        _, hi = sqrt_bounds(self.hi, prec_bits)
        return RatInterval(lo, hi)

    def squared(self) -> "RatInterval":
        return self * self

    def lt(self, other: "RatInterval") -> Optional[bool]:
        """self < other: True/False when decided, None when intervals overlap."""
        if self.hi < other.lo:
            return True
        if self.lo >= other.hi:
            return False
        return None

    def le(self, other: "RatInterval") -> Optional[bool]:
        if self.hi <= other.lo:
            return True
        if self.lo > other.hi:
            return False
        return None


class UndecidableError(RuntimeError):
    """Interval precision cap reached while an inequality still straddles."""
