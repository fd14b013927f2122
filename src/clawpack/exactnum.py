"""Exact decisions about expressions with roots of rationals.

Integer sign tests for a + b*sqrt(q) against x (all class thresholds in
the fixed-point analysis have this shape once multiplied by a positive
denominator, so no precision loop is ever needed there); `root_floor`,
the package's one root, exact on a 2**-bits grid; and rational-endpoint
interval arithmetic with directed-rounding square roots for the
constants checker.
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


def root_floor(x: Fraction | int, q: int, bits: int) -> int:
    """floor(x**(1/q) * 2**bits) for x >= 0 and q >= 2: the integer q-th
    root of floor(x * 2**(bits*q))."""
    if x < 0:
        raise ValueError("root of negative value")
    n = (x.numerator << bits * q) // x.denominator
    if q == 2 or n < 2:
        return math.isqrt(n)
    r = 1 << -(-n.bit_length() // q)  # above the root; Newton steps descend
    while (s := ((q - 1) * r + n // r ** (q - 1)) // q) < r:
        r = s
    return r


def sqrt_bounds(x: Fraction, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= 2**-prec_bits * max(1, hi).

    Exact (lo == hi) when x is a perfect rational square.
    """
    n, d = x.numerator, x.denominator
    # sqrt(n/d) = sqrt(n*d)/d, and n*d is a square iff n/d is one
    s = root_floor(n * d, 2, prec_bits)
    lo = Fraction(s, d << prec_bits)
    return lo, lo if s * s == n * d << 2 * prec_bits else Fraction(s + 1, d << prec_bits)


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
