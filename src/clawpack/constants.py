"""Executable checker for the fourteen threshold inequalities.

Evaluates const0..const13 at the derived (or overridden) thresholds in
adaptive rational interval arithmetic: precision doubles until every strict
inequality is decided, up to a hard cap. The four universally quantified
conditions are monotone in d and are checked at the smallest admissible
integer d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .certify import AnalysisParams
from .exactnum import RatInterval, UndecidableError
from .instances import fmt_fraction

CONST_NAMES = tuple(f"const{i}" for i in range(14))
_PREC_START = 64
_PREC_CAP = 8192


@dataclass
class ConstantsReport:
    params: AnalysisParams
    results: dict[str, bool]

    @property
    def all_ok(self) -> bool:
        return all(self.results.values())

    def to_json_obj(self) -> dict:
        p = self.params
        return {
            "delta": fmt_fraction(p.delta),
            "eps_tilde": fmt_fraction(p.eps_tilde),
            "eps_prime": fmt_fraction(p.eps_prime),
            "d_delta": p.d_delta,
            "results": {name: self.results[name] for name in CONST_NAMES},
            "all_ok": self.all_ok,
        }


def _conditions(p: AnalysisParams) -> list[tuple[str, Callable[[int], Optional[bool]]]]:
    delta = RatInterval.exact(p.delta)
    et = RatInterval.exact(p.eps_tilde)
    ep = RatInterval.exact(p.eps_prime)
    d_min = RatInterval.exact(p.d_delta)
    one = RatInterval.exact(1)
    two = RatInterval.exact(2)
    half = RatInterval.exact(Fraction(1, 2))

    def sq_ep(prec):
        return ep.sqrt(prec)

    def sq_2ep(prec):
        return (RatInterval.exact(2) * ep).sqrt(prec)

    def c0(prec):
        lo = RatInterval.exact(0).lt(et)
        m = RatInterval.exact(min(2 * p.delta, Fraction(1, 2)))
        hi = et.lt(m)
        return None if lo is None or hi is None else (lo and hi)

    def c1(prec):
        a = RatInterval.exact(0).lt(ep)
        b = ep.le(RatInterval.exact(Fraction(1, 20)))
        return None if a is None or b is None else (a and b)

    def c2(prec):
        s = sq_2ep(prec)
        lhs = half * (one - ep - RatInterval.exact(Fraction(15, 4)) * s) * (one - s)
        return (ep / RatInterval.exact(10)).le(lhs)

    def c3(prec):
        lhs = (one - sq_ep(prec)) / two
        return (ep / RatInterval.exact(10)).le(lhs)

    def c4(prec):
        s = sq_2ep(prec)
        lhs = two + ep - one / (one - s)
        return s.le(lhs)

    def c5(prec):
        s1 = sq_ep(prec)
        s2 = sq_2ep(prec)
        om = one - s2
        lhs = (
            RatInterval.exact(4) * s1
            + (RatInterval.exact(4) * s2 + RatInterval.exact(8) * ep) / om.squared()
            + RatInterval.exact(18) * ep / om.squared().squared()
        )
        return lhs.lt(et / two)

    def c6(prec):
        lhs = RatInterval.exact(20) / ((d_min - one) * ep) + et / two
        return lhs.le(delta / two)

    def c7(prec):
        return half.lt(one - sq_2ep(prec))

    def c8(prec):
        return one.lt((d_min - one) / RatInterval.exact(4) * et)

    def c9(prec):
        if p.d_delta <= 5:
            return False
        lhs = RatInterval.exact(4) / ((one - sq_2ep(prec)).squared() * (d_min - RatInterval.exact(5)))
        return lhs.lt(half)

    def c10(prec):
        return ep.le((one - sq_2ep(prec)).squared())

    def c11(prec):
        if p.d_delta <= 5:
            return False
        return ((d_min - one) / (d_min - RatInterval.exact(5))).lt(two)

    def c12(prec):
        return RatInterval.exact(9).lt(d_min)

    def c13(prec):
        return (RatInterval.exact(8) * sq_ep(prec)).le(et)

    return list(zip(CONST_NAMES, (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13)))


def check_constants(delta, eps_tilde=None, eps_prime=None) -> ConstantsReport:
    """Truth value of each of the fourteen conditions at the given delta.

    `eps_tilde`/`eps_prime` override the derived defaults for what-if runs.
    Raises UndecidableError if a condition still straddles at the precision
    cap (cannot happen at the default thresholds, where every inequality
    has slack).
    """
    params = AnalysisParams.from_delta(delta, eps_tilde=eps_tilde, eps_prime=eps_prime)
    results: dict[str, bool] = {}
    for name, cond in _conditions(params):
        prec = _PREC_START
        verdict = cond(prec)
        while verdict is None and prec < _PREC_CAP:
            prec *= 2
            verdict = cond(prec)
        if verdict is None:
            raise UndecidableError(f"{name} undecided at precision cap {_PREC_CAP}")
        results[name] = verdict
    return ConstantsReport(params=params, results=results)

