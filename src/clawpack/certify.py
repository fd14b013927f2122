"""Executable certificates for fixed points of the squared-weight search.

Each reference vertex u in A* sees N(u,A), its incumbent neighbors ({u}
when u is in A), and charges charge(u) = w(u) - w(N(u,A))/2 to the
heaviest of them, its anchor: the first entry of its list in the
solution's table `Solution.a_nbrs`, which is kept heaviest first; the
second entry, where there is one, is its second anchor. It contributes
contr(u,v) = max{0, (w2(u) - w2(N(u,A) - v)) / w(v)} to each v in N(u,A),
which bounds what a claw centered at v could recover. At a claw fixed
point the positive charge sums stay below half the vertex weight,
contribution sums below the full weight, and the weight ratio below d/2;
each bound is checked exactly on the integer-scaled weights `w_int` and
`w2_int`, cross-multiplied where a bound divides. The vertex
classification behind the improved guarantee is evaluated with exact
integer surd sign tests and reported informationally below its huge d
threshold. `Fraction`s are built only for the values a `CertReport`'s
`details` hold, when they are first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from .circular import build_anchor_maps
from .exactnum import surd_sign
from .instances import ContractError, InputError, Solution, fmt_fraction


@dataclass(frozen=True)
class AnalysisParams:
    """delta in (0,1) plus the thresholds eps_tilde and eps_prime.

    Defaults: eps_tilde = delta/2 and eps_prime = delta^2/2500. eps_prime
    lies in (0, 1/2), so every threshold's 1 - sqrt(2 eps_prime) is positive.
    """

    delta: Fraction
    eps_tilde: Fraction
    eps_prime: Fraction

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise InputError("delta must lie in (0,1)")
        if not 0 < self.eps_prime < Fraction(1, 2):
            raise InputError("eps_prime must lie in (0,1/2)")

    @staticmethod
    def from_delta(delta, eps_tilde=None, eps_prime=None) -> "AnalysisParams":
        delta = Fraction(delta)
        return AnalysisParams(
            delta=delta,
            eps_tilde=Fraction(eps_tilde) if eps_tilde is not None else delta / 2,
            eps_prime=Fraction(eps_prime) if eps_prime is not None else delta ** 2 / 2500,
        )

    @property
    def d_delta(self) -> int:
        """200000/delta^3 + 1 rounded up: the d the improved ratio needs."""
        return math.ceil(Fraction(200000) / self.delta ** 3 + 1)


class CertDetails(NamedTuple):
    """A certificate's per-vertex report: `charges` (u in A* -> its anchor
    and charge), `charge_sum_pos` and `t_sets` (per member of A: its
    positive charges' sum and their vertices), `contributions` ((u, v) ->
    each positive contr(u, v)), `contr_sum`, `classes` (u -> its class
    tags) and `unclassified` (the u with none)."""

    charges: dict[int, tuple[int, Fraction]]
    charge_sum_pos: dict[int, Fraction]
    t_sets: dict[int, tuple[int, ...]]
    contributions: dict[tuple[int, int], Fraction]
    contr_sum: dict[int, Fraction]
    classes: dict[int, tuple[str, ...]]
    unclassified: tuple[int, ...]


@dataclass
class CertReport:
    """A certificate: its verdict flags, computed when it is made, and its
    per-vertex report `details`, built on first read.

    The flags are None where they do not apply (no claw bound on the
    graph). `details` is built from the rows and integer sums of the pass
    that computed the flags, which hold their own copies of each N(u, A),
    so a swap applied to the incumbent after certifying changes nothing.
    """

    charge_bound_ok: bool
    contribution_bound_ok: bool
    pointwise_ok: bool
    identity_ok: bool
    neighborhood_bound_ok: Optional[bool]
    ratio_ok: Optional[bool]
    classification_hypothesis_met: Optional[bool]
    # (g, eps' as (numerator, denominator), the pass's rows, pos, contr)
    _pass: tuple = field(repr=False, compare=False)

    @cached_property
    def details(self) -> CertDetails:
        """Per row, in id order: u's anchor and charge, its positive
        contributions and its class tags; then the Fractions of the sums."""
        g, eps, rows, pos, contr = self._pass
        w, w2, lcm = g.w_int, g.w2_int, g.w_lcm
        charges: dict[int, tuple[int, Fraction]] = {}
        contributions: dict[tuple[int, int], Fraction] = {}
        classes: dict[int, tuple[str, ...]] = {}
        t_sets: dict[int, list[int]] = {v: [] for v in pos}
        unclassified = []
        for u, nbrs, v1, v2, wn, charge, rest in rows:
            charges[u] = (v1, Fraction(charge, 2 * lcm))
            if charge > 0:
                t_sets[v1].append(u)
            for v in nbrs:
                c = rest + w2[v]
                if c > 0:
                    contributions[(u, v)] = Fraction(c, lcm * w[v])
            tags = classes[u] = _class_tags(w, eps, u, v1, v2, wn, charge, rest + w2[v1])
            if not tags:
                unclassified.append(u)
        return CertDetails(
            charges=charges,
            charge_sum_pos={v: Fraction(c, 2 * lcm) for v, c in pos.items()},
            t_sets={v: tuple(t) for v, t in t_sets.items()},
            contributions=contributions,
            contr_sum={v: Fraction(c, lcm * w[v]) for v, c in contr.items()},
            classes=classes,
            unclassified=tuple(unclassified),
        )

    @property
    def classification_ok(self) -> bool:
        return not self.details.unclassified

    def all_bounds_ok(self) -> bool:
        return bool(
            self.charge_bound_ok
            and self.contribution_bound_ok
            and self.pointwise_ok
            and self.identity_ok
            and (self.ratio_ok is not False)
        )

    def to_json_obj(self) -> dict:
        det = self.details
        return {
            "charge_sum_pos": {str(v): fmt_fraction(s) for v, s in sorted(det.charge_sum_pos.items())},
            "contr_sum": {str(v): fmt_fraction(s) for v, s in sorted(det.contr_sum.items())},
            "t_sets": {str(v): list(t) for v, t in sorted(det.t_sets.items())},
            "classes": {str(u): list(tags) for u, tags in sorted(det.classes.items())},
            "unclassified": list(det.unclassified),
            "flags": {
                "charge_bound_ok": self.charge_bound_ok,
                "contribution_bound_ok": self.contribution_bound_ok,
                "pointwise_ok": self.pointwise_ok,
                "identity_ok": self.identity_ok,
                "neighborhood_bound_ok": self.neighborhood_bound_ok,
                "ratio_ok": self.ratio_ok,
                "classification_ok": self.classification_ok,
                "classification_hypothesis_met": self.classification_hypothesis_met,
            },
        }


def _class_tags(
    w: tuple[int, ...],
    eps: tuple[int, int],
    u: int,
    v1: int,
    v2: Optional[int],
    wn: int,
    charge: int,
    gap: int,
) -> tuple[str, ...]:
    """Class tags of u, with eps' = eps[0] / eps[1].

    v1 is u's anchor and v2 its second anchor or None, wn = w_int(N(u,A)),
    `charge` is 2L times the charge and `gap` is L**2 times
    w2(u) - w2(N(u,A) - v1).
    Each ratio test is multiplied by its positive denominator, so it reads
    surd_sign(a, b, ., ., x), the sign of a + b sqrt(q) - x on integers.
    """
    qn, qd = eps
    wu, w1 = w[u], w[v1]
    tags = []

    # beta = sqrt(eps'): membership in T_v1 required for single and double.
    if charge > 0:
        # 1 - beta <= w(u)/w(v1) <= 1 + beta
        in_band = surd_sign(w1, -w1, qn, qd, wu) <= 0 and surd_sign(w1, w1, qn, qd, wu) >= 0
        if in_band and surd_sign(w1, w1, qn, qd, wn) >= 0:
            tags.append("single")
        if (
            v2 is not None
            and in_band
            and surd_sign(w1, -w1, qn, qd, w[v2]) <= 0
            and w[v2] <= w1
            and surd_sign(2 * w1, -w1, qn, qd, wn) <= 0
            and wn < 2 * wu
        ):
            tags.append("double")

    if wn * qd >= (2 * qd + qn) * wu:
        tags.append("payback")

    # beta = sqrt(2*eps') for good vertices.
    q2n = 2 * qn
    if v2 is not None and 2 * wu <= wn:
        if (
            surd_sign(2 * wu, wu, q2n, qd, wn) >= 0
            and surd_sign(w1, -w1, q2n, qd, w[v2]) <= 0
            and surd_sign(w1, -w1, q2n, qd, wu) <= 0
            and surd_sign(0, wu, q2n, qd, wu - w1) >= 0
        ):
            tags.append("good")

    # contr(u, v1) >= (eps'/2) w(u) + 2 max(0, charge), times 2 qd L w(v1)
    if 2 * qd * max(0, gap) >= w1 * (qn * wu + 2 * qd * max(0, charge)):
        tags.append("contributive")
    return tuple(tags)


def certify_local_optimum(a: Solution, astar: Solution, params: AnalysisParams) -> CertReport:
    """Certificate for an incumbent claw fixed point against a reference.

    It checks that `a` is maximal, and then one integer pass over A*
    computes every verdict flag and keeps one row per u for the report.
    Exact checks: per-vertex positive charges sum to at most w(v)/2,
    contributions to at most w(v), w(N(u,A))/2 + charge(u) summed over A*
    equals w(A*), every positive charge satisfies the pointwise
    w2(u) - w2(N(u,A) - anchor) >= 2 charge(u) w(anchor), and (when the
    graph's claw bound g.d is set) the neighborhood bound and the d/2
    ratio. A contribution sum above w(v) certifies a residual claw
    improvement and is reported, never thrown. The charges, contributions
    and class tags are built from the rows only when the report's
    `details` are read. The classes, at the derived thresholds, are
    sqrt(eps')-single and -double (positive charge required), eps'-payback,
    sqrt(2 eps')-good and eps'/2-contributive; `unclassified` collects the
    vertices matching none. They are only guaranteed exhaustive at claw
    fixed points with d >= d_delta, so the result is informational below it.
    Both solutions are read with the weights of `a`'s graph: a reference
    over another graph is a `ContractError`.
    """
    g = a.g
    if astar.g is not g:
        raise ContractError("the reference solution is over another graph")
    a_nbrs = build_anchor_maps(a)
    w, w2 = g.w_int, g.w2_int
    members = a.members
    pos = {v: 0 for v in members}  # 2L times the positive charge sums
    contr = {v: 0 for v in members}  # L * w_int(v) times contr_sum(v)
    rows = []
    pointwise = True
    nb = 0  # L times the sum of w(N(u,A))
    total = 0  # 2L times the sum of w(N(u,A))/2 + charge(u)
    for u in sorted(astar.members):
        # N(u, A), u's anchor and second anchor (or None), wn = w_int(N(u, A)),
        # 2L times the charge, and L**2 times w2(u) - w2(N(u, A))
        nbrs = (u,) if u in members else tuple(a_nbrs[u])
        v1, v2 = nbrs[0], (nbrs[1] if len(nbrs) > 1 else None)
        wn = sum(w[x] for x in nbrs)
        charge = 2 * w[u] - wn
        rest = w2[u] - sum(w2[x] for x in nbrs)
        rows.append((u, nbrs, v1, v2, wn, charge, rest))
        nb += wn
        total += wn + charge
        if charge > 0:
            pos[v1] += charge
            if rest + w2[v1] < charge * w[v1]:  # the pointwise inequality, times L**2
                pointwise = False
        for v in nbrs:
            c = rest + w2[v]
            if c > 0:
                contr[v] += c
    s_a = sum(w[v] for v in members)  # L times w(A)
    s_astar = sum(w[u] for u in astar.members)  # L times w(A*)
    d = g.d
    return CertReport(
        charge_bound_ok=all(pos[v] <= w[v] for v in members),
        contribution_bound_ok=all(contr[v] <= w2[v] for v in members),
        pointwise_ok=pointwise,
        identity_ok=total == 2 * s_astar,
        # sum of w(N(u,A))/2 <= (d-1)/2 w(A) and w(A*) <= d/2 w(A), times 2L
        neighborhood_bound_ok=None if d is None else nb <= (d - 1) * s_a,
        ratio_ok=None if d is None else 2 * s_astar <= d * s_a,
        classification_hypothesis_met=None if d is None else d >= params.d_delta,
        _pass=(g, (params.eps_prime.numerator, params.eps_prime.denominator), rows, pos, contr),
    )
