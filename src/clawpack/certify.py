"""Executable certificates for fixed points of the squared-weight search.

Charges distribute the reference solution's weight over the incumbent;
contributions bound what a claw centered at an incumbent vertex could
recover. At a claw fixed point the per-vertex charge sums stay below half
the vertex weight, contribution sums below the full weight, and the weight
ratio below d/2; each bound is checked exactly on the integer-scaled
weights `w_int` and `w2_int`, cross-multiplied where a bound divides. The
vertex classification behind the improved guarantee is evaluated with exact
integer surd sign tests and reported informationally below its huge d
threshold. `Fraction`s are built only for the values a `CertReport` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .circular import AnchorMaps, build_anchor_maps
from .exactnum import surd_sign
from .instances import ConflictGraph, ContractError, InputError, Solution, fmt_fraction


@dataclass(frozen=True)
class AnalysisParams:
    """delta in (0,1) plus the thresholds eps_tilde and eps_prime.

    Defaults: eps_tilde = delta/2 and eps_prime = delta^2/2500.
    """

    delta: Fraction
    eps_tilde: Fraction
    eps_prime: Fraction

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise InputError("delta must lie in (0,1)")

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

    @property
    def custom(self) -> bool:
        """Whether a threshold differs from its default."""
        return self.eps_tilde != self.delta / 2 or self.eps_prime != self.delta ** 2 / 2500


CLASS_TAGS = ("single", "double", "payback", "good", "contributive")


@dataclass
class CertReport:
    charges: dict[int, tuple[int, Fraction]] = field(default_factory=dict)
    charge_sum_pos: dict[int, Fraction] = field(default_factory=dict)
    t_sets: dict[int, tuple[int, ...]] = field(default_factory=dict)
    contributions: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    contr_sum: dict[int, Fraction] = field(default_factory=dict)
    classes: dict[int, tuple[str, ...]] = field(default_factory=dict)
    unclassified: tuple[int, ...] = ()
    charge_bound_ok: Optional[bool] = None
    contribution_bound_ok: Optional[bool] = None
    pointwise_ok: Optional[bool] = None
    identity_ok: Optional[bool] = None
    neighborhood_bound_ok: Optional[bool] = None
    ratio_ok: Optional[bool] = None
    classification_ok: Optional[bool] = None
    classification_hypothesis_met: Optional[bool] = None

    def all_bounds_ok(self) -> bool:
        return bool(
            self.charge_bound_ok
            and self.contribution_bound_ok
            and self.pointwise_ok
            and self.identity_ok
            and (self.ratio_ok is not False)
        )

    def to_json_obj(self) -> dict:
        return {
            "charge_sum_pos": {str(v): fmt_fraction(s) for v, s in sorted(self.charge_sum_pos.items())},
            "contr_sum": {str(v): fmt_fraction(s) for v, s in sorted(self.contr_sum.items())},
            "t_sets": {str(v): list(t) for v, t in sorted(self.t_sets.items())},
            "classes": {str(u): list(tags) for u, tags in sorted(self.classes.items())},
            "unclassified": list(self.unclassified),
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


def _solution_neighbors(g: ConflictGraph, a: Solution, maps: AnchorMaps, u: int) -> tuple[int, ...]:
    if u in a.members:
        return (u,)
    return maps.a_neighbors[u]


def _anchor(g: ConflictGraph, a: Solution, maps: AnchorMaps, u: int) -> int:
    if u in a.members:
        return u
    return maps.heaviest[u]


def compute_charges(g: ConflictGraph, a: Solution, astar: Solution, maps: AnchorMaps) -> CertReport:
    """Charge of each reference vertex to its heaviest incumbent neighbor.

    charge(u, n(u)) = w(u) - w(N(u,A))/2; a reference vertex inside the
    incumbent is its own only neighbor, so it charges itself w(u)/2. Every
    check runs on the integers `g.w_int` and `g.w2_int`: 2L times a charge
    is 2 w_int(u) - w_int(N(u,A)), and `Fraction`s are built only for the
    reported charges and sums.
    """
    w, w2, lcm = g.w_int, g.w2_int, g.w_lcm
    report = CertReport()
    pos = {v: 0 for v in a.members}  # 2L times the positive charge sums
    pointwise = True
    t_sets: dict[int, list[int]] = {v: [] for v in a.members}
    total = 0  # 2L times the sum of w(N(u,A))/2 + charge(u)
    for u in sorted(astar.members):
        nbrs = _solution_neighbors(g, a, maps, u)
        if not nbrs:
            raise ContractError(f"reference vertex {u} sees no incumbent vertex")
        anchor = _anchor(g, a, maps, u)
        wn = sum(w[x] for x in nbrs)
        charge = 2 * w[u] - wn
        report.charges[u] = (anchor, Fraction(charge, 2 * lcm))
        total += wn + charge
        if charge > 0:
            pos[anchor] += charge
            t_sets[anchor].append(u)
            # w2(u) - w2(N(u,A) - anchor) >= 2 charge w(anchor), times L**2
            gap = w2[u] - sum(w2[x] for x in nbrs if x != anchor)
            if gap < charge * w[anchor]:
                pointwise = False
    report.charge_sum_pos = {v: Fraction(c, 2 * lcm) for v, c in pos.items()}
    report.t_sets = {v: tuple(t) for v, t in t_sets.items()}
    report.pointwise_ok = pointwise
    report.charge_bound_ok = all(pos[v] <= w[v] for v in a.members)
    ref = astar.total_w
    report.identity_ok = total * ref.denominator == 2 * lcm * ref.numerator
    return report


def compute_contributions(
    g: ConflictGraph, a: Solution, astar: Solution, maps: Optional[AnchorMaps] = None
) -> CertReport:
    """contr(u,v) = max{0, (w^2(u) - w^2(N(u,A) minus v)) / w(v)} for incumbent
    neighbors v; per-vertex sums above w(v) certify a residual claw improvement
    and are reported, never thrown. `maps` are built for A when not given.

    Every contribution to v divides by the same w(v), so the bound compares
    the sum of the integer gaps (in `g.w2_int`) with w2_int(v).
    """
    if maps is None:
        maps = build_anchor_maps(g, a)
    w, w2, lcm = g.w_int, g.w2_int, g.w_lcm
    report = CertReport()
    gaps = {v: 0 for v in a.members}  # L * w_int(v) times contr_sum(v)
    for u in sorted(astar.members):
        nbrs = _solution_neighbors(g, a, maps, u)
        rest = w2[u] - sum(w2[x] for x in nbrs)
        for v in nbrs:
            gap = rest + w2[v]
            if gap > 0:
                report.contributions[(u, v)] = Fraction(gap, lcm * w[v])
                gaps[v] += gap
    report.contr_sum = {v: Fraction(s, lcm * w[v]) for v, s in gaps.items()}
    report.contribution_bound_ok = all(gaps[v] <= w2[v] for v in a.members)
    return report


def _classify_one(
    g: ConflictGraph,
    a: Solution,
    maps: AnchorMaps,
    eps: tuple[int, int],
    u: int,
) -> tuple[str, ...]:
    """Class tags of u, with eps' = eps[0] / eps[1].

    Each ratio test is multiplied by its positive denominator, so it reads
    surd_sign(a, b, ., ., x), the sign of a + b sqrt(q) - x on integers.
    """
    w, w2 = g.w_int, g.w2_int
    qn, qd = eps
    nbrs = _solution_neighbors(g, a, maps, u)
    v1 = _anchor(g, a, maps, u)
    wu, w1 = w[u], w[v1]
    wn = sum(w[x] for x in nbrs)
    charge = 2 * wu - wn  # 2L times the charge
    v2 = None
    if u in a.members:
        pass
    elif u in maps.second:
        v2 = maps.second[u]
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
    gap = w2[u] - sum(w2[x] for x in nbrs if x != v1)
    if 2 * qd * max(0, gap) >= w1 * (qn * wu + 2 * qd * max(0, charge)):
        tags.append("contributive")
    return tuple(tags)


def classify_vertices(
    g: ConflictGraph,
    a: Solution,
    astar: Solution,
    maps: AnchorMaps,
    params: AnalysisParams,
) -> CertReport:
    """Tag every reference vertex with the classes it satisfies.

    Classes at the derived thresholds: sqrt(eps')-single and -double
    (positive charge required), eps'-payback, sqrt(2 eps')-good, and
    eps'/2-contributive; `unclassified` collects vertices matching none.
    Exhaustiveness is only guaranteed at claw fixed points with d >= d_delta.
    """
    report = CertReport()
    unclassified = []
    eps = (params.eps_prime.numerator, params.eps_prime.denominator)
    for u in sorted(astar.members):
        tags = _classify_one(g, a, maps, eps, u)
        report.classes[u] = tags
        if not tags:
            unclassified.append(u)
    report.unclassified = tuple(unclassified)
    report.classification_ok = not unclassified
    return report


def certify_local_optimum(
    g: ConflictGraph,
    a: Solution,
    astar: Solution,
    params: AnalysisParams,
    d: Optional[int] = None,
) -> CertReport:
    """Full certificate for an incumbent claw fixed point against a reference.

    Exact checks: per-vertex positive charges sum to at most w(v)/2,
    contributions to at most w(v), the charge decomposition identity, the
    pointwise squared-weight inequality behind positive charges, and (when
    a claw bound is known) the neighborhood bound and the d/2 weight ratio.
    The classification result is informational below d_delta.
    """
    maps = build_anchor_maps(g, a)
    report = compute_charges(g, a, astar, maps)
    contrib = compute_contributions(g, a, astar, maps)
    report.contributions = contrib.contributions
    report.contr_sum = contrib.contr_sum
    report.contribution_bound_ok = contrib.contribution_bound_ok
    cls = classify_vertices(g, a, astar, maps, params)
    report.classes = cls.classes
    report.unclassified = cls.unclassified
    report.classification_ok = cls.classification_ok
    d_eff = d if d is not None else g.d
    if d_eff is not None:
        # sum of w(N(u,A))/2 <= (d-1)/2 w(A) and w(A*) <= d/2 w(A), cross-multiplied
        w = g.w_int
        nb = sum(sum(w[x] for x in _solution_neighbors(g, a, maps, u)) for u in astar.members)
        an, ad = a.total_w.numerator, a.total_w.denominator
        sn, sd = astar.total_w.numerator, astar.total_w.denominator
        report.neighborhood_bound_ok = nb * ad <= (d_eff - 1) * g.w_lcm * an
        report.ratio_ok = 2 * sn * ad <= d_eff * an * sd
        report.classification_hypothesis_met = d_eff >= params.d_delta
    return report
