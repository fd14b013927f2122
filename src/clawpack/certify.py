"""Executable certificates for fixed points of the squared-weight search.

Charges distribute the reference solution's weight over the incumbent;
contributions bound what a claw centered at an incumbent vertex could
recover. At a claw fixed point the per-vertex charge sums stay below half
the vertex weight, contribution sums below the full weight, and the weight
ratio below d/2; each bound is checked in exact arithmetic. The vertex
classification behind the improved guarantee is evaluated with exact surd
sign tests and reported informationally below its huge d threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .circular import AnchorMaps, build_anchor_maps
from .exactnum import surd_cmp
from .instances import ConflictGraph, ContractError, InputError, Solution


@dataclass(frozen=True)
class AnalysisParams:
    """delta in (0,1) plus the derived thresholds.

    Defaults: eps_tilde = delta/2, eps_prime = delta^2/2500, and
    d_delta = 200000/delta^3 + 1 rounded up to an integer. Overrides must
    set custom=True.
    """

    delta: Fraction
    eps_tilde: Fraction
    eps_prime: Fraction
    d_delta: int
    custom: bool = False

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise InputError("delta must lie in (0,1)")
        if not self.custom:
            if self.eps_tilde != self.delta / 2 or self.eps_prime != self.delta ** 2 / 2500:
                raise InputError("non-default thresholds require custom=True")

    @staticmethod
    def from_delta(delta, eps_tilde=None, eps_prime=None) -> "AnalysisParams":
        delta = Fraction(delta)
        if not 0 < delta < 1:
            raise InputError("delta must lie in (0,1)")
        d_delta = math.ceil(Fraction(200000) / delta ** 3 + 1)
        custom = eps_tilde is not None or eps_prime is not None
        return AnalysisParams(
            delta=delta,
            eps_tilde=Fraction(eps_tilde) if eps_tilde is not None else delta / 2,
            eps_prime=Fraction(eps_prime) if eps_prime is not None else delta ** 2 / 2500,
            d_delta=d_delta,
            custom=custom,
        )


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
        def fr(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        return {
            "charge_sum_pos": {str(v): fr(s) for v, s in sorted(self.charge_sum_pos.items())},
            "contr_sum": {str(v): fr(s) for v, s in sorted(self.contr_sum.items())},
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
    incumbent is its own only neighbor, so it charges itself w(u)/2.
    """
    report = CertReport()
    for v in a.members:
        report.charge_sum_pos[v] = Fraction(0)
    pointwise = True
    t_sets: dict[int, list[int]] = {v: [] for v in a.members}
    for u in sorted(astar.members):
        nbrs = _solution_neighbors(g, a, maps, u)
        if not nbrs:
            raise ContractError(f"reference vertex {u} sees no incumbent vertex")
        anchor = _anchor(g, a, maps, u)
        charge = g.weights[u] - g.weight_of(nbrs) / 2
        report.charges[u] = (anchor, charge)
        if charge > 0:
            report.charge_sum_pos[anchor] += charge
            t_sets[anchor].append(u)
            gap = g.weights[u] ** 2 - sum(
                (g.weights[x] ** 2 for x in nbrs if x != anchor), Fraction(0)
            )
            if gap < 2 * charge * g.weights[anchor]:
                pointwise = False
    report.t_sets = {v: tuple(t) for v, t in t_sets.items()}
    report.pointwise_ok = pointwise
    report.charge_bound_ok = all(
        report.charge_sum_pos[v] <= g.weights[v] / 2 for v in a.members
    )
    total = sum((g.weight_of(_solution_neighbors(g, a, maps, u)) / 2 for u in astar.members), Fraction(0))
    total += sum((report.charges[u][1] for u in astar.members), Fraction(0))
    report.identity_ok = total == astar.total_w
    return report


def compute_contributions(
    g: ConflictGraph, a: Solution, astar: Solution, maps: Optional[AnchorMaps] = None
) -> CertReport:
    """contr(u,v) = max{0, (w^2(u) - w^2(N(u,A) minus v)) / w(v)} for incumbent
    neighbors v; per-vertex sums above w(v) certify a residual claw improvement
    and are reported, never thrown. `maps` are built for A when not given."""
    if maps is None:
        maps = build_anchor_maps(g, a)
    report = CertReport()
    for v in a.members:
        report.contr_sum[v] = Fraction(0)
    for u in sorted(astar.members):
        nbrs = _solution_neighbors(g, a, maps, u)
        w2_all = sum((g.weights[x] ** 2 for x in nbrs), Fraction(0))
        for v in nbrs:
            gap = g.weights[u] ** 2 - (w2_all - g.weights[v] ** 2)
            contr = max(Fraction(0), gap / g.weights[v])
            if contr:
                report.contributions[(u, v)] = contr
            report.contr_sum[v] += contr
    report.contribution_bound_ok = all(
        report.contr_sum[v] <= g.weights[v] for v in a.members
    )
    return report


def _classify_one(
    g: ConflictGraph,
    a: Solution,
    maps: AnchorMaps,
    params: AnalysisParams,
    u: int,
) -> tuple[str, ...]:
    w = g.weights
    eps_p = params.eps_prime
    nbrs = _solution_neighbors(g, a, maps, u)
    v1 = _anchor(g, a, maps, u)
    wn = g.weight_of(nbrs)
    charge = w[u] - wn / 2
    v2 = None
    if u in a.members:
        pass
    elif u in maps.second:
        v2 = maps.second[u]
    tags = []

    # beta = sqrt(eps'): membership in T_v1 required for single and double.
    q1 = eps_p
    if charge > 0:
        r = w[u] / w[v1]
        if surd_cmp(1, -1, q1, r) <= 0 and surd_cmp(1, 1, q1, r) >= 0:
            if surd_cmp(1, 1, q1, wn / w[v1]) >= 0:
                tags.append("single")
        if v2 is not None:
            r2 = w[v2] / w[v1]
            if (
                surd_cmp(1, -1, q1, r) <= 0
                and surd_cmp(1, 1, q1, r) >= 0
                and surd_cmp(1, -1, q1, r2) <= 0
                and r2 <= 1
                and surd_cmp(2, -1, q1, wn / w[v1]) <= 0
                and wn < 2 * w[u]
            ):
                tags.append("double")

    if wn >= (2 + eps_p) * w[u]:
        tags.append("payback")

    # beta = sqrt(2*eps') for good vertices.
    q2 = 2 * eps_p
    if v2 is not None and 2 * w[u] <= wn:
        if (
            surd_cmp(2, 1, q2, wn / w[u]) >= 0
            and surd_cmp(1, -1, q2, w[v2] / w[v1]) <= 0
            and surd_cmp(1, -1, q2, w[u] / w[v1]) <= 0
            and surd_cmp(0, w[u], q2, w[u] - w[v1]) >= 0
        ):
            tags.append("good")

    w2_rest = sum((w[x] ** 2 for x in nbrs if x != v1), Fraction(0))
    contr_v1 = max(Fraction(0), (w[u] ** 2 - w2_rest) / w[v1])
    if contr_v1 >= (eps_p / 2) * w[u] + 2 * max(Fraction(0), charge):
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
    for u in sorted(astar.members):
        tags = _classify_one(g, a, maps, params, u)
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
        nb_total = sum(
            (g.weight_of(_solution_neighbors(g, a, maps, u)) / 2 for u in astar.members),
            Fraction(0),
        )
        report.neighborhood_bound_ok = nb_total <= Fraction(d_eff - 1, 2) * a.total_w
        report.ratio_ok = astar.total_w <= Fraction(d_eff, 2) * a.total_w
        report.classification_hypothesis_met = d_eff >= params.d_delta
    return report
