import collections
import dataclasses
import json
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from conftest import PrimeWeights, gen_berman_tight, nbr_set, ref_anchors, w_of

from clawpack import certify
from clawpack.certify import AnalysisParams, CertReport, certify_local_optimum
from clawpack.circular import build_anchor_maps
from clawpack.exactnum import surd_sign
from clawpack.generators import berman_tight_instance, gen_random_packing
from clawpack.instances import ConflictGraph, ContractError, InputError, Solution, build_conflict_graph
from clawpack.oracle import exact_mwis
from clawpack.solvers import SolverConfig, squareimp

PARAMS = AnalysisParams.from_delta(Fraction(1, 2))


def two_vertex_case(w_u, w_v):
    g = ConflictGraph.from_edges(2, [(0, 1)], [w_v, w_u], d=3)
    return g, Solution.of(g, {0}), Solution.of(g, {1})


def test_charge_simple_value():
    g, a, astar = two_vertex_case(w_u=3, w_v=2)
    rep = certify_local_optimum(a, astar, PARAMS)
    assert rep.charges[1] == (0, Fraction(2))
    assert rep.charge_sum_pos[0] == 2
    assert rep.pointwise_ok and rep.identity_ok
    # this is not a claw fixed point, and the charge bound says so
    assert not rep.charge_bound_ok


def test_self_charge_half_weight():
    g = ConflictGraph.from_edges(2, [(0, 1)], [4, 1], d=3)
    a = Solution.of(g, {0})
    astar = Solution.of(g, {0})
    rep = certify_local_optimum(a, astar, PARAMS)
    assert rep.charges[0] == (0, Fraction(2))


def test_charge_zero_when_neighborhood_heavy():
    g = ConflictGraph.from_edges(3, [(2, 0), (2, 1)], [1, 1, 1], d=3)
    a = Solution.of(g, {0, 1})
    astar = Solution.of(g, {2})
    rep = certify_local_optimum(a, astar, PARAMS)
    assert rep.charges[2] == (0, Fraction(0))
    assert rep.charge_sum_pos[0] == 0


def test_charges_need_maximal_incumbent():
    g = ConflictGraph.from_edges(3, [(0, 1)], [1, 1, 1], d=3)
    a = Solution.of(g, {0})
    astar = Solution.of(g, {2})
    with pytest.raises(ContractError):
        build_anchor_maps(a)


def test_contribution_simple_value():
    g, a, astar = two_vertex_case(w_u=3, w_v=2)
    rep = certify_local_optimum(a, astar, PARAMS)
    assert rep.contributions[(1, 0)] == Fraction(9, 2)
    assert not rep.contribution_bound_ok


def test_contribution_zero_case():
    g = ConflictGraph.from_edges(3, [(2, 0), (2, 1)], [1, 1, 1], d=3)
    a = Solution.of(g, {0, 1})
    astar = Solution.of(g, {2})
    rep = certify_local_optimum(a, astar, PARAMS)
    assert rep.contr_sum[0] == 0 and rep.contr_sum[1] == 0


def test_contribution_berman_boundary():
    g, a, b = gen_berman_tight(4)
    rep = certify_local_optimum(a, b, PARAMS)
    for v in a.members:
        assert rep.contr_sum[v] == g.weights[v]
    # singleton contributes its full squared weight; pair-sets contribute zero
    assert rep.contributions[(3, 0)] == 1
    assert (6, 0) not in rep.contributions


def test_self_contribution_is_own_weight():
    g = ConflictGraph.from_edges(2, [(0, 1)], [4, 1], d=3)
    a = Solution.of(g, {0})
    astar = Solution.of(g, {0})
    rep = certify_local_optimum(a, astar, PARAMS)
    assert rep.contributions[(0, 0)] == 4


def classify_pair(w_u, nbr_weights):
    n = 1 + len(nbr_weights)
    edges = [(0, i) for i in range(1, n)]
    g = ConflictGraph.from_edges(n, edges, [w_u] + list(nbr_weights), d=6)
    a = Solution.of(g, set(range(1, n)))
    astar = Solution.of(g, {0})
    return certify_local_optimum(a, astar, PARAMS).classes[0]


def test_classify_single():
    tags = classify_pair(1, [1])
    assert "single" in tags


def test_classify_good_boundary_not_double():
    tags = classify_pair(1, [1, 1])
    assert "good" in tags
    assert "double" not in tags


def test_classify_payback():
    tags = classify_pair(1, [1, 1, 1])
    assert "payback" in tags


def test_classify_double():
    # charge positive, two near-equal anchors, w(N) just below 2w(u)
    tags = classify_pair(1, [1, Fraction(199, 200)])
    assert "double" in tags


def test_classify_contributive():
    # lone heavy vertex over a light anchor
    tags = classify_pair(3, [2])
    assert "contributive" in tags


@pytest.mark.parametrize("d", [4, 5, 6])
def test_certify_berman_tight(d):
    g, a, b = gen_berman_tight(d)
    rep = certify_local_optimum(a, b, PARAMS)
    assert rep.charge_bound_ok and rep.contribution_bound_ok
    assert rep.pointwise_ok and rep.identity_ok
    assert rep.neighborhood_bound_ok and rep.ratio_ok
    assert b.total_w == Fraction(d, 2) * a.total_w
    assert not rep.classification_hypothesis_met  # desk-scale d is far below d_delta


def test_certify_optimum_as_incumbent():
    g, _, b = gen_berman_tight(4)
    rep = certify_local_optimum(b, b, PARAMS)
    assert rep.ratio_ok
    for u in b.members:
        assert rep.charges[u] == (u, g.weights[u] / 2)


def test_certify_random_fixed_points():
    for seed in range(25):
        inst = gen_random_packing(12, 3, 9, seed=seed)
        g = build_conflict_graph(inst)
        a = squareimp(g, SolverConfig(mode="squareimp")).final
        opt = exact_mwis(g)
        rep = certify_local_optimum(a, opt.best, PARAMS)
        assert rep.all_bounds_ok(), (seed, rep.to_json_obj()["flags"])
        # every reference vertex lands in at least one class at these thresholds
        # (informational: not guaranteed below d_delta, but holds here)
        assert rep.identity_ok


def test_classification_lemma_shape_on_fixed_points():
    # a weighted case where every class check still runs exactly
    inst = gen_random_packing(10, 3, 8, weight_dist=("near-unit", Fraction(1, 10)), seed=77)
    g = build_conflict_graph(inst)
    a = squareimp(g, SolverConfig(mode="squareimp")).final
    opt = exact_mwis(g)
    rep = certify_local_optimum(a, opt.best, PARAMS)
    assert set(rep.classes) == set(opt.best.members)
    for tags in rep.classes.values():
        assert set(tags) <= {"single", "double", "payback", "good", "contributive"}


def test_charge_identity_property_any_pair():
    # the decomposition identity holds for every incumbent/reference pair,
    # fixed point or not
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def run(data):
        n = data.draw(st.integers(3, 9))
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=14,
            )
        )
        weights = [data.draw(st.integers(1, 9)) for _ in range(n)]
        g = ConflictGraph.from_edges(n, edges, weights, d=n + 1)
        # incumbent: greedy maximal by id; reference: greedy maximal from the top
        a_members, alive = set(), set(range(n))
        while alive:
            v = min(alive)
            a_members.add(v)
            alive.discard(v)
            alive -= nbr_set(g, v)
        astar_members, alive = set(), set(range(n))
        while alive:
            v = max(alive)
            astar_members.add(v)
            alive.discard(v)
            alive -= nbr_set(g, v)
        a = Solution.of(g, a_members)
        astar = Solution.of(g, astar_members)
        rep = certify_local_optimum(a, astar, PARAMS)
        assert rep.identity_ok
        assert rep.pointwise_ok

    run()


def test_neighborhood_bound_lemma_shape():
    for seed in range(10):
        inst = gen_random_packing(11, 3, 9, seed=90 + seed)
        g = build_conflict_graph(inst)
        a = squareimp(g, SolverConfig(mode="squareimp")).final
        opt = exact_mwis(g)
        rep = certify_local_optimum(a, opt.best, PARAMS)
        assert rep.neighborhood_bound_ok


def test_analysis_params_guard():
    with pytest.raises(InputError):
        AnalysisParams.from_delta(Fraction(2))
    p = AnalysisParams.from_delta(Fraction(1, 2))
    assert p.d_delta == 1_600_001
    custom = AnalysisParams.from_delta(Fraction(1, 2), eps_prime=Fraction(1, 5))
    assert (custom.eps_tilde, custom.eps_prime) == (Fraction(1, 4), Fraction(1, 5))
    for eps_prime in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(1)):
        with pytest.raises(InputError):
            AnalysisParams.from_delta(Fraction(1, 2), eps_prime=eps_prime)


# --- Differential test against the Fraction certificate -------------------
#
# ref_* below are verbatim copies of the Fraction-arithmetic certificate that
# the integer layer replaced (and of the Fraction `surd_cmp` it called), with
# test-local copies of the N(u,A) and anchor lookups they read, over the
# anchors of `ref_anchors`. The integer certificate, which reads the
# solution's heaviest-first N(u, A) table, must reproduce every reported
# value, class and flag.


def _solution_neighbors(g, a, maps, u):
    return (u,) if u in a.members else maps.a_neighbors[u]


def _anchor(g, a, maps, u):
    return u if u in a.members else maps.heaviest[u]


def _ref_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def ref_surd_cmp(a: Fraction, b: Fraction, q: Fraction, x: Fraction) -> int:
    """Sign of (a + b*sqrt(q)) - x, exactly; requires q >= 0."""
    if q < 0:
        raise ValueError("q must be non-negative")
    t = x - a
    if b == 0 or q == 0:
        return _ref_sign(-t)
    if b > 0:
        if t < 0:
            return 1
        if t == 0:
            return 1
        return _ref_sign(b * b * q - t * t)
    if t > 0:
        return -1
    if t == 0:
        return -1
    return _ref_sign(t * t - b * b * q)


def ref_compute_charges(g, a, astar, maps):
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
        charge = g.weights[u] - w_of(g, nbrs) / 2
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
    total = sum((w_of(g, _solution_neighbors(g, a, maps, u)) / 2 for u in astar.members), Fraction(0))
    total += sum((report.charges[u][1] for u in astar.members), Fraction(0))
    report.identity_ok = total == astar.total_w
    return report


def ref_compute_contributions(g, a, astar, maps):
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


def ref_classify_one(g, a, maps, params, u):
    surd_cmp = ref_surd_cmp
    w = g.weights
    eps_p = params.eps_prime
    nbrs = _solution_neighbors(g, a, maps, u)
    v1 = _anchor(g, a, maps, u)
    wn = w_of(g, nbrs)
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


def ref_certify(g, a, astar, params):
    maps = ref_anchors(g, a)
    report = ref_compute_charges(g, a, astar, maps)
    contrib = ref_compute_contributions(g, a, astar, maps)
    report.contributions = contrib.contributions
    report.contr_sum = contrib.contr_sum
    report.contribution_bound_ok = contrib.contribution_bound_ok
    unclassified = []
    for u in sorted(astar.members):
        tags = ref_classify_one(g, a, maps, params, u)
        report.classes[u] = tags
        if not tags:
            unclassified.append(u)
    report.unclassified = tuple(unclassified)
    report.classification_ok = not unclassified
    d_eff = g.d
    if d_eff is not None:
        nb_total = sum(
            (w_of(g, _solution_neighbors(g, a, maps, u)) / 2 for u in astar.members),
            Fraction(0),
        )
        report.neighborhood_bound_ok = nb_total <= Fraction(d_eff - 1, 2) * a.total_w
        report.ratio_ok = astar.total_w <= Fraction(d_eff, 2) * a.total_w
        report.classification_hypothesis_met = d_eff >= params.d_delta
    return report


FLAGS = (
    "charge_bound_ok",
    "contribution_bound_ok",
    "pointwise_ok",
    "identity_ok",
    "neighborhood_bound_ok",
    "ratio_ok",
    "classification_ok",
    "classification_hypothesis_met",
)

# custom thresholds whose square roots are rational, so ratio tests can tie:
# sqrt(1/10000) = 1/100 (the default), sqrt(2 * 1/8) = 1/2, sqrt(1/4) = 1/2
TIE_PARAMS = (
    PARAMS,
    AnalysisParams.from_delta(Fraction(1, 2), eps_prime=Fraction(1, 8)),
    AnalysisParams.from_delta(Fraction(1, 2), eps_prime=Fraction(1, 4)),
)


def assert_same_certificate(g, a, astar, params, d=None):
    """Integer certificate == Fraction reference: values, classes, flags and
    JSON bytes. A given `d` replaces the graph's claw bound."""
    if d is not None:
        g = dataclasses.replace(g, d=d)
        a, astar = Solution(g, a.members), Solution(g, astar.members)
    got = certify_local_optimum(a, astar, params)
    ref = ref_certify(g, a, astar, params)
    assert got.charges == ref.charges
    assert got.charge_sum_pos == ref.charge_sum_pos
    assert got.t_sets == ref.t_sets
    assert got.contributions == ref.contributions
    assert got.contr_sum == ref.contr_sum
    assert got.classes == ref.classes
    assert got.unclassified == ref.unclassified
    for flag in FLAGS:
        assert getattr(got, flag) == getattr(ref, flag), flag
    assert json.dumps(got.to_json_obj()) == json.dumps(ref.to_json_obj())
    assert got.all_bounds_ok() == ref.all_bounds_ok()
    return got


def random_maximal(g, rng) -> Solution:
    order = list(range(g.n))
    rng.shuffle(order)
    chosen, blocked = set(), set()
    for v in order:
        if v not in blocked:
            chosen.add(v)
            blocked |= nbr_set(g, v) | {v}
    return Solution.of(g, chosen)


def random_graph(rng, n, weights, d=None) -> ConflictGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    return ConflictGraph.from_edges(n, edges, weights, d=d)


def certify_pairs(g, rng):
    """Incumbent/reference pairs: random maximal sets (rarely claw fixed
    points), a squareimp fixed point, and the optimum as either side."""
    opt = exact_mwis(g).best
    fixed = squareimp(g, SolverConfig(mode="squareimp", d=g.n + 1)).final
    pairs = [(random_maximal(g, rng), random_maximal(g, rng)) for _ in range(3)]
    pairs += [(random_maximal(g, rng), opt), (fixed, opt), (opt, opt), (opt, fixed)]
    return pairs


@pytest.mark.parametrize("seed", range(12))
def test_integer_certificate_matches_fraction_prime_weights(seed):
    rng = random.Random(seed)
    pw = PrimeWeights(rng)
    n = rng.randint(5, 12)
    weights = [pw.magnitude(rng.randint(-60, 60)) for _ in range(n)]
    # d from the graph, given explicitly, and absent
    for d_graph, d_arg in ((n, None), (None, 4), (None, None)):
        g = random_graph(rng, n, weights, d=d_graph)
        for a, astar in certify_pairs(g, rng):
            rep = assert_same_certificate(g, a, astar, PARAMS, d_arg)
            assert (rep.ratio_ok is None) == (d_graph is None and d_arg is None)


def test_integer_certificate_matches_fraction_planted_ties():
    # weights from a tie-friendly set times one big prime-denominator scale:
    # ratios such as 99/100, 101/100, 199/100 and 5/2 sit exactly on the
    # surd thresholds, and equal or halved weights give zero charges and
    # tight pointwise and contribution bounds
    base = [1, 2, 3, 4, 25, 28, 50, 99, 100, 101, 150, 198, 199, 200, 202, 10000, 20001]
    spy_hits = {"zero": 0}
    real = certify.surd_sign

    def counting(*args):
        s = real(*args)
        spy_hits["zero"] += s == 0
        return s

    failing = set()
    with mock.patch.object(certify, "surd_sign", counting):
        for seed in range(40):
            rng = random.Random(1000 + seed)
            scale = PrimeWeights(rng).magnitude(rng.randint(-60, 60))
            n = rng.randint(3, 9)
            weights = [rng.choice(base) * scale for _ in range(n)]
            g = random_graph(rng, n, weights, d=n + 1)
            for a, astar in certify_pairs(g, rng):
                for params in TIE_PARAMS:
                    for d in (None, 3):
                        rep = assert_same_certificate(g, a, astar, params, d)
                        failing |= {flag for flag in FLAGS[:6] if getattr(rep, flag) is False}
    assert spy_hits["zero"] > 0  # some surd threshold was hit exactly
    # non-fixed-point incumbents make the bounds fail, and identically so
    assert {"charge_bound_ok", "contribution_bound_ok", "ratio_ok", "neighborhood_bound_ok"} <= failing


def star(w_u, nbr_weights, scale=1):
    """Reference vertex 0 whose incumbent neighbors carry nbr_weights."""
    n = 1 + len(nbr_weights)
    weights = [Fraction(x) * scale for x in [w_u] + list(nbr_weights)]
    g = ConflictGraph.from_edges(n, [(0, i) for i in range(1, n)], weights, d=6)
    return g, Solution.of(g, set(range(1, n))), Solution.of(g, {0})


@pytest.mark.parametrize(
    "w_u, nbrs, params, tag, expect",
    [
        (99, [100], PARAMS, "single", True),  # w(u)/w(v1) = 1 - sqrt(eps')
        (101, [100], PARAMS, "single", True),  # w(u)/w(v1) = 1 + sqrt(eps')
        (100, [100, 1], PARAMS, "single", True),  # w(N)/w(v1) = 1 + sqrt(eps')
        (100, [100, 99], PARAMS, "double", True),  # w(v2)/w(v1), w(N)/w(v1) on their thresholds
        (10000, [10000, 10001], PARAMS, "payback", True),  # w(N) = (2 + eps') w(u)
        (2, [3, 2], TIE_PARAMS[1], "good", True),  # w(N)/w(u) = 2 + sqrt(2 eps')
        (4, [28, 3], TIE_PARAMS[1], "contributive", True),  # contr(u, v1) = (eps'/2) w(u)
        (1, [1, 1], PARAMS, "contributive", False),  # zero charge, zero contribution
    ],
)
def test_planted_threshold_ties(w_u, nbrs, params, tag, expect):
    for scale in (1, Fraction(2**61 + 1, 2**61 - 1)):
        g, a, astar = star(w_u, nbrs, scale)
        rep = assert_same_certificate(g, a, astar, params)
        assert (tag in rep.classes[0]) == expect


def test_planted_charge_and_bound_ties():
    # charge exactly 0: w(N(u,A)) = 2 w(u)
    g, a, astar = star(Fraction(3, 7), [Fraction(4, 7), Fraction(2, 7)])
    rep = assert_same_certificate(g, a, astar, PARAMS)
    assert rep.charges[0] == (1, 0) and rep.t_sets[1] == ()
    # gap exactly 2 charge w(anchor): one neighbor of equal weight
    g, a, astar = star(Fraction(5, 11), [Fraction(5, 11)])
    rep = assert_same_certificate(g, a, astar, PARAMS)
    assert rep.charges[0] == (1, Fraction(5, 22)) and rep.pointwise_ok
    # contr_sum exactly w(v) and charge sums exactly w(v)/2 at the tight family
    for d in (3, 4, 5):
        g, a, b = gen_berman_tight(d)
        rep = assert_same_certificate(g, a, b, PARAMS)
        assert all(rep.contr_sum[v] == g.weights[v] for v in a.members)
        assert rep.contribution_bound_ok and rep.ratio_ok


def test_surd_sign_matches_fraction_surd_cmp():
    # surd_sign on a, b, x scaled by their common denominator, q as a ratio
    rng = random.Random(5)
    values = [Fraction(x, y) for x in range(-6, 7) for y in (1, 2, 3, 10, 100)]
    qs = [Fraction(0), Fraction(1, 4), Fraction(1, 10000), Fraction(2), Fraction(9, 4)]
    qs += [v for v in values if v > 0]
    ties = 0
    for _ in range(3000):
        a, b, x, q = rng.choice(values), rng.choice(values), rng.choice(values), rng.choice(qs)
        den = math.lcm(a.denominator, b.denominator, x.denominator)
        a_, b_, x_ = (int(v * den) for v in (a, b, x))
        got = surd_sign(a_, b_, q.numerator, q.denominator, x_)
        assert got == ref_surd_cmp(a, b, q, x), (a, b, q, x)
        ties += got == 0
    assert ties > 0
    with pytest.raises(ValueError):
        surd_sign(1, 1, -1, 2, 0)


def test_certificate_layers_build_fractions_only_for_report_fields():
    rng = random.Random(3)
    pw = PrimeWeights(rng)
    weights = [pw.magnitude(rng.randint(-60, 60)) for _ in range(12)]
    g = random_graph(rng, 12, weights, d=5)
    a = squareimp(g, SolverConfig(mode="squareimp")).final
    astar = exact_mwis(g).best
    g.w2_int  # built outside the profiled call
    layers = {
        certify.certify_local_optimum.__code__: "certify_local_optimum",
        certify._class_tags.__code__: "_class_tags",
        # d_delta's own rational arithmetic is not the certificate's
        AnalysisParams.d_delta.fget.__code__: None,
    }
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.endswith("fractions.py"):
            return
        caller = frame.f_back
        while caller is not None and caller.f_code not in layers:
            caller = caller.f_back
        if caller is not None and layers[caller.f_code] is not None:
            calls[(layers[caller.f_code], frame.f_code.co_name)] += 1

    sys.setprofile(profile)
    try:
        rep = certify_local_optimum(a, astar, PARAMS)
    finally:
        sys.setprofile(None)
    assert rep.all_bounds_ok()
    fields = (rep.charges, rep.charge_sum_pos, rep.contributions, rep.contr_sum)
    assert calls.pop(("certify_local_optimum", "__new__")) == sum(map(len, fields))
    # numerator and denominator are read once each, of eps'
    assert calls == {("certify_local_optimum", "numerator"): 1, ("certify_local_optimum", "denominator"): 1}


# --- Berman's d/2 guarantee at squareimp fixed points ---------------------


@pytest.mark.parametrize("d", range(3, 8))
def test_squareimp_meets_d_over_2_on_tight_family(d):
    g = build_conflict_graph(berman_tight_instance(d))
    opt = exact_mwis(g)
    for start in (None, Solution.of(g, range(d - 1))):
        final = squareimp(g, SolverConfig(mode="squareimp"), start).final
        rep = certify_local_optimum(final, opt.best, PARAMS)
        assert rep.ratio_ok and rep.neighborhood_bound_ok
        assert opt.optimum_w <= Fraction(d, 2) * final.total_w
        if start is not None:  # the small side is a fixed point, and tight
            assert opt.optimum_w == Fraction(d, 2) * final.total_w


@pytest.mark.parametrize("seed", range(8))
def test_squareimp_meets_d_over_2_on_random_k3(seed):
    inst = gen_random_packing(18, 3, 12, seed=300 + seed)
    g = build_conflict_graph(inst)
    assert g.d == 4
    opt = exact_mwis(g)
    final = squareimp(g, SolverConfig(mode="squareimp")).final
    rep = certify_local_optimum(final, opt.best, PARAMS)
    assert rep.ratio_ok and rep.neighborhood_bound_ok
    assert opt.optimum_w <= 2 * final.total_w


def test_certify_rejects_a_reference_over_another_graph():
    """The certificate weighs the reference's members with the incumbent's
    graph: a reference over a copy of that graph, even an equal one, is a
    `ContractError`, and one over a reweighted copy would be read with the
    wrong weights."""
    g, a, astar = gen_berman_tight(4)
    assert certify_local_optimum(a, astar, PARAMS).all_bounds_ok()
    for weights in (g.weights, [2 * w for w in g.weights]):
        with pytest.raises(ContractError, match="another graph"):
            certify_local_optimum(a, Solution.of(g.reweighted(weights), astar.members), PARAMS)
