import math
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import claw_search, gen_berman_tight

from clawpack import formats
from clawpack.generators import (
    LowerBoundParams,
    berman_tight_instance,
    complete_bipartite,
    complete_graph,
    gen_alternating_cycle,
    gen_high_girth_regular,
    gen_incidence_lowerbound,
    gen_random_packing,
    girth,
    petersen_graph,
    projective_plane_incidence,
)
from clawpack.instances import ConflictGraph, InputError, build_conflict_graph, verify_claw_free
from clawpack.oracle import exhaustive_improvement_search


@pytest.mark.parametrize("d,b_size,ratio", [(4, 6, 2), (6, 15, 3)])
def test_berman_counts(d, b_size, ratio):
    g, a, b = gen_berman_tight(d)
    assert len(a) == d - 1
    assert len(b) == b_size == (d - 1) + math.comb(d - 1, 2)
    assert b.total_w / a.total_w == ratio


@pytest.mark.parametrize("d", [4, 5, 6])
def test_berman_structure(d):
    g, a, b = gen_berman_tight(d)
    assert all(g.degree(v) == d - 1 for v in a.members)
    assert g.is_independent(b.members)
    assert claw_search(g, a) is None
    ok, _ = verify_claw_free(g, d)
    assert ok


def test_berman_packing_round_trip():
    inst = berman_tight_instance(5)
    assert formats.parse_text(formats.to_text(inst)) == inst
    g = build_conflict_graph(inst)
    assert g.d == 5


def test_alternating_cycle_ratio_formula():
    g, a, astar = gen_alternating_cycle(4, 5, Fraction(1, 2))
    assert astar.total_w / a.total_w == Fraction(7, 4)
    assert all(g.degree(v) == 2 for v in range(g.n))


def test_alternating_cycle_validation():
    with pytest.raises(InputError):
        gen_alternating_cycle(1, 4, Fraction(1, 2))
    with pytest.raises(InputError):
        gen_alternating_cycle(3, 3, Fraction(1, 2))
    with pytest.raises(InputError):
        gen_alternating_cycle(3, 4, Fraction(2))


def test_girth_values():
    tree = ConflictGraph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)], [1] * 5)
    assert girth(tree) == math.inf
    c7 = ConflictGraph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)], [1] * 7)
    assert girth(c7) == 7
    assert girth(petersen_graph()) == 5
    assert girth(projective_plane_incidence(2)) == 6
    assert girth(complete_graph(4)) == 3
    assert girth(complete_bipartite(3)) == 4


def test_projective_plane_orders():
    for q in (2, 3, 5):
        g = projective_plane_incidence(q)
        assert g.n == 2 * (q * q + q + 1)
        assert all(g.degree(v) == q + 1 for v in range(g.n))
        assert girth(g) == 6
    with pytest.raises(InputError):
        projective_plane_incidence(4)


@pytest.mark.parametrize(
    "k,l,expect_n",
    [(3, 3, 4), (3, 4, 6), (3, 5, 10), (3, 6, 14), (4, 5, 26), (6, 5, 2 * 31)],
)
def test_high_girth_catalog(k, l, expect_n):
    g = gen_high_girth_regular(k, l, seed=0)
    assert g.n == expect_n
    assert all(g.degree(v) == k for v in range(g.n))
    assert girth(g) >= l


def test_high_girth_pairing_sampler():
    # bypass the catalog so the rejection sampler actually runs
    g = gen_high_girth_regular(3, 5, seed=3, catalog=False)
    assert all(g.degree(v) == 3 for v in range(g.n))
    assert girth(g) >= 5
    assert 5 <= g.n <= 4 * (3 - 1) ** 4


def test_high_girth_deterministic_per_seed():
    g1 = gen_high_girth_regular(3, 5, seed=9, catalog=False)
    g2 = gen_high_girth_regular(3, 5, seed=9, catalog=False)
    assert g1.adj == g2.adj
    assert gen_high_girth_regular(5, 4, seed=1).n == 10  # catalog path


def test_lowerbound_petersen_exact_ratio():
    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    assert params.eps_prime_d() == Fraction(1, 6)
    assert params.eps_d_value() == Fraction(1, 6)
    g, a, astar = gen_incidence_lowerbound(params, petersen_graph())
    assert g.n == 25
    assert astar.total_w / a.total_w == Fraction(5, 4)
    degs = [g.degree(v) for v in range(g.n)]
    assert min(degs) == 2 and max(degs) == 3
    assert g.is_independent(a.members) and g.is_independent(astar.members)


def test_lowerbound_edge_weights_in_unit_interval():
    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    g, a, astar = gen_incidence_lowerbound(params, petersen_graph())
    ws = {g.weights[v] for v in astar.members}
    assert len(ws) == 1
    (w,) = ws
    assert 0 < w < 1


def test_lowerbound_forest_property_below_girth():
    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    g, a, astar = gen_incidence_lowerbound(params, petersen_graph())
    estar = sorted(astar.members)
    # strict below the girth: every edge-side subset expands
    for size in range(1, 5):
        for combo in combinations(estar, size):
            nb = set()
            for e in combo:
                nb |= g.adj_sets[e]
            assert len(nb) > len(combo)
    # sharp at the girth: a pentagon's edges cover exactly five vertices
    tight = [
        combo
        for combo in combinations(estar, 5)
        if len(set().union(*(g.adj_sets[e] for e in combo))) == 5
    ]
    assert tight


def test_lowerbound_no_small_improvement():
    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    g, a, _ = gen_incidence_lowerbound(params, petersen_graph())
    assert exhaustive_improvement_search(g, a, Fraction(1), 4) is None


def test_lowerbound_preconditions():
    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=7)
    with pytest.raises(InputError):
        gen_incidence_lowerbound(params, petersen_graph())  # girth 5 < 7
    params2 = LowerBoundParams(d=5, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    with pytest.raises(InputError):
        gen_incidence_lowerbound(params2, petersen_graph())  # not 4-regular


def test_lowerbound_eps_d_validation():
    with pytest.raises(InputError):
        LowerBoundParams(
            d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5, eps_d=Fraction(2, 7)
        ).eps_d_value()
    with pytest.raises(InputError):
        LowerBoundParams(
            d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5, eps_d=Fraction(1, 5)
        ).eps_d_value()  # 1/5 > eps'_d = 1/6


def test_random_packing_reproducible_bytes():
    a = formats.to_text(gen_random_packing(12, 3, 9, seed=5))
    b = formats.to_text(gen_random_packing(12, 3, 9, seed=5))
    assert a == b
    c = formats.to_text(gen_random_packing(12, 3, 9, seed=6))
    assert a != c


def test_random_packing_shapes():
    inst = gen_random_packing(12, 3, 9, seed=1)
    assert all(1 <= len(s) <= 3 for s in inst.sets)
    assert inst.k == 3 and inst.universe_size == 9


def test_random_packing_conflict_graph_claw_free():
    for seed in range(4):
        inst = gen_random_packing(9, 3, 8, seed=seed)
        g = build_conflict_graph(inst)
        ok, _ = verify_claw_free(g, inst.k + 1)
        assert ok


def test_random_packing_near_unit_weights_positive():
    inst = gen_random_packing(20, 3, 9, weight_dist=("near-unit", Fraction(1, 10)), seed=2)
    assert all(w > 0 for w in inst.weights)
    assert all(abs(w - 1) <= Fraction(1, 10) for w in inst.weights)
