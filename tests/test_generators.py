import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from click.testing import CliRunner
from conftest import claw_search, gen_berman_tight, nbr_set, verify_claw_free

from clawpack import formats, generators
from clawpack.cli import main
from clawpack.generators import (
    LowerBoundParams,
    berman_tight_instance,
    complete_bipartite,
    complete_graph,
    edge_side_weight,
    gen_alternating_cycle,
    gen_high_girth_regular,
    gen_incidence_lowerbound,
    gen_random_packing,
    girth,
    petersen_graph,
    projective_plane_incidence,
)
from clawpack.instances import ConflictGraph, InputError, PackingInstance, build_conflict_graph
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
    assert claw_search(a) is None
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


@pytest.mark.parametrize("q", [-1, 0, 1, 4, 6])
def test_projective_plane_rejects_orders_that_are_not_prime(q):
    with pytest.raises(InputError, match="not prime"):
        projective_plane_incidence(q)


@pytest.mark.parametrize(
    "k,l,expect_n",
    [(3, 3, 4), (3, 4, 6), (3, 5, 10), (3, 6, 14), (4, 5, 26), (5, 4, 10), (6, 5, 2 * 31)],
)
def test_high_girth_catalog(k, l, expect_n):
    g = gen_high_girth_regular(k, l)
    assert g.n == expect_n
    assert all(g.degree(v) == k for v in range(g.n))
    assert girth(g) >= l


@pytest.mark.parametrize("k,l", [(3, 7), (3, 8), (4, 7), (5, 5), (5, 6), (7, 5)])
def test_high_girth_outside_the_catalog_is_an_input_error(k, l):
    with pytest.raises(InputError, match="catalog"):
        gen_high_girth_regular(k, l)


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
                nb |= nbr_set(g, e)
            assert len(nb) > len(combo)
    # sharp at the girth: a pentagon's edges cover exactly five vertices
    tight = [
        combo
        for combo in combinations(estar, 5)
        if len(set().union(*(nbr_set(g, e) for e in combo))) == 5
    ]
    assert tight


def test_lowerbound_no_small_improvement():
    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    g, a, _ = gen_incidence_lowerbound(params, petersen_graph())
    assert exhaustive_improvement_search(a, Fraction(1), 4) is None


def test_lowerbound_preconditions():
    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=7)
    with pytest.raises(InputError):
        gen_incidence_lowerbound(params, petersen_graph())  # girth 5 < 7
    params2 = LowerBoundParams(d=5, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    with pytest.raises(InputError):
        gen_incidence_lowerbound(params2, petersen_graph())  # not 4-regular


# sha1 of `gen lowerbound --d 4 --eps 1/2 --girth 5` for non-integer alpha,
# recorded while both irrational weights were still computed with 200-bit
# mpmath: the integer roots must floor onto the same grids. 1/alpha is
# non-integer for 2/3, 3/2 and 5/3, so those also take the root branch of
# edge_side_weight.
LOWERBOUND_SHA1 = {
    ("1/2", None): "ad5540a5d017f253a17a27fa35a236713e80f9df",
    ("1/2", "1/20"): "39b96a927a445d0a3d55edf4c1c2eb4f112c7a17",
    ("2/3", None): "304ba60491f411e423f2600c9cb9cc7b92f7d380",
    ("2/3", "1/20"): "8622450ada139e32a539b926537207b6c6948112",
    ("3/2", None): "d729d8af50448d106fab7941c4970546a0fe260b",
    ("3/2", "1/20"): "dd17cb5e23c9a36be2120d21bc6e3e69c4efe110",
    ("5/3", None): "98da3df2de68e1432998c74266e7ed2b57efe07f",
    ("5/3", "1/20"): "c9093c1b999c86c6a465d537e0ef43b58d164d6c",
}


@pytest.mark.parametrize("alpha,eps_d", sorted(LOWERBOUND_SHA1, key=str))
def test_lowerbound_non_integer_alpha_output_is_pinned(tmp_path, alpha, eps_d):
    out = tmp_path / "lb.mwis"
    args = ["gen", "lowerbound", "--d", "4", "--alpha", alpha, "--eps", "1/2", "--girth", "5"]
    args += (["--eps-d", eps_d] if eps_d else []) + ["--out", str(out)]
    r = CliRunner().invoke(main, args, catch_exceptions=False)
    assert r.exit_code == 0, r.output
    assert hashlib.sha1(out.read_bytes()).hexdigest() == LOWERBOUND_SHA1[alpha, eps_d]


@pytest.mark.parametrize("alpha", ["1/2", "2/3", "3/2", "5/3", "3/7", "8/5"])
@pytest.mark.parametrize("d,eps", [(4, "1/2"), (5, "1/3"), (11, "7/8")])
def test_lowerbound_irrational_weights_are_floors_on_their_grids(d, eps, alpha):
    params = LowerBoundParams(d=d, alpha=Fraction(alpha), eps=Fraction(eps), target_girth=5)
    p, q = params.alpha.numerator, params.alpha.denominator
    # eps'_d = 1 - c / 2**80 with (c - 1) / 2**80 < base**alpha <= c / 2**80
    c = (1 - params.eps_prime_d()) * 2 ** 80
    assert c.denominator == 1
    base = 1 - params.eps / (d - 1)
    assert ((c - 1) / 2 ** 80) ** q < base ** p <= (c / 2 ** 80) ** q
    # the edge side's (1 - eps_d)**(q/p): exact for p = 1, otherwise
    # w / 2**60 rounded down
    base = 1 - params.eps_d_value()
    if p == 1:
        assert edge_side_weight(params) == base ** q
        return
    w = edge_side_weight(params) * 2 ** 60
    assert w.denominator == 1
    assert (w / 2 ** 60) ** p <= base ** q < ((w + 1) / 2 ** 60) ** p


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


def reference_random_packing(n_sets, k, universe, weight_dist, seed):
    """`gen_random_packing`'s body before its draws were inlined: the sets,
    the weights and the generator after the last draw."""
    kind, param = weight_dist
    rng = random.Random(seed)
    sets, weights = [], []
    for _ in range(n_sets):
        size = rng.randint(1, k)
        sets.append(sorted(rng.sample(range(universe), size)))
        if kind == "uniform":
            weights.append(Fraction(rng.randint(1, int(param))))
        else:
            weights.append(1 + Fraction(param) * Fraction(rng.randint(-100, 100), 100))
    return sets, weights, rng


# `sample` keeps a pool list up to a population of 21 for a sample of at
# most 5 and of 85 for one of 6 or 7, and a set of picks above that
@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7])
@pytest.mark.parametrize("universe", [7, 21, 22, 85, 86, 300])
@pytest.mark.parametrize("weight_dist", [("uniform", 10), ("uniform", 1), ("near-unit", Fraction(1, 20))])
def test_random_packing_keeps_the_randint_and_sample_stream(k, universe, weight_dist):
    top = int(weight_dist[1]) if weight_dist[0] == "uniform" else 201
    for seed in range(3):
        sets, weights, ref = reference_random_packing(40, k, universe, weight_dist, seed)
        inst = gen_random_packing(40, k, universe, weight_dist, seed)
        assert [sorted(s) for s in inst.sets] == sets
        assert list(inst.weights) == weights
        # each set is the drawn sorted list, as a tuple
        assert inst.sets == tuple(map(tuple, sets))
        ours = random.Random(seed)
        drawn, picks = generators._draw_packing(ours, 40, k, universe, top)
        assert drawn == sets
        assert ours.getstate() == ref.getstate()
        if weight_dist[0] == "uniform":
            assert [Fraction(j + 1) for j in picks] == weights


# the sample branches as above: a pool up to 21 (85 for a sample of 6 or 7)
@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("weight_dist", [("uniform", 10), ("near-unit", Fraction(19, 20))])
def test_random_packing_passes_the_public_constructors_checks(k, weight_dist):
    """`gen_random_packing` skips the instance's checks; the public
    constructor and `PackingInstance.build` accept what it draws as is."""
    for universe in (7, 21, 22, 85, 86, 300):
        for seed in range(3):
            inst = gen_random_packing(40, k, universe, weight_dist, seed)
            assert PackingInstance(inst.universe_size, inst.sets, inst.weights, inst.k) == inst
            assert PackingInstance.build(inst.universe_size, inst.sets, inst.weights, inst.k) == inst


def test_generator_graphs_pass_the_public_constructors_checks():
    """`from_edges` skips the structural pass; the public constructor
    accepts every generator's graph as is."""
    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    graphs = [
        gen_alternating_cycle(4, 5, Fraction(1, 3))[0],
        petersen_graph(),
        complete_graph(5),
        complete_bipartite(3),
        projective_plane_incidence(3),
        gen_high_girth_regular(4, 6),
        gen_incidence_lowerbound(params, petersen_graph())[0],
        build_conflict_graph(berman_tight_instance(6)),
    ]
    for g in graphs:
        assert ConflictGraph(g.n, g.adj, g.weights, g.d) == g


@pytest.mark.parametrize("weight_dist, message", [
    (("uniform", 0), "uniform weights need W >= 1, got 0"),
    (("near-unit", 1), "near-unit eta must lie in (0,1)"),
    (("normal", 1), "unknown weight distribution 'normal'"),
])
def test_random_packing_rejects_a_bad_weight_law(weight_dist, message):
    with pytest.raises(InputError) as exc:
        gen_random_packing(5, 3, 9, weight_dist=weight_dist)
    assert str(exc.value) == message
