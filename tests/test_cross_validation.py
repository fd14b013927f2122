"""Cross-route checks: every search result is re-derived by an independent
brute-force path on small seeded instances."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    brute_force_mwis,
    charge_to_anchor,
    circular_improvement_exists_bruteforce,
    circular_state,
    claw_search,
)

from clawpack.circular import (
    ColorCodingParams,
    build_anchor_maps,
    build_aux_graph,
    find_circular_improvement,
    run_color_coding,
    validate_circular,
)
from clawpack.generators import gen_random_packing, girth, petersen_graph
from clawpack.instances import ConflictGraph, Solution, build_conflict_graph, verify_claw_free
from clawpack.oracle import exact_mwis
from clawpack.solvers import SolverConfig, logimp, solve


@pytest.mark.parametrize("seed", range(20))
def test_logimp_fixed_points_admit_no_circular_improvement(seed):
    # the strongest pipeline check: after termination, independent brute
    # force over all cycle-decomposable sets confirms the fixed point
    dist = ("uniform", 6) if seed % 2 == 0 else ("near-unit", Fraction(1, 8))
    inst = gen_random_packing(9 + seed % 3, 3, 8, weight_dist=dist, seed=400 + seed)
    g = build_conflict_graph(inst)
    tr = logimp(g, SolverConfig(mode="logimp"), inst=inst)
    a = tr.final
    assert claw_search(g, a) is None
    maps = build_anchor_maps(g, a)
    assert find_circular_improvement(circular_state(g, a), a) is None
    assert not circular_improvement_exists_bruteforce(g, a, maps, d=g.d)


@pytest.mark.parametrize("seed", range(12))
def test_circular_search_existence_matches_bruteforce_at_claw_fixed_points(seed):
    inst = gen_random_packing(10, 3, 8, weight_dist=("near-unit", Fraction(1, 6)), seed=700 + seed)
    g = build_conflict_graph(inst)
    from clawpack.solvers import squareimp

    a = squareimp(g, SolverConfig(mode="squareimp")).final
    maps = build_anchor_maps(g, a)
    got = find_circular_improvement(circular_state(g, a), a)
    expect = circular_improvement_exists_bruteforce(g, a, maps, d=g.d)
    assert (got is not None) == expect
    if got is not None:
        assert validate_circular(g, a, maps, got, d=g.d)


def four_cycle_instance():
    """Four 3-element solution sets in a ring: connectors P_i touch the b/a
    parts of consecutive sets, companions C_i the m part, so the shortest
    improving structure is a 4-cycle of connectors with all companions."""
    from clawpack.instances import PackingInstance

    def a_el(i):
        return 3 * i

    def b_el(i):
        return 3 * i + 1

    def m_el(i):
        return 3 * i + 2

    solution = [[a_el(i), b_el(i), m_el(i)] for i in range(4)]
    connectors = [[b_el(i), a_el((i + 1) % 4)] for i in range(4)]
    companions = [[m_el(i), 12 + i] for i in range(4)]
    sets = solution + connectors + companions
    weights = [Fraction(1)] * 8 + [Fraction(9, 10)] * 4
    return PackingInstance.build(16, sets, weights, k=3)


def test_weighted_four_cycle_improvement():
    inst = four_cycle_instance()
    g = build_conflict_graph(inst)
    a = Solution.of(g, {0, 1, 2, 3})
    assert claw_search(g, a) is None
    maps = build_anchor_maps(g, a)
    got = find_circular_improvement(circular_state(g, a), a)
    assert got is not None
    assert len(got.kind.u) == 4
    assert got.x == frozenset(range(4, 12))
    assert validate_circular(g, a, maps, got, d=g.d)
    assert circular_improvement_exists_bruteforce(g, a, maps, d=g.d)
    # the randomized route finds the same structure
    params = ColorCodingParams(t=32, repetitions=64, mode="rand")
    state = circular_state(g, a, params, inst)
    rnd = run_color_coding(state, a, build_aux_graph(state, a))
    assert rnd is not None and validate_circular(g, a, maps, rnd, d=g.d)
    # and the whole solver converges past the ring
    tr = logimp(g, SolverConfig(mode="logimp"), start=a, inst=inst)
    assert tr.final.total_w == 4 + 4 * Fraction(9, 10)


def test_companion_restriction_gap_is_detectable():
    """The restricted auxiliary graph only offers positively charged
    companions; a ring whose companions charge exactly zero demonstrates the
    documented gap: brute force over unrestricted companion sets finds a
    cycle-decomposable improvement the restricted search cannot see."""
    from clawpack.instances import PackingInstance

    solution = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(4)]
    connectors = [[3 * i + 1, 3 * ((i + 1) % 4)] for i in range(4)]
    companions = [[3 * i + 2, 12 + i] for i in range(4)]
    weights = [Fraction(1)] * 8 + [Fraction(1, 2)] * 4
    inst = PackingInstance.build(16, solution + connectors + companions, weights, k=3)
    g = build_conflict_graph(inst)
    a = Solution.of(g, {0, 1, 2, 3})
    assert claw_search(g, a) is None
    maps = build_anchor_maps(g, a)
    # companions charge exactly zero: outside the candidate filter
    assert all(charge_to_anchor(g, maps, c) == 0 for c in range(8, 12))
    got = find_circular_improvement(circular_state(g, a), a)
    assert got is None
    assert not circular_improvement_exists_bruteforce(g, a, maps, d=g.d, positive_only=True)
    assert circular_improvement_exists_bruteforce(g, a, maps, d=g.d)
    # the restricted search is still complete for its own candidate class


@pytest.mark.parametrize("seed", range(8))
def test_girth_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    edges = set()
    for _ in range(rng.randint(3, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = ConflictGraph.from_edges(n, sorted(edges), [1] * n)

    def brute_girth():
        best = float("inf")
        for size in range(3, n + 1):
            for combo in combinations(range(n), size):
                # does the combo support a cycle visiting exactly these vertices?
                for perm in _cycle_orders(combo):
                    if all(g.has_edge(perm[i], perm[(i + 1) % size]) for i in range(size)):
                        best = min(best, size)
                        break
                if best == size:
                    break
            if best < float("inf"):
                break
        return best

    def _cycle_orders(combo):
        import itertools

        first = combo[0]
        for rest in itertools.permutations(combo[1:]):
            yield (first,) + rest

    assert girth(g) == brute_girth()


@pytest.mark.parametrize("seed", range(6))
def test_verify_claw_free_matches_bruteforce(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(5, 9)
    edges = set()
    for _ in range(rng.randint(4, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = ConflictGraph.from_edges(n, sorted(edges), [1] * n)
    for d in (2, 3, 4):
        ok, witness = verify_claw_free(g, d)
        # the first center, then its lexicographically first talon set
        brute = next(
            (
                (c, combo)
                for c in range(n)
                for combo in combinations(g.adj[c], d)
                if g.is_independent(combo) and all(g.has_edge(c, x) for x in combo)
            ),
            None,
        )
        assert ok == (brute is None)
        assert witness == brute


@pytest.mark.parametrize("mode", ["squareimp", "logimp"])
def test_solver_outputs_bounded_by_bruteforce_optimum(mode):
    for seed in range(6):
        inst = gen_random_packing(10, 3, 8, seed=900 + seed)
        g = build_conflict_graph(inst)
        tr = solve(g, SolverConfig(mode=mode), inst=inst)
        bw, _ = brute_force_mwis(g)
        assert tr.final.total_w <= bw
        assert bw == exact_mwis(g).optimum_w


def test_petersen_incidence_oracle_agrees_with_bruteforce_bound():
    # the incidence graph is too big for full enumeration; check the oracle
    # against the edge-side witness instead
    from clawpack.generators import LowerBoundParams, gen_incidence_lowerbound

    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    g, a, astar = gen_incidence_lowerbound(params, petersen_graph())
    opt = exact_mwis(g)
    assert opt.optimum_w >= astar.total_w
    assert opt.optimum_w == Fraction(25, 2)
