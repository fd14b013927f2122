from fractions import Fraction

import pytest

from conftest import brute_force_improvement_exists, brute_force_mwis

from clawpack.generators import gen_alternating_cycle, gen_berman_tight, gen_random_packing
from clawpack.instances import (
    BudgetExceededError,
    ConflictGraph,
    InputError,
    build_conflict_graph,
)
from clawpack.oracle import exact_mwis, exhaustive_improvement_search, power_weight_improves


def test_single_vertex():
    g = ConflictGraph.from_edges(1, [], [7])
    res = exact_mwis(g)
    assert res.optimum_w == 7 and res.best.members == {0}


def test_single_edge():
    g = ConflictGraph.from_edges(2, [(0, 1)], [3, 5])
    res = exact_mwis(g)
    assert res.optimum_w == 5 and res.best.members == {1}


def test_berman_tight_optimum_matches_brute_force():
    g, _, b = gen_berman_tight(4)
    res = exact_mwis(g)
    bw, bset = brute_force_mwis(g)
    assert res.optimum_w == bw == 6
    assert res.best.members == set(bset) == b.members


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_match_brute_force(seed):
    inst = gen_random_packing(11, 3, 8, weight_dist=("uniform", 7), seed=seed)
    g = build_conflict_graph(inst)
    res = exact_mwis(g)
    bw, _ = brute_force_mwis(g)
    assert res.optimum_w == bw


def test_budget_error_carries_partial():
    g, _, _ = gen_berman_tight(6)
    with pytest.raises(BudgetExceededError) as exc:
        exact_mwis(g, budget=3)
    assert exc.value.partial is not None
    assert not exc.value.partial.optimal


def test_size_limit_guard():
    g = ConflictGraph.from_edges(3, [], [1, 1, 1])
    with pytest.raises(InputError):
        exact_mwis(g, size_limit=2)
    assert exact_mwis(g, size_limit=3).optimum_w == 3


def test_no_improvement_of_optimum_alpha_one():
    inst = gen_random_packing(10, 3, 8, seed=4)
    g = build_conflict_graph(inst)
    res = exact_mwis(g)
    assert exhaustive_improvement_search(g, res.best, Fraction(1), 6) is None


def test_berman_alpha_two_improvement_exists():
    g, a, _ = gen_berman_tight(4)
    imp = exhaustive_improvement_search(g, a, Fraction(2), 6)
    assert imp is not None
    assert g.squared_weight_of(imp.x) > g.squared_weight_of(imp.removed)
    # the full opposite side qualifies as a witness
    b = frozenset(range(3, 9))
    assert g.squared_weight_of(b) == 6 > 3


def test_alternating_cycle_alpha_minus_one_no_improvement():
    g, a, _ = gen_alternating_cycle(4, 4, Fraction(1, 2))
    assert exhaustive_improvement_search(g, a, Fraction(-1), 4) is None


def test_alpha_zero_rejected():
    g, a, _ = gen_berman_tight(4)
    with pytest.raises(InputError):
        exhaustive_improvement_search(g, a, Fraction(0), 3)


@pytest.mark.parametrize("seed", range(6))
def test_search_agrees_with_recursive_enumeration(seed):
    inst = gen_random_packing(12, 3, 9, weight_dist=("near-unit", Fraction(1, 10)), seed=seed)
    g = build_conflict_graph(inst)
    from clawpack.solvers import SolverConfig, squareimp

    a = squareimp(g, SolverConfig(mode="squareimp")).final
    for cap in (2, 3):
        got = exhaustive_improvement_search(g, a, Fraction(2), cap)
        expect = brute_force_improvement_exists(g, a.members, 2, cap)
        assert (got is not None) == expect


def test_non_integer_alpha_uses_tolerant_comparison():
    g = ConflictGraph.from_edges(2, [], [4, 4])
    # w^(1/2): 2 vs 2 is a tie, must not count as improving
    assert not power_weight_improves(g, Fraction(1, 2), [0], [1])
    g2 = ConflictGraph.from_edges(2, [], [9, 4])
    assert power_weight_improves(g2, Fraction(1, 2), [0], [1])


def test_oracle_dominates_local_search_solutions():
    from clawpack.solvers import SolverConfig, solve

    for seed in range(10):
        inst = gen_random_packing(10, 3, 8, seed=40 + seed)
        g = build_conflict_graph(inst)
        opt = exact_mwis(g)
        for mode in ("greedy", "squareimp", "logimp"):
            tr = solve(g, SolverConfig(mode=mode), inst=inst)
            assert opt.optimum_w >= tr.final.total_w
