import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import brute_force_improvement_exists, brute_force_mwis, gen_berman_tight, w2_of

import clawpack
from clawpack.generators import (
    LowerBoundParams,
    gen_alternating_cycle,
    gen_incidence_lowerbound,
    gen_random_packing,
    petersen_graph,
)
from clawpack.instances import (
    BudgetExceededError,
    ConflictGraph,
    InputError,
    Solution,
    build_conflict_graph,
)
from clawpack.oracle import exact_mwis, exhaustive_improvement_search, power_weight_gain, power_weight_improves


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
    assert exhaustive_improvement_search(res.best, Fraction(1), 6) is None


def test_berman_alpha_two_improvement_exists():
    g, a, _ = gen_berman_tight(4)
    imp = exhaustive_improvement_search(a, Fraction(2), 6)
    assert imp is not None
    assert w2_of(g, imp.x) > w2_of(g, imp.removed)
    # the full opposite side qualifies as a witness
    b = frozenset(range(3, 9))
    assert w2_of(g, b) == 6 > 3


def test_alternating_cycle_alpha_minus_one_no_improvement():
    g, a, _ = gen_alternating_cycle(4, 4, Fraction(1, 2))
    assert exhaustive_improvement_search(a, Fraction(-1), 4) is None


def test_alpha_zero_rejected():
    g, a, _ = gen_berman_tight(4)
    with pytest.raises(InputError):
        exhaustive_improvement_search(a, Fraction(0), 3)


@pytest.mark.parametrize("seed", range(6))
def test_search_agrees_with_recursive_enumeration(seed):
    inst = gen_random_packing(12, 3, 9, weight_dist=("near-unit", Fraction(1, 10)), seed=seed)
    g = build_conflict_graph(inst)
    from clawpack.solvers import SolverConfig, squareimp

    a = squareimp(g, SolverConfig(mode="squareimp")).final
    for cap in (2, 3):
        got = exhaustive_improvement_search(a, Fraction(2), cap)
        expect = brute_force_improvement_exists(g, a.members, 2, cap)
        assert (got is not None) == expect


def test_non_integer_alpha_uses_tolerant_comparison():
    g = ConflictGraph.from_edges(2, [], [4, 4])
    # w^(1/2): 2 vs 2 is a tie, must not count as improving
    assert not power_weight_improves(g, Fraction(1, 2), [0], [1])
    g2 = ConflictGraph.from_edges(2, [], [9, 4])
    assert power_weight_improves(g2, Fraction(1, 2), [0], [1])



def test_mpmath_is_imported_only_for_non_integer_alpha():
    """Importing the package, the bench runner and the generators, and the
    lower-bound weights at non-integer alpha, leave mpmath unloaded, and so
    do param solves at alpha 3 and -1; a non-integer alpha in the oracle
    loads it."""
    src = os.path.dirname(os.path.dirname(clawpack.__file__))
    code = (
        "import sys, clawpack, clawpack.bench, clawpack.generators as gen\n"
        "from fractions import Fraction\n"
        "for a in (Fraction(1, 2), Fraction(2, 3)):\n"
        "    p = gen.LowerBoundParams(4, a, Fraction(1, 2), 5)\n"
        "    p.eps_prime_d(), gen.edge_side_weight(p)\n"
        "g = clawpack.ConflictGraph.from_edges(2, [], [9, 4])\n"
        "before = 'mpmath' in sys.modules\n"
        "for a in (3, -1):\n"
        "    clawpack.solve(g, clawpack.SolverConfig(mode='parametrized', alpha=Fraction(a)))\n"
        "integer = 'mpmath' in sys.modules\n"
        "clawpack.oracle.power_weight_improves(g, Fraction(1, 2), [0], [1])\n"
        "print(before, integer, 'mpmath' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "True"]

# Known defects of non-integer alpha, which goes through 140-bit floating
# point with a 2**-40 relative tie margin. The strict xfails pass once the
# comparison and the gain are exact.


def below_tolerance_gain():
    """Vertex 0 of weight 4 + 10**-14 against its neighbors 1 and 2 of
    weight 1, A = {1, 2}: sqrt(w(0)) exceeds sqrt(w(1)) + sqrt(w(2)) by
    about 2.5e-15, far below the tie margin."""
    g = ConflictGraph.from_edges(3, [(0, 1), (0, 2)], [4 + Fraction(1, 10 ** 14), 1, 1])
    return g, Solution.of(g, {1, 2})


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a gain below the 2**-40 tie margin counts as none")
def test_half_power_search_sees_a_gain_below_the_float_tolerance():
    g, a = below_tolerance_gain()
    imp = exhaustive_improvement_search(a, Fraction(1, 2), 3)
    assert imp is not None and imp.x == {0} and imp.removed == {1, 2}


@pytest.mark.xfail(strict=True, raises=TypeError, reason="the gain is built as Fraction(mpf)")
def test_half_power_gain_is_a_positive_rational():
    g, _ = below_tolerance_gain()
    gain = power_weight_gain(g, Fraction(1, 2), [0], [1, 2])
    assert 0 < gain < Fraction(1, 10 ** 14)


def test_half_power_search_finds_no_gain_on_the_petersen_incidence_graph():
    # criterion 7's instance (d = 4, girth 5) at alpha = 1/2: guards the
    # non-integer path, which walks every subset unbounded
    params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=5)
    g, a, _ = gen_incidence_lowerbound(params, petersen_graph())
    assert exhaustive_improvement_search(a, Fraction(1, 2), 4) is None


def test_oracle_dominates_local_search_solutions():
    from clawpack.solvers import SolverConfig, solve

    for seed in range(10):
        inst = gen_random_packing(10, 3, 8, seed=40 + seed)
        g = build_conflict_graph(inst)
        opt = exact_mwis(g)
        for mode in ("greedy", "squareimp", "logimp"):
            tr = solve(g, SolverConfig(mode=mode), inst=inst)
            assert opt.optimum_w >= tr.final.total_w
