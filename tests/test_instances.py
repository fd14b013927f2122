import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import gen_berman_tight, graph_with_edge_set, nbr_set, verify_claw_free, w2_of
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpack.instances import (
    Circular,
    ClawShaped,
    ConflictGraph,
    ContractError,
    Generic,
    Improvement,
    InputError,
    PackingInstance,
    Solution,
    build_conflict_graph,
    independent_subsets,
    neighborhood,
    validate_improvement,
    verify_solution,
)


def test_neighborhood_membership_alone_suffices():
    g = ConflictGraph.from_edges(2, [], [1, 1])
    assert neighborhood({0}, {0}, g) == {0}


def test_neighborhood_empty_u(unit_path3):
    assert neighborhood(set(), {0, 1, 2}, unit_path3) == set()


def test_neighborhood_path(unit_path3):
    assert neighborhood({0}, {1, 2}, unit_path3) == {1}


def test_neighborhood_out_of_range(unit_path3):
    with pytest.raises(InputError):
        neighborhood({7}, {0}, unit_path3)


@settings(max_examples=100)
@given(st.data())
def test_neighborhood_monotone(data):
    n = data.draw(st.integers(3, 8))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=12,
        )
    )
    g = ConflictGraph.from_edges(n, edges, [1] * n)
    u1 = set(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    extra = set(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    w = set(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    small = neighborhood(u1, w, g)
    big = neighborhood(u1 | extra, w, g)
    assert small <= big
    assert big <= w



def independent_combinations(independent, cands, cap):
    """The subsets of 1..cap of sorted `cands` that `independent` accepts,
    lexicographically."""
    return sorted(c for k in range(1, cap + 1) for c in combinations(cands, k) if independent(c))


@settings(max_examples=200)
@given(st.data())
def test_independent_subsets_lists_the_independent_combinations_in_order(data):
    n = data.draw(st.integers(1, 9))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    g = ConflictGraph.from_edges(n, [e for e in edges if e[0] != e[1]], [1] * n)
    cands = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    cap = data.draw(st.integers(0, n + 2))
    assert list(independent_subsets(g, cands, cap)) == independent_combinations(g.is_independent, cands, cap)


@pytest.mark.parametrize(
    "cands, cap",
    [([0, 1, 2, 3, 4], 0), ([], 3), ([1, 3, 4], 5), ([2, 3, 4], 2), ((1, 2, 4), 3)],
)
def test_independent_subsets_edge_cases(cands, cap):
    # path 0-1-2-3 plus the isolated vertex 4
    g = ConflictGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)], [1] * 5)
    assert list(independent_subsets(g, cands, cap)) == independent_combinations(g.is_independent, cands, cap)


def sent_deficit(seed: int, x: tuple[int, ...], top: int):
    """What a reader sends back after subset x: nothing (None) one time in
    five, else an integer deficit in -1..top; fixed by the seed and x."""
    rng = random.Random(f"{seed}:{x}")
    return None if rng.random() < 0.2 else rng.randint(-1, top)


def deficit_walk(g, cands, cap, p, seed):
    """The subsets `independent_subsets` lists to a reader that sends back
    `sent_deficit(seed, x, sum(p))` after each subset x."""
    got = []
    walk = independent_subsets(g, cands, cap, p)
    try:
        x = next(walk)
        while True:
            got.append(x)
            x = walk.send(sent_deficit(seed, x, sum(p)))
    except StopIteration:
        pass
    return got


def deficit_listing(independent, cands, cap, p, seed):
    """What `deficit_walk` must list, by brute force: the combinations of
    `cands` that `independent` accepts, lexicographically, each kept iff
    it is listed past every non-empty prefix x = y[:j], given the deficit
    sent after x. With one pick left, y's last pick must exceed it alone;
    with more room, the extensions of x must still cover it. The empty
    subset's extensions are always listed."""

    def listed(y, j):
        x = y[:j]
        deficit = sent_deficit(seed, x, sum(p))
        if deficit is None:
            return True
        if cap - j == 1:
            return p[y[j]] > deficit
        later = [u for u in cands[cands.index(x[-1]) + 1:] if independent(x + (u,))]
        return sum(sorted(p[u] for u in later)[-(cap - j):]) > deficit

    return [y for y in independent_combinations(independent, cands, cap) if all(listed(y, j) for j in range(1, len(y)))]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_independent_subsets_skips_the_extensions_a_sent_deficit_rules_out(data):
    n = data.draw(st.integers(1, 9))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    g = ConflictGraph.from_edges(n, [e for e in edges if e[0] != e[1]], [1] * n)
    cands = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    cap = data.draw(st.integers(0, n + 2))
    p = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2 ** 32))
    assert deficit_walk(g, cands, cap, p, seed) == deficit_listing(g.is_independent, cands, cap, p, seed)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_adjacency_reads_match_a_brute_force_over_an_edge_set(data):
    """`has_edge`, `is_independent` and `independent_subsets` (with and
    without deficits) read the graph's adjacency tuples; a brute force over
    a set of edges built here, not read from the graph, answers alike."""
    g, edges, independent = graph_with_edge_set(data)
    n = g.n
    for u in range(n):
        assert [g.has_edge(u, v) for v in range(n)] == [frozenset((u, v)) in edges for v in range(n)]
    vs = data.draw(st.lists(st.integers(0, n - 1), max_size=7))
    assert g.is_independent(vs) == independent(vs)
    cands = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    cap = data.draw(st.integers(0, 5))
    assert list(independent_subsets(g, cands, cap)) == independent_combinations(independent, cands, cap)
    p = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2 ** 32))
    assert deficit_walk(g, cands, cap, p, seed) == deficit_listing(independent, cands, cap, p, seed)


def test_every_vertex_sees_maximal_solution():
    g, a, _ = gen_berman_tight(5)
    for u in range(g.n):
        assert neighborhood({u}, a.members, g)


def test_build_conflict_graph_intersections():
    inst = PackingInstance.build(5, [[1, 2], [2, 3], [4]], [1, 1, 1], k=2)
    g = build_conflict_graph(inst)
    assert g.edges() == [(0, 1)]
    assert g.degree(2) == 0
    assert g.d == 3


def test_build_conflict_graph_disjoint_sets():
    inst = PackingInstance.build(6, [[0], [1], [2, 3]], [1, 1, 1], k=2)
    g = build_conflict_graph(inst)
    assert g.m == 0


def test_berman_bipartite_degrees():
    g, a, b = gen_berman_tight(4)
    assert all(g.degree(v) == 3 for v in a.members)
    for u in b.members:
        assert all(v in a.members for v in g.adj[u])


def raises_exactly(message: str):
    """pytest.raises for an InputError whose text is exactly `message`."""
    return pytest.raises(InputError, match=f"^{re.escape(message)}$")


def test_build_keeps_each_set_as_a_sorted_tuple():
    inst = PackingInstance.build(9, [[7, 2, 5], {4, 1}, (3,)], [1, 2, 3], k=3)
    assert inst.sets == ((2, 5, 7), (1, 4), (3,))


def test_packing_validation_rejects_bad_sets():
    with raises_exactly("set 0 repeats an element"):
        PackingInstance.build(3, [[0, 0]], [1], k=2)
    with raises_exactly("set 1 repeats an element"):
        PackingInstance.build(3, [[1], [2, 0, 2]], [1, 1], k=3)
    with raises_exactly("set 0 contains out-of-range element 5"):
        PackingInstance.build(3, [[0, 5]], [1], k=2)
    with raises_exactly("set 0 has non-positive weight 0"):
        PackingInstance.build(3, [[0]], [0], k=2)
    with raises_exactly("set 0 has 3 elements, want 1..2"):
        PackingInstance.build(3, [[0, 1, 2]], [1], k=2)


def test_build_checks_the_range_at_its_edge():
    """The range check, read from a set's last element, accepts the element
    universe_size - 1 and rejects universe_size itself."""
    assert PackingInstance.build(3, [[0, 2], [1]], [1, 1], k=2).sets == ((0, 2), (1,))
    with raises_exactly("set 1 contains out-of-range element 3"):
        PackingInstance.build(3, [[0, 2], [1, 3]], [1, 1], k=2)


def test_graph_validation():
    with raises_exactly("loop at vertex 0"):
        ConflictGraph.from_edges(2, [(0, 0)], [1, 1])
    with raises_exactly("weights must be strictly positive"):
        ConflictGraph.from_edges(2, [], [1, -1])


@pytest.mark.parametrize("make, message", [
    (lambda: PackingInstance.build(-1, [], [], k=2), "universe_size must be non-negative"),
    (lambda: PackingInstance.build(3, [], [], k=0), "k must be >= 1"),
    (lambda: PackingInstance(3, ((0,),), (), 2), "sets and weights must have equal length"),
    (lambda: PackingInstance.build(3, [[1, -1]], [1], k=2), "set 0 contains out-of-range element -1"),
    (lambda: PackingInstance(3, ((),), (Fraction(1),), 2), "set 0 has 0 elements, want 1..2"),
    (lambda: PackingInstance(4, ((1, 1), (3, 0)), (Fraction(1), Fraction(2)), 2), "set 0 repeats an element"),
    (lambda: PackingInstance(4, ((3, 0), (1, 2)), (Fraction(1), Fraction(2)), 2),
     "set 0 is not a tuple in increasing order"),
    (lambda: PackingInstance(4, ((0, 3), frozenset({1, 2})), (Fraction(1), Fraction(2)), 2),
     "set 1 is not a tuple in increasing order"),
    (lambda: PackingInstance(4, ((0, 3), [1, 2]), (Fraction(1), Fraction(2)), 2),
     "set 1 is not a tuple in increasing order"),
    (lambda: PackingInstance(4, ((0, 3), [2, 2]), (Fraction(1), Fraction(2)), 2), "set 1 repeats an element"),
    # sets are checked in order, each for its order and repeats, its size and then its range
    (lambda: PackingInstance.build(3, [[0], [0, 7], [0, 1, 2]], [1] * 3, k=2),
     "set 1 contains out-of-range element 7"),
    (lambda: PackingInstance.build(3, [[0], [0, 1, 2], [7]], [1] * 3, k=2), "set 1 has 3 elements, want 1..2"),
    (lambda: PackingInstance.build(3, [[0], [1], [2]], [1, Fraction(-1, 2), 0], k=2),
     "set 1 has non-positive weight -1/2"),
    (lambda: PackingInstance(3, ((0,),), (1.5,), 2), "weights must be exact rationals, got float 1.5"),
    (lambda: PackingInstance(3, ((0,),), (True,), 2), "weights must be exact rationals, got bool True"),
    (lambda: PackingInstance(3, ((0,),), ("1",), 2), "weights must be exact rationals, got str '1'"),
    (lambda: PackingInstance.build(3, [[0]], [0.5], k=2), "weights must be exact rationals, got float 0.5"),
    (lambda: PackingInstance.build(3, [[0]], [True], k=2), "weights must be exact rationals, got bool True"),
])
def test_packing_validation_messages(make, message):
    with raises_exactly(message):
        make()


def graph(adj, weights=None):
    return ConflictGraph(len(adj), tuple(adj), tuple(weights or [Fraction(1)] * len(adj)))


@pytest.mark.parametrize("make, message", [
    (lambda: ConflictGraph(2, ((),), (1, 1)), "adjacency/weights length must equal n"),
    (lambda: ConflictGraph(2, ((), ()), (1,)), "adjacency/weights length must equal n"),
    (lambda: ConflictGraph.from_edges(2, [(0, 2)], [1, 1]), "edge (0,2) out of range"),
    (lambda: graph([(2,), ()]), "vertex 0 has out-of-range neighbor 2"),
    (lambda: graph([(-1,), ()]), "vertex 0 has out-of-range neighbor -1"),
    (lambda: graph([(1,), (1,)]), "loop at vertex 1"),
    (lambda: graph([(2, 1), (0,), (0,)]), "adjacency of 0 not sorted/duplicate-free"),
    (lambda: graph([(1, 1), (0, 0)]), "adjacency of 0 not sorted/duplicate-free"),
    # asymmetric adjacencies, each named at its first one-way edge
    (lambda: graph([(1,), (), ()]), "edge {0,1} not symmetric"),
    (lambda: graph([(1, 2), (0,), ()]), "edge {0,2} not symmetric"),
    (lambda: graph([(1,), (2,), (0,)]), "edge {0,1} not symmetric"),
    (lambda: graph([(), (2,), (0,)]), "edge {1,2} not symmetric"),
    (lambda: graph([(), ()], [1, 0]), "weights must be strictly positive"),
    (lambda: graph([(), ()], [1, Fraction(-3, 2)]), "weights must be strictly positive"),
    (lambda: ConflictGraph(2, ((), ()), (1.5, 2.0)), "weights must be exact rationals, got float 1.5"),
    (lambda: ConflictGraph(2, ((), ()), (1, True)), "weights must be exact rationals, got bool True"),
    (lambda: ConflictGraph.from_edges(2, [], [1, 2.0]), "weights must be exact rationals, got float 2.0"),
    (lambda: graph([(), ()]).reweighted([1, False]), "weights must be exact rationals, got bool False"),
])
def test_graph_validation_messages(make, message):
    with raises_exactly(message):
        make()


def test_int_powers_of_a_whole_fraction_is_the_int_table():
    """A Fraction exponent of denominator 1 reads the table of its int, the
    same object; a denominator-2 exponent has no integer table, also once
    the oracle keeps its mpmath table of that exponent in the same dict."""
    from clawpack.oracle import power_weight_improves

    g = ConflictGraph.from_edges(3, [(0, 1)], [Fraction(3, 2), 2, Fraction(5, 7)])
    for k in (-2, -1, 1, 2, 3):
        assert g.int_powers(Fraction(k)) is g.int_powers(k)
        assert g.int_powers(k) is g.int_powers(Fraction(k))
    assert power_weight_improves(g, Fraction(1, 2), [1], [0])
    for k in (Fraction(1, 2), Fraction(-3, 2), 0.5):
        with raises_exactly(f"no integer power table for the exponent {k}"):
            g.int_powers(k)


def test_direct_construction_takes_int_and_fraction_weights():
    g = ConflictGraph(2, ((1,), (0,)), (2, Fraction(1, 3)))
    assert g.w_int == (6, 1) and g.w_lcm == 3
    inst = PackingInstance(3, ((0,), (1, 2)), (1, Fraction(5, 2)), 2)
    assert build_conflict_graph(inst).weights == (1, Fraction(5, 2))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4), max_size=20))
def test_weight_order_is_heaviest_first_ties_to_the_lowest_id(weights):
    """`weight_order` is the vertices sorted by (-w_int, id), and
    `weight_rank` its inverse; ties are frequent at these weights."""
    g = ConflictGraph.from_edges(len(weights), [], weights)
    assert list(g.weight_order) == sorted(range(g.n), key=lambda v: (-g.w_int[v], v))
    assert [g.weight_order[r] for r in g.weight_rank] == list(range(g.n))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_build_conflict_graph_matches_pairwise_intersection(data):
    k = data.draw(st.integers(1, 5))
    universe = data.draw(st.integers(k, 40))
    sets = data.draw(st.lists(st.sets(st.integers(0, universe - 1), min_size=1, max_size=k), max_size=30))
    weights = data.draw(st.lists(st.integers(1, 9), min_size=len(sets), max_size=len(sets)))
    inst = PackingInstance.build(universe, [sorted(s) for s in sets], weights, k)
    edges = [(i, j) for j in range(len(sets)) for i in range(j) if sets[i] & sets[j]]
    want = ConflictGraph.from_edges(len(sets), edges, weights, d=k + 1)
    g = build_conflict_graph(inst)
    assert g == want
    # the public constructor's checks accept what the build skipped them for
    assert ConflictGraph(g.n, g.adj, g.weights, g.d) == g


def test_verify_claw_free_triangle():
    g = ConflictGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 1])
    ok, witness = verify_claw_free(g, 2)
    assert ok and witness is None


def test_verify_claw_free_star():
    g = ConflictGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], [1, 1, 1, 1])
    ok, witness = verify_claw_free(g, 3)
    assert not ok
    center, talons = witness
    assert center == 0 and set(talons) == {1, 2, 3}


@pytest.mark.parametrize("d", [4, 6])
def test_verify_claw_free_berman(d):
    g, _, _ = gen_berman_tight(d)
    ok, _ = verify_claw_free(g, d)
    assert ok
    ok_small, witness = verify_claw_free(g, d - 1)
    assert not ok_small and witness is not None


def test_verify_solution_cases(unit_path3):
    g = unit_path3
    assert verify_solution(g, Solution.of(g, ()))
    bad = Solution(g, {0, 1})
    assert not verify_solution(g, bad)
    assert not any(verify_solution(g, Solution(g, {0, v})) for v in (g.n, -1))


def test_verify_solution_rejects_a_solution_over_another_graph(unit_path3):
    """A copy of the graph is another graph: the solution's own table
    follows the graph it was built over."""
    copy = ConflictGraph(unit_path3.n, unit_path3.adj, unit_path3.weights, unit_path3.d)
    with pytest.raises(ContractError, match="the solution is over another graph"):
        verify_solution(copy, Solution.of(unit_path3, [0, 2]))


def test_validate_improvement_rejects_a_solution_over_another_graph():
    g = ConflictGraph.from_edges(5, [(0, 1), (0, 2), (1, 4)], [2, 3, 2, 1, 1])
    copy = g.reweighted(g.weights)
    a = Solution.of(g, [0])
    imp = Improvement(frozenset({1, 2}), frozenset({0}), ClawShaped(0))
    assert validate_improvement(g, a, imp)
    with pytest.raises(ContractError, match="the solution is over another graph"):
        validate_improvement(copy, a, imp)


def test_squareimp_leaves_one_adjacency_and_sets_as_sorted_tuples():
    """After squareimp and logimp on 2,000 random sets, the graph holds no
    table of a set per vertex (its adjacency is the sorted tuples `adj`),
    and each of the instance's sets is one sorted tuple."""
    from clawpack.generators import gen_random_packing
    from clawpack.solvers import SolverConfig, solve

    inst = gen_random_packing(2000, 3, 2000, seed=0)
    g = build_conflict_graph(inst)
    for mode in ("squareimp", "logimp"):
        solve(g, SolverConfig(mode=mode), inst=inst)
    set_tables = [
        name for name, value in vars(g).items()
        if isinstance(value, (tuple, list)) and len(value) == g.n
        and any(isinstance(x, (set, frozenset)) for x in value)
    ]
    assert set_tables == []
    assert all(type(s) is tuple and list(s) == sorted(set(s)) for s in inst.sets)


def test_verify_solution_berman_b_side():
    g, _, b = gen_berman_tight(4)
    assert verify_solution(g, b)
    assert w2_of(g, b.members) == 6


def test_claw_free_bounds_solution_neighborhoods():
    from clawpack.generators import gen_random_packing

    for seed in range(5):
        inst = gen_random_packing(9, 3, 8, seed=30 + seed)
        g = build_conflict_graph(inst)
        d = inst.k + 1
        ok, _ = verify_claw_free(g, d)
        assert ok
        s = Solution.of(g, max_independent_greedy(g))
        for v in range(g.n):
            assert len(neighborhood({v}, s.members, g) - {v}) <= d - 1


def max_independent_greedy(g):
    chosen, alive = set(), set(range(g.n))
    while alive:
        v = min(alive)
        chosen.add(v)
        alive.discard(v)
        alive -= nbr_set(g, v)
    return chosen


def test_claw_search_budget_guard():
    from clawpack.instances import BudgetExceededError

    g, _, _ = gen_berman_tight(6)
    # bound 5 actually searches the degree-5 side; a tiny budget trips
    with pytest.raises(BudgetExceededError, match="claw-free check exceeded 3 nodes"):
        verify_claw_free(g, 5, budget=3)


# A = {0}; 0 is the center of talons 1 and 2, 3 is free, and 4 hangs off 1.
# Each invalid row breaks one rule of `validate_improvement` (an empty x
# also gains nothing, since N(x, A) is empty too).
VALIDATION_CASES = [
    ("claw", {1, 2}, {0}, ClawShaped(0), True),
    ("0-claw", {3}, set(), ClawShaped(None), True),
    ("0-claw-step", {3, 4}, set(), ClawShaped(None), True),
    ("circular", {1, 2}, {0}, Circular(u=(1, 2), cycle_vertices=(0,), y=()), True),
    ("alpha-2", {1, 2}, {0}, Generic(Fraction(2)), True),
    ("alpha-minus-1", {1, 2}, {0}, Generic(Fraction(-1)), True),
    ("empty-x", set(), set(), Generic(), False),
    ("x-meets-A", {0, 3}, {0}, Generic(), False),
    ("dependent-x", {1, 4}, {0}, Generic(), False),
    ("removed-not-N(x,A)", {1, 2}, set(), ClawShaped(0), False),
    ("0-claw-with-removed", {1}, {0}, ClawShaped(None), False),
    ("center-outside-A", {1}, {0}, ClawShaped(4), False),
    ("talon-off-center", {1, 3}, {0}, ClawShaped(0), False),
    ("no-w2-gain", {2}, {0}, ClawShaped(0), False),
]


@pytest.mark.parametrize(
    "x, removed, kind, ok", [case[1:] for case in VALIDATION_CASES], ids=[case[0] for case in VALIDATION_CASES]
)
def test_validate_improvement_table(x, removed, kind, ok):
    g = ConflictGraph.from_edges(5, [(0, 1), (0, 2), (1, 4)], [2, 3, 2, 1, 1])
    a = Solution.of(g, [0])
    assert validate_improvement(g, a, Improvement(frozenset(x), frozenset(removed), kind)) is ok
