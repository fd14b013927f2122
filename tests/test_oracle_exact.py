"""The integer branch and bound and the integer w**alpha search, checked
against the Fraction versions they replaced and against a second oracle.

The reference implementations below are kept here on purpose: they are the
plain rational-arithmetic forms of the same searches, with the same branch
order, so search trees, node counts and budget failures must agree.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, count
from typing import Optional
from unittest import mock

import pytest
from conftest import PrimeWeights, nbr_set, w_of
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpack import certify, oracle
from clawpack.certify import AnalysisParams, certify_local_optimum
from clawpack.circular import build_anchor_maps
from clawpack.generators import gen_random_packing
from clawpack.instances import (
    BudgetExceededError,
    ConflictGraph,
    Generic,
    Improvement,
    InputError,
    PackingInstance,
    Solution,
    build_conflict_graph,
    neighborhood,
)
from clawpack.oracle import exact_mwis, exhaustive_improvement_search
from clawpack.solvers import SolverConfig, greedy, logimp, squareimp

ALPHAS = (-3, -1, 1, 2, 3)

# ------------------------------------------------------------ references


def ref_exact_mwis(g: ConflictGraph, budget: int = 100_000_000, cover: bool = False, seed=None):
    """Branch and bound over Fraction weights and vertex lists.

    A node is pruned when the current weight plus all remaining weights
    does not beat the incumbent; with `cover`, also when the current weight
    plus the first weight of each clique of `ref_clique_cover` of the
    remaining vertices does not. `seed`, an independent vertex set, is the
    first incumbent, at 1/L below its weight (L the lcm of the weight
    denominators). Returns (best set, optimum, nodes), or raises
    BudgetExceededError whose `partial` is that triple for the incumbent
    (the weight its own, not the floor)."""
    nodes = 0
    best_set: set[int] = set()
    best_w = Fraction(0)
    if seed is not None:
        best_set = set(seed)
        best_w = w_of(g, seed) - Fraction(1, math.lcm(*(w.denominator for w in g.weights)))

    def search(cands: list[int], cur: set[int], cur_w: Fraction):
        nonlocal nodes, best_set, best_w
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("budget", partial=(set(best_set), w_of(g, best_set), nodes))
        if cur_w > best_w:
            best_w = cur_w
            best_set = set(cur)
        if not cands:
            return
        if cur_w + w_of(g, cands) <= best_w:
            return
        if cover and cur_w + sum((g.weights[c[0]] for c in ref_clique_cover(g, cands)), Fraction(0)) <= best_w:
            return
        cand_set = set(cands)
        pick = max(cands, key=lambda v: (len(nbr_set(g, v) & cand_set), -v))
        rest_in = [v for v in cands if v != pick and not g.has_edge(v, pick)]
        cur.add(pick)
        search(rest_in, cur, cur_w + g.weights[pick])
        cur.remove(pick)
        search([v for v in cands if v != pick], cur, cur_w)

    search(list(range(g.n)), set(), Fraction(0))
    return best_set, best_w, nodes


def ref_clique_cover(g: ConflictGraph, vertices: list[int]) -> list[list[int]]:
    """Cliques covering `vertices`, each listed heaviest first: the
    heaviest vertex left (ties to the lowest id) starts a clique, which then
    takes, in (-weight, id) order, each vertex left adjacent to all of its
    members; the clique leaves, and the next one starts."""
    left = sorted(vertices, key=lambda u: (-g.weights[u], u))
    cliques: list[list[int]] = []
    while left:
        clique = [left[0]]
        for v in left[1:]:
            if all(g.has_edge(v, u) for u in clique):
                clique.append(v)
        cliques.append(clique)
        left = [v for v in left if v not in clique]
    return cliques


def ref_improvement_search(
    g: ConflictGraph, a: Solution, alpha: int, size_cap: int, budget: int = 100_000_000, bounded: bool = False
) -> Optional[Improvement]:
    """The exhaustive w**alpha search in Fraction arithmetic, recomputing
    N(X, A) at every node.

    `bounded` skips the extensions of a non-improving X when the
    size_cap - |X| largest w**alpha among the vertices that could still
    join X sum to at most w**alpha(N(X, A)) - w**alpha(X), and with one
    pick left tries only the vertices whose w**alpha exceeds that deficit;
    the unbounded search returns the same result."""
    outside = [v for v in range(g.n) if v not in a.members]
    nodes = 0

    def power_sum(vs) -> Fraction:
        return sum((g.weights[v] ** alpha for v in vs), Fraction(0))

    def extend(start: int, chosen: list[int], need: Optional[Fraction] = None) -> Optional[Improvement]:
        nonlocal nodes
        for i in range(start, len(outside)):
            v = outside[i]
            if any(g.has_edge(v, u) for u in chosen):
                continue
            if need is not None and g.weights[v] ** alpha <= need:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"improvement search exceeded {budget} nodes")
            chosen.append(v)
            removed = neighborhood(chosen, a.members, g)
            deficit = power_sum(removed) - power_sum(chosen)
            if deficit < 0:
                return Improvement(frozenset(chosen), frozenset(removed), Generic(Fraction(alpha)))
            room = size_cap - len(chosen)
            later = [u for u in outside[i + 1:] if not any(g.has_edge(u, x) for x in chosen)]
            last = bounded and room == 1
            if room and (not bounded or last or sum(sorted(g.weights[u] ** alpha for u in later)[-room:]) > deficit):
                found = extend(i + 1, chosen, deficit if last else None)
                if found is not None:
                    return found
            chosen.pop()
        return None

    return extend(0, [])


def outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except BudgetExceededError as exc:
        return ("budget", str(exc))


def budget_partial(fn, *args, **kw):
    """The budget partial of an oracle as (members, weight, nodes), or
    None when it finishes within its budget."""
    try:
        fn(*args, **kw)
    except BudgetExceededError as exc:
        p = exc.partial
        return p if isinstance(p, tuple) else (p.best.members, p.optimum_w, p.nodes_explored)
    return None


# ------------------------------------------------------------ inputs


@st.composite
def prime_weighted_graphs(draw, max_n: int = 14):
    """Weights with pairwise distinct prime denominators and magnitudes
    2**-60..2**60; optionally one vertex weighs the sum of its neighbors,
    level with it or a hair (about 2**-60 relative) above or below."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n) if pairs else st.just([]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pw = PrimeWeights(rng)
    weights = [pw.magnitude(e) for e in draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))]
    g = ConflictGraph.from_edges(n, edges, weights)
    tie = draw(st.sampled_from((None, "level", "above", "below")))
    v = draw(st.integers(0, n - 1))
    if tie is not None and g.adj[v]:
        weights[v] = w_of(g, g.adj[v])
        if tie != "level":
            weights[v] = pw.near_root(weights[v], 1, above=tie == "above")
        g = g.reweighted(weights)
    return g


@st.composite
def tied_graphs(draw, max_n: int = 14):
    """Weights from {1/2, 1, 3/2, 2}, so that exact ties are common."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n) if pairs else st.just([]))
    weights = draw(st.lists(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]),
                            min_size=n, max_size=n))
    return ConflictGraph.from_edges(n, edges, weights)


def maximal_solution(g: ConflictGraph, rng: random.Random) -> Solution:
    order = list(range(g.n))
    rng.shuffle(order)
    members: set[int] = set()
    for v in order:
        if not (nbr_set(g, v) & members):
            members.add(v)
    return Solution.of(g, members)


# ------------------------------------------------------------ exact_mwis


@settings(max_examples=200, deadline=None)
@given(st.one_of(prime_weighted_graphs(), tied_graphs()))
def test_exact_mwis_matches_fraction_branch_and_bound(g):
    best, best_w, _ = ref_exact_mwis(g)
    res = exact_mwis(g)
    assert res.best.members == best
    assert res.optimum_w == best_w == res.best.total_w
    assert isinstance(res.optimum_w, Fraction)
    assert res.optimal
    _, _, nodes = ref_exact_mwis(g, cover=True)
    assert res.nodes_explored == nodes
    for budget in (1, 2, 3, 5, 8, 13, 21):
        if budget >= nodes:
            assert exact_mwis(g, budget=budget).nodes_explored == nodes
            continue
        with pytest.raises(BudgetExceededError) as got:
            exact_mwis(g, budget=budget)
        with pytest.raises(BudgetExceededError) as want:
            ref_exact_mwis(g, budget=budget, cover=True)
        partial = got.value.partial
        assert (partial.best.members, partial.optimum_w, partial.nodes_explored) == want.value.partial
        assert not partial.optimal
    # seeded with a maximal set, and with the optimum itself: the same set
    # in no more nodes, and the reference's tree under the same floor
    for seed in (maximal_solution(g, random.Random(g.n)), res.best):
        _, _, seeded_nodes = ref_exact_mwis(g, cover=True, seed=seed.members)
        got = exact_mwis(g, incumbent=seed)
        assert (got.best.members, got.optimum_w, got.nodes_explored) == (best, best_w, seeded_nodes)
        assert got.optimal and seeded_nodes <= nodes
        for budget in (1, 2, 3, 5, 8):
            assert budget_partial(exact_mwis, g, budget=budget, incumbent=seed) == budget_partial(
                ref_exact_mwis, g, budget=budget, cover=True, seed=seed.members
            )


@st.composite
def tied_packing_graphs(draw, max_n: int = 16):
    """Conflict graphs of k=3 packings whose weights all come from {1, 2}
    or all from {1/2, 1, 3/2}, so that ties are planted everywhere."""
    universe = draw(st.integers(3, 12))
    n = draw(st.integers(1, max_n))
    sets = draw(st.lists(
        st.lists(st.integers(0, universe - 1), min_size=1, max_size=3, unique=True),
        min_size=n, max_size=n,
    ))
    palette = draw(st.sampled_from(((1, 2), (Fraction(1, 2), 1, Fraction(3, 2)))))
    weights = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    return build_conflict_graph(PackingInstance.build(universe, sets, weights, 3))


@settings(max_examples=150, deadline=None)
@given(st.one_of(tied_packing_graphs(), tied_graphs()))
def test_clique_cover_bound_keeps_the_returned_set(g):
    best, best_w, sum_nodes = ref_exact_mwis(g)
    _, _, nodes = ref_exact_mwis(g, cover=True)
    res = exact_mwis(g)
    assert res.best.members == best and res.optimum_w == best_w
    assert res.nodes_explored == nodes <= sum_nodes


def test_seeded_oracle_keeps_the_set_of_random_packings():
    """Seeded with the logimp final, the oracle returns the set of the
    unseeded search on random k=3 packings, never in more nodes."""
    unseeded = seeded = 0
    for n in (20, 32, 40):
        for seed in range(40):
            inst = gen_random_packing(n, 3, n, weight_dist=("uniform", 10), seed=seed)
            g = build_conflict_graph(inst)
            final = logimp(g, SolverConfig(mode="logimp", rng_seed=seed), inst=inst).final
            plain = exact_mwis(g)
            got = exact_mwis(g, incumbent=final)
            assert got.best.members == plain.best.members, (n, seed)
            assert got.optimum_w == plain.optimum_w and got.optimal
            assert got.nodes_explored <= plain.nodes_explored, (n, seed)
            unseeded += plain.nodes_explored
            seeded += got.nodes_explored
    assert seeded < unseeded


def test_seeded_oracle_budget_partial_is_the_incumbent():
    g = build_conflict_graph(gen_random_packing(20, 3, 20, weight_dist=("uniform", 10), seed=1))
    final = squareimp(g, SolverConfig(mode="squareimp")).final
    with pytest.raises(BudgetExceededError) as got:
        exact_mwis(g, budget=1, incumbent=final)
    partial = got.value.partial
    assert partial.best.members == final.members and partial.optimum_w == final.total_w
    assert not partial.optimal


def test_seeded_oracle_rejects_a_dependent_incumbent():
    g = ConflictGraph.from_edges(3, [(0, 1)], [1, 2, 3])
    with pytest.raises(InputError, match="not independent"):
        exact_mwis(g, incumbent=Solution(g, {0, 1}))
    with pytest.raises(InputError, match="out of range"):
        exact_mwis(g, incumbent=Solution(g, {3}))


def test_exact_mwis_empty_graph():
    res = exact_mwis(ConflictGraph.from_edges(0, [], []))
    assert res.best.members == set() and res.optimum_w == 0 and res.nodes_explored == 1


def test_exact_mwis_matches_networkx_clique_on_complement():
    nx = pytest.importorskip("networkx")
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 16)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        if seed % 2:
            pw = PrimeWeights(rng)
            weights = [pw.magnitude(rng.randint(-60, 60)) for _ in range(n)]
        else:
            weights = [Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(n)]
        g = ConflictGraph.from_edges(n, edges, weights)
        scale = math.lcm(*(w.denominator for w in g.weights))
        graph = nx.Graph(g.edges())
        graph.add_nodes_from(range(n))
        comp = nx.complement(graph)
        for v in range(n):
            comp.nodes[v]["weight"] = g.w_int[v]
        clique, clique_w = nx.max_weight_clique(comp, weight="weight")
        assert g.is_independent(clique)
        assert exact_mwis(g).optimum_w * scale == clique_w


def test_integer_weights_are_scaled_by_lcm_and_built_on_first_use():
    inst = gen_random_packing(12, 3, 9, weight_dist=("near-unit", Fraction(1, 10)), seed=3)
    g = build_conflict_graph(inst)
    assert "w_int" not in g.__dict__ and "w2_int" not in g.__dict__
    scale = math.lcm(*(w.denominator for w in g.weights))
    assert g.w_int == tuple(w * scale for w in g.weights)
    assert g.w2_int == tuple(x * x for x in g.w_int)
    # two alpha = 3 searches read one cube table, built by the first
    assert 3 not in g._power_tables
    a = greedy(g)
    with mock.patch.object(oracle, "_first_improvement", wraps=oracle._first_improvement) as spy:
        for _ in range(2):
            exhaustive_improvement_search(a, Fraction(3), 3)
    cubes = g.int_powers(3)[0]
    assert [call.args[4] is cubes for call in spy.call_args_list] == [True, True]
    for k in (0, Fraction(1, 2)):
        with pytest.raises(InputError):
            g.int_powers(k)


# ------------------------------------------------------------ w**alpha search


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(prime_weighted_graphs(max_n=12), tied_graphs(max_n=12)),
    st.sampled_from(ALPHAS),
    st.integers(1, 4),
    st.data(),
)
def test_improvement_search_matches_fraction_search(g, alpha, cap, data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    a = maximal_solution(g, rng)
    outside = [v for v in range(g.n) if v not in a.members]
    graphs = [g]
    if outside:
        # a single outside vertex against its solution neighborhood, a hair
        # above or below (or level with) the tie in w**alpha
        u = data.draw(st.sampled_from(outside))
        target = sum((g.weights[x] ** alpha for x in nbr_set(g, u) & a.members), Fraction(0))
        for above in (False, True):
            weights = list(g.weights)
            weights[u] = PrimeWeights(rng).near_root(target, alpha, above)
            graphs.append(g.reweighted(weights))
    for h in graphs:
        want = ref_improvement_search(h, a, alpha, cap)
        assert ref_improvement_search(h, a, alpha, cap, bounded=True) == want
        ah = Solution.of(h, a.members)
        assert exhaustive_improvement_search(ah, Fraction(alpha), cap) == want
        for budget in (1, 2, 3, 5, 8):
            assert outcome(exhaustive_improvement_search, ah, Fraction(alpha), cap, budget) == outcome(
                ref_improvement_search, h, a, alpha, cap, budget, bounded=True
            )


def test_improvement_search_from_greedy_and_squareimp():
    found = set()
    for seed in range(8):
        inst = gen_random_packing(12, 3, 9, weight_dist=("near-unit", Fraction(1, 10)), seed=seed)
        g = build_conflict_graph(inst)
        for a in (greedy(g), squareimp(g, SolverConfig(mode="squareimp")).final):
            for alpha in ALPHAS:
                want = ref_improvement_search(g, a, alpha, 3)
                assert exhaustive_improvement_search(a, Fraction(alpha), 3) == want
                found.add(want is None)
    assert found == {True, False}


def brute_first_improvement(g: ConflictGraph, members: set[int], cands: list[int], cap: int, alpha: int):
    """The first independent X of 1..cap of the sorted `cands`, in
    lexicographic order, with w**alpha(X) > w**alpha(N(X, A)) in Fractions,
    as (X, N(X, A)) or None; and the subsets an unpruned walk yields up to
    it (all of them when there is none)."""
    subsets = sorted(c for k in range(1, cap + 1) for c in combinations(cands, k) if g.is_independent(c))
    for seen, x in enumerate(subsets, 1):
        nx = neighborhood(x, members, g)
        if sum((g.weights[v] ** alpha for v in x), Fraction(0)) > sum((g.weights[v] ** alpha for v in nx), Fraction(0)):
            return (frozenset(x), frozenset(nx)), seen
    return None, len(subsets)


@settings(max_examples=300, deadline=None)
@given(st.one_of(prime_weighted_graphs(max_n=10), tied_graphs(max_n=10)), st.integers(1, 4), st.data())
def test_first_improvement_is_the_brute_force_one_in_no_more_nodes(g, cap, data):
    """In both modes, reading N(u, A) from a table built from scratch: the
    generic w**alpha search over all outside vertices, and the claw search
    at one center over its outside neighbors."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    members = set(maximal_solution(g, rng).members)
    if members and data.draw(st.booleans()):
        members.remove(rng.choice(sorted(members)))  # leave some vertices free
    centers = [c for c in sorted(members) if any(u not in members for u in g.adj[c])]
    if centers and data.draw(st.booleans()):
        center = data.draw(st.sampled_from(centers))
        cands = [u for u in g.adj[center] if u not in members]
        alpha, p = 2, g.w2_int
    else:
        center = None
        cands = [v for v in range(g.n) if v not in members]
        alpha = data.draw(st.sampled_from(ALPHAS))
        p = g.int_powers(alpha)[0]
    want, unpruned = brute_first_improvement(g, members, cands, cap, alpha)
    nodes = count(1)
    a_nbrs = [nbr_set(g, u) & members for u in range(g.n)]
    got = oracle._first_improvement(g, a_nbrs, cands, cap, p, 10 ** 9, nodes, "search", center=center)
    assert got == want
    assert next(nodes) - 1 <= unpruned


@settings(max_examples=100, deadline=None)
@given(prime_weighted_graphs(max_n=10), st.sampled_from(ALPHAS), st.data())
def test_power_weight_improves_integer_alpha_is_exact(g, alpha, data):
    x = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    nx = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    lhs = sum((g.weights[v] ** alpha for v in x), Fraction(0))
    rhs = sum((g.weights[v] ** alpha for v in nx), Fraction(0))
    assert Fraction(*Improvement(frozenset(x), frozenset(nx), Generic(Fraction(alpha))).gain(g)) == lhs - rhs
    p, den = g.int_powers(alpha)
    assert all(Fraction(p[v], den) == g.weights[v] ** alpha for v in range(g.n))


# ------------------------------------------------------------ certificate


def test_certificate_builds_anchor_maps_once():
    for seed in range(6):
        inst = gen_random_packing(12, 3, 9, seed=seed)
        g = build_conflict_graph(inst)
        a = squareimp(g, SolverConfig(mode="squareimp")).final
        opt = exact_mwis(g).best
        with mock.patch.object(certify, "build_anchor_maps", wraps=build_anchor_maps) as spy:
            certify_local_optimum(a, opt, AnalysisParams.from_delta(Fraction(1, 2)))
        assert spy.call_count == 1
