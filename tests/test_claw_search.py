"""The integer claw search, its per-run verdict set, and the one-pass greedy,
checked against the Fraction and repeated-max versions they replaced.

The reference implementations below are kept here on purpose: they are the
plain rational-arithmetic forms of the same searches.
"""

import random
from fractions import Fraction
from typing import Optional
from unittest import mock

from conftest import PrimeWeights, ref_aux_sides
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpack import solvers
from clawpack.circular import ColorCodingParams, aux_edge_check, build_anchor_maps
from clawpack.generators import berman_tight_instance
from clawpack.instances import (
    ClawShaped,
    ConflictGraph,
    Improvement,
    PackingInstance,
    Solution,
    build_conflict_graph,
    neighborhood,
)
from clawpack.solvers import SolverConfig, find_claw_improvement, greedy, logimp, squareimp

# ------------------------------------------------------------ references


def ref_find_claw_improvement(g: ConflictGraph, a: Solution, d: int) -> Optional[Improvement]:
    """The claw search in Fraction arithmetic, without a verdict set."""
    members = a.members
    for v in range(g.n):
        if v in members:
            continue
        if not (g.adj_sets[v] & members):
            return Improvement(frozenset((v,)), frozenset(), ClawShaped(center=None))
    w2 = [w * w for w in g.weights]

    def talons(center: int) -> Optional[frozenset[int]]:
        cands = [u for u in g.adj[center] if u not in members]

        def extend(start, chosen, t_w2, removed, r_w2):
            for i in range(start, len(cands)):
                u = cands[i]
                if any(g.has_edge(u, x) for x in chosen):
                    continue
                new_removed = (g.adj_sets[u] & members) - removed
                nt = t_w2 + w2[u]
                nr = r_w2 + sum((w2[x] for x in new_removed), Fraction(0))
                chosen.append(u)
                if nt > nr:
                    return list(chosen)
                if len(chosen) < d - 1:
                    removed |= new_removed
                    found = extend(i + 1, chosen, nt, removed, nr)
                    if found is not None:
                        return found
                    removed -= new_removed
                chosen.pop()
            return None

        got = extend(0, [], Fraction(0), set(), Fraction(0))
        return frozenset(got) if got else None

    for c in sorted(members):
        got = talons(c)
        if got:
            removed = neighborhood(got, members, g)
            return Improvement(got, frozenset(removed), ClawShaped(center=c))
    return None


def ref_greedy(g: ConflictGraph) -> Solution:
    """Greedy by repeated max over the remaining vertices."""
    alive = set(range(g.n))
    chosen: set[int] = set()
    while alive:
        v = max(alive, key=lambda u: (g.weights[u], -u))
        chosen.add(v)
        alive.discard(v)
        alive -= g.adj_sets[v]
    return Solution.of(g, chosen)


# ------------------------------------------------------------ verdict set


class CheckedClawSearch:
    """Stands in for solvers.find_claw_improvement: every call is compared
    with a from-scratch search on the same solution before it returns."""

    def __init__(self):
        self.calls = 0
        self.skipped = 0

    def __call__(self, g, a, d=None, budget=50_000_000, settled=None):
        assert settled is not None, "the solver must pass its verdict set"
        fresh = find_claw_improvement(g, a, d)
        self.skipped += len(settled & a.members)
        got = find_claw_improvement(g, a, d, budget, settled)
        assert got == fresh
        self.calls += 1
        return got


def run_checked(solver, g, cfg, **kw):
    check = CheckedClawSearch()
    with mock.patch.object(solvers, "find_claw_improvement", check):
        trace = solver(g, cfg, **kw)
    assert check.calls == trace.iterations + 1
    return trace, check


@st.composite
def rational_packings(draw):
    universe = draw(st.integers(3, 9))
    n = draw(st.integers(1, 14))
    sets = draw(st.lists(
        st.lists(st.integers(0, universe - 1), min_size=1, max_size=3, unique=True),
        min_size=n, max_size=n,
    ))
    weights = draw(st.lists(
        st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6),
        min_size=n, max_size=n,
    ))
    return PackingInstance.build(universe, sets, weights, 3)


@settings(max_examples=80, deadline=None)
@given(rational_packings(), st.booleans())
def test_verdict_set_matches_fresh_search(inst, from_greedy):
    g = build_conflict_graph(inst)
    start = greedy(g) if from_greedy else None
    sq, _ = run_checked(squareimp, g, SolverConfig(mode="squareimp"), start=start)
    lg, _ = run_checked(logimp, g, SolverConfig(mode="logimp"), start=start, inst=inst)
    assert find_claw_improvement(g, sq.final) is None
    assert find_claw_improvement(g, lg.final) is None


def tight_copies(d: int, copies: int, seed: int) -> tuple[PackingInstance, list[int]]:
    """Disjoint copies of the tight instance with shuffled ids; returns the
    instance and the copies' small sides."""
    base = berman_tight_instance(d)
    n = len(base.sets)
    perm = list(range(n * copies))
    random.Random(seed).shuffle(perm)
    sets: list = [None] * len(perm)
    weights: list = [None] * len(perm)
    for c in range(copies):
        for i, s in enumerate(base.sets):
            sets[perm[c * n + i]] = sorted(e + c * base.universe_size for e in s)
            weights[perm[c * n + i]] = base.weights[i]
    small = sorted(perm[c * n + i] for c in range(copies) for i in range(d - 1))
    return PackingInstance.build(copies * base.universe_size, sets, weights, base.k), small


def test_verdict_set_across_circular_swaps():
    inst, small = tight_copies(5, 3, seed=11)
    g = build_conflict_graph(inst)
    for mode in ("exhaustive", "rand"):
        params = ColorCodingParams.defaults(g, inst, mode=mode)
        cfg = SolverConfig(mode="logimp", circular=params)
        trace, check = run_checked(logimp, g, cfg, start=Solution.of(g, small), inst=inst)
        kinds = [r.kind for r in trace.improvements]
        assert "circular" in kinds
        assert "claw-shaped" in kinds[kinds.index("circular"):]
        assert check.skipped > 0


# ------------------------------------------------------------ integer path


def random_case(seed: int):
    rng = random.Random(seed)
    n = rng.randint(6, 16)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    pw = PrimeWeights(rng)
    weights = [pw.magnitude(rng.randint(-60, 60)) for _ in range(n)]
    g = ConflictGraph.from_edges(n, edges, weights, d=4)
    order = list(range(n))
    rng.shuffle(order)
    members: set[int] = set()
    for v in order:
        if not (g.adj_sets[v] & members):
            members.add(v)
    return rng, pw, g, Solution.of(g, members)


def test_integer_claw_search_is_exact():
    outcomes = set()
    for seed in range(60):
        rng, pw, g, a = random_case(seed)
        outside = [u for u in range(g.n) if u not in a.members]
        graphs = [g]
        for u in outside[:3]:
            # one talon against its whole solution neighborhood, a hair
            # above or below (or level with) the tie
            target = g.squared_weight_of(g.adj_sets[u] & a.members)
            weights = list(g.weights)
            weights[u] = pw.near_root(target, 2, above=rng.random() < 0.5)
            graphs.append(g.reweighted(weights))
        for h in graphs:
            got = find_claw_improvement(h, a, 4)
            assert got == ref_find_claw_improvement(h, a, 4)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_integer_aux_edge_check_is_exact():
    outcomes = set()
    for seed in range(60):
        rng, pw, g, a = random_case(seed)
        maps = build_anchor_maps(g, a)
        for u in sorted(maps.second):
            v1, v2 = maps.heaviest[u], maps.second[u]
            at1 = [x for x in maps.heaviest if x != u and maps.heaviest[x] == v1]
            at2 = [x for x in maps.heaviest if x != u and maps.heaviest[x] == v2]
            y1 = tuple(rng.sample(at1, min(len(at1), rng.randint(0, 2))))
            y2 = tuple(rng.sample(at2, min(len(at2), rng.randint(0, 2))))
            lhs, rhs = ref_aux_sides(u, y1, y2, g, maps)
            assert aux_edge_check(u, y1, y2, g, a, maps) == (lhs > rhs)
            # move w(u) next to the tie; the right side does not read w(u)
            target = rhs - (lhs - g.weights[u] ** 2)
            if target <= 0:
                continue
            for above in (False, True):
                weights = list(g.weights)
                weights[u] = pw.near_root(target, 2, above)
                h = g.reweighted(weights)
                lhs, rhs = ref_aux_sides(u, y1, y2, h, maps)
                got = aux_edge_check(u, y1, y2, h, a, maps)
                assert got == (lhs > rhs)
                outcomes.add(got)
    assert outcomes == {True, False}


# ------------------------------------------------------------ greedy


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_greedy_matches_repeated_max(data):
    n = data.draw(st.integers(1, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * n) if pairs else st.just([]))
    weights = data.draw(st.lists(
        st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]),
        min_size=n, max_size=n,
    ))
    g = ConflictGraph.from_edges(n, edges, weights)
    assert greedy(g).members == ref_greedy(g).members
