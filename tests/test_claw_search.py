"""The integer claw search, its per-run state, the integer swap bookkeeping
and the one-pass greedy, checked against the Fraction, from-scratch and
repeated-max versions they replaced.

The reference implementations below are kept here on purpose: they are the
plain rational-arithmetic forms of the same searches.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional
from unittest import mock

import pytest
from conftest import PrimeWeights, claw_search, ref_aux_sides, tight_copies, w2_of, w_of
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpack import solvers
from clawpack.circular import ColorCodingParams, aux_edge_check, build_anchor_maps
from clawpack.instances import (
    BudgetExceededError,
    ClawShaped,
    ConflictGraph,
    Improvement,
    PackingInstance,
    Solution,
    build_conflict_graph,
    neighborhood,
    verify_solution,
)
from clawpack.solvers import (
    ClawSearchState,
    SolverConfig,
    find_claw_improvement,
    greedy,
    logimp,
    squareimp,
)

# ------------------------------------------------------------ references


def ref_find_claw_improvement(g: ConflictGraph, a: Solution, d: int) -> Optional[Improvement]:
    """The claw search in Fraction arithmetic, without a verdict set."""
    return ref_claw_search(g, a, d)[0]


def ref_claw_search(g: ConflictGraph, a: Solution, d: int) -> tuple[Optional[Improvement], int]:
    """The reference claw search's result and its talon-search nodes (one
    per independent extension), counted across all centers it tried."""
    members = a.members
    for v in range(g.n):
        if v in members:
            continue
        if not (g.adj_sets[v] & members):
            return Improvement(frozenset((v,)), frozenset(), ClawShaped(center=None)), 0
    w2 = [w * w for w in g.weights]
    nodes = 0

    def talons(center: int) -> Optional[frozenset[int]]:
        cands = [u for u in g.adj[center] if u not in members]

        def extend(start, chosen, t_w2, removed, r_w2):
            nonlocal nodes
            for i in range(start, len(cands)):
                u = cands[i]
                if any(g.has_edge(u, x) for x in chosen):
                    continue
                nodes += 1
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
            return Improvement(got, frozenset(removed), ClawShaped(center=c)), nodes
    return None, nodes


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


# ------------------------------------------------------------ per-run state


def scan_free(g: ConflictGraph, members: set[int]) -> set[int]:
    """{v not in A : N(v) & A empty}, from scratch."""
    return {v for v in range(g.n) if v not in members and not (g.adj_sets[v] & members)}


class CheckedClawSearch:
    """Stands in for solvers.find_claw_improvement: at every call the run's
    free set is compared with a scan of all vertices, and the result with
    a from-scratch search and with the Fraction search."""

    def __init__(self):
        self.calls = 0
        self.skipped = 0

    def __call__(self, state):
        assert state is not None, "the solver must pass its claw-search state"
        g, d = state.g, state.max_talons + 1
        a = Solution(g, state.members)  # the run's solution shares this set
        assert state.free == scan_free(g, a.members)
        assert state.settled <= a.members
        fresh = claw_search(g, a, d)
        self.skipped += len(state.settled)
        got = find_claw_improvement(state)
        assert got == fresh == ref_find_claw_improvement(g, a, d)
        self.calls += 1
        return got


def within_two(g: ConflictGraph, vertices) -> set[int]:
    """The vertices at distance at most 2 from `vertices`."""
    ball = set(vertices)
    frontier = ball
    for _ in range(2):
        frontier = {u for v in frontier for u in g.adj[v]} - ball
        ball |= frontier
    return ball


UPDATE = ClawSearchState.update  # the real one, which the stand-in below wraps


class CheckedClawUpdate:
    """Stands in for ClawSearchState.update: after every swap the settled
    set must be the one from before it minus x and minus the radius-2 ball
    around removed, so a state that reopens too many centers, or too few,
    fails, and the free set must match a scan of all vertices."""

    def __init__(self):
        self.swaps = 0
        self.reopened = 0

    def __call__(self, state, imp):
        before = set(state.settled)
        UPDATE(state, imp)
        want = before - imp.x - within_two(state.g, imp.removed)
        assert state.settled == want
        assert state.free == scan_free(state.g, state.members)
        self.swaps += 1
        self.reopened += len(before) - len(want)


def run_checked(solver, g, cfg, **kw):
    check, update = CheckedClawSearch(), CheckedClawUpdate()
    with (
        mock.patch.object(solvers, "find_claw_improvement", check),
        mock.patch.object(ClawSearchState, "update", lambda state, imp: update(state, imp)),
    ):
        trace = solver(g, cfg, **kw)
    assert check.calls == trace.iterations + 1
    assert update.swaps == trace.iterations
    return trace, check, update


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
    sq, _, _ = run_checked(squareimp, g, SolverConfig(mode="squareimp"), start=start)
    lg, _, _ = run_checked(logimp, g, SolverConfig(mode="logimp"), start=start, inst=inst)
    assert claw_search(g, sq.final) is None
    assert claw_search(g, lg.final) is None


def test_verdict_set_across_circular_swaps():
    inst, small = tight_copies(5, 3, seed=11)
    g = build_conflict_graph(inst)
    for mode in ("exhaustive", "rand"):
        params = ColorCodingParams.defaults(g, inst, mode=mode)
        cfg = SolverConfig(mode="logimp", circular=params)
        trace, check, update = run_checked(logimp, g, cfg, start=Solution.of(g, small), inst=inst)
        kinds = [r.kind for r in trace.improvements]
        assert "circular" in kinds
        assert "claw-shaped" in kinds[kinds.index("circular"):]
        assert check.skipped > 0 and update.reopened > 0


def test_claw_state_under_scaling():
    rng = random.Random(5)
    sets = [rng.sample(range(30), rng.randint(1, 3)) for _ in range(40)]
    weights = [Fraction(rng.randint(1, 90), rng.randint(1, 9)) for _ in sets]
    inst = PackingInstance.build(30, sets, weights, 3)
    g = build_conflict_graph(inst)
    for mode in ("squareimp", "logimp"):
        cfg = SolverConfig(mode=mode, scaling_n=Fraction(3, 2))
        trace, _, _ = run_checked(solvers.solve, g, cfg, inst=inst)
        assert trace.scaled and trace.iterations > 0


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
            target = w2_of(g, g.adj_sets[u] & a.members)
            weights = list(g.weights)
            weights[u] = pw.near_root(target, 2, above=rng.random() < 0.5)
            graphs.append(g.reweighted(weights))
        for h in graphs:
            got = claw_search(h, a, 4)
            assert got == ref_find_claw_improvement(h, a, 4)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_claw_budget_fires_below_the_reference_node_count(monkeypatch):
    fired, outcomes = 0, set()
    for seed in range(30):
        _, _, g, a = random_case(seed)
        want, nodes = ref_claw_search(g, a, 4)
        for budget in sorted({0, 1, nodes // 2, max(0, nodes - 1), nodes, nodes + 1}):
            monkeypatch.setattr(solvers, "_MAX_CLAW_NODES", budget)
            if budget < nodes:
                with pytest.raises(BudgetExceededError, match=f"^claw search exceeded {budget} nodes$"):
                    claw_search(g, a, 4)
                fired += 1
            else:
                assert claw_search(g, a, 4) == want
        outcomes.add(want is None)
    assert fired > 0 and outcomes == {True, False}


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
    if data.draw(st.booleans()):
        weights = data.draw(st.lists(
            st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]),
            min_size=n, max_size=n,
        ))
    else:
        weights = prime_weights(random.Random(data.draw(st.integers(0, 2**32))), n)
    g = ConflictGraph.from_edges(n, edges, weights)
    assert greedy(g).members == ref_greedy(g).members


# ------------------------------------------------------------ swap bookkeeping


@contextmanager
def checked_apply():
    """Wraps Solution.apply: every swap's delta_w2 and the total after it
    are compared with the Fraction sums of the weights. Yields the count of
    checked swaps per kind."""
    kinds: Counter = Counter()
    original = Solution.apply

    def apply(self, imp):
        g = self.g
        assert imp.delta_w2(g) == w2_of(g, imp.x) - w2_of(g, imp.removed)
        original(self, imp)
        assert self.total_w == w_of(g, self.members)
        kinds[imp.kind_name()] += 1

    with mock.patch.object(Solution, "apply", apply):
        yield kinds


def prime_weights(rng: random.Random, n: int) -> list[Fraction]:
    """Distinct prime denominators at magnitudes 2**-60..2**60, with about
    a quarter of the weights exact copies of earlier ones."""
    pw = PrimeWeights(rng)
    weights: list[Fraction] = []
    for _ in range(n):
        if weights and rng.random() < 0.25:
            weights.append(rng.choice(weights))
        else:
            weights.append(pw.magnitude(rng.randint(-60, 60)))
    return weights


def prime_packing(seed: int) -> PackingInstance:
    rng = random.Random(seed)
    sets = [rng.sample(range(24), rng.randint(1, 3)) for _ in range(30)]
    return PackingInstance.build(24, sets, prime_weights(rng, len(sets)), 3)


def test_integer_bookkeeping_claw_swaps():
    with checked_apply() as kinds:
        for seed in range(6):
            g = build_conflict_graph(prime_packing(seed))
            for start in (None, greedy(g)):
                assert verify_solution(g, squareimp(g, SolverConfig(), start=start).final)
    assert kinds["claw-shaped"] > 0


def test_integer_bookkeeping_circular_swaps():
    pw = PrimeWeights(random.Random(3))
    inst, small = tight_copies(5, 3, seed=4, scales=[pw.magnitude(e) for e in (-60, 7, 60)])
    g = build_conflict_graph(inst)
    assert len({w.denominator for w in g.weights}) == 3
    with checked_apply() as kinds:
        for mode in ("exhaustive", "rand"):
            cfg = SolverConfig(mode="logimp", circular=ColorCodingParams.defaults(g, inst, mode=mode))
            assert verify_solution(g, logimp(g, cfg, start=Solution.of(g, small), inst=inst).final)
    assert kinds["circular"] > 0 and kinds["claw-shaped"] > 0


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3), Fraction(-1)])
def test_integer_bookkeeping_generic_swaps(alpha):
    with checked_apply() as kinds:
        for seed in range(4):
            g = build_conflict_graph(prime_packing(seed))
            cfg = SolverConfig(mode="parametrized", alpha=alpha, size_cap_factor=Fraction(1, 2))
            assert verify_solution(g, solvers.parametrized_local_search(g, cfg).final)
    assert kinds["generic"] > 0


def test_apply_with_distinct_denominators():
    g = ConflictGraph.from_edges(3, [(0, 1)], [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)])
    assert g.w_lcm == 231
    imp = Improvement(frozenset({1}), frozenset({0}), ClawShaped(center=0))
    assert imp.delta_w2(g) == Fraction(4, 49) - Fraction(1, 9)
    a = Solution.of(g, {0, 2})
    a.apply(imp)
    assert a.members == {1, 2}
    assert a.total_w == w_of(g, {1, 2}) == Fraction(2, 7) + Fraction(5, 11)
