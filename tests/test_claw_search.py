"""The integer claw search, its per-run state, the integer swap bookkeeping
and the one-pass greedy, checked against the Fraction, from-scratch and
repeated-max versions they replaced.

The reference implementations below are kept here on purpose: they are the
plain rational-arithmetic forms of the same searches.
"""

import functools
import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional
from unittest import mock

import pytest
from conftest import (
    PrimeWeights, claw_search, expand_steps, nbr_set, ref_a_nbrs, ref_anchors, ref_aux_sides, tight_copies, w2_of,
    w_of,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpack import instances, oracle, solvers
from clawpack.circular import (
    CircularState,
    ColorCodingParams,
    aux_edge_check,
    build_anchor_maps,
    find_circular_improvement,
)
from clawpack.generators import berman_tight_instance, gen_random_packing
from clawpack.instances import (
    BudgetExceededError,
    ClawShaped,
    ConflictGraph,
    Generic,
    Improvement,
    PackingInstance,
    Solution,
    build_conflict_graph,
    neighborhood,
    verify_solution,
)
from clawpack.oracle import exhaustive_improvement_search
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


def ref_claw_search(g: ConflictGraph, a: Solution, d: int, bounded: bool = False) -> tuple[Optional[Improvement], int]:
    """The reference claw search's result and its talon-search nodes (one
    per independent extension), counted across all centers it tried.

    `bounded` applies the charged bound of `oracle._first_improvement`:
    at center c each candidate talon u is charged q(u) = w^2(u) minus the
    share floor(w2_int[a] / m) / L^2 of each member a != c next to it, m
    the smaller of d-1 and the number of candidates next to a. The center
    is skipped when its d-1 largest positive q sum to at most w^2(c), and
    a talon set T's extensions when the d-1-|T| largest positive q among
    the talons that could still join T sum to at most w^2(c) - q(T); with
    one talon left to pick, only the talons whose positive q exceeds
    w^2(c) - q(T) are tried. The unbounded search returns the same
    result. While some vertex is free, the result is the step of free
    vertices: each free vertex in id order that no earlier pick is next
    to."""
    members = a.members
    picked: list[int] = []
    for v in range(g.n):
        if v not in members and not (nbr_set(g, v) & members) and not any(g.has_edge(v, u) for u in picked):
            picked.append(v)
    if picked:
        return Improvement(frozenset(picked), frozenset(), ClawShaped(center=None)), 0
    w2 = [w * w for w in g.weights]
    nodes = 0

    def charges(center: int, cands: list[int]) -> dict[int, Fraction]:
        """Each candidate's q at `center`, in Fractions from the same floors."""
        others = {u: (nbr_set(g, u) & members) - {center} for u in cands}
        m = Counter(x for u in cands for x in others[u])
        share = {x: Fraction(g.w2_int[x] // min(k, d - 1), g.w_lcm ** 2) for x, k in m.items()}
        return {u: w2[u] - sum((share[x] for x in others[u]), Fraction(0)) for u in cands}

    def covers(q, talons, room, deficit) -> bool:
        return not bounded or sum(sorted(max(q[x], 0) for x in talons)[-room:]) > deficit

    def talons(center: int) -> Optional[frozenset[int]]:
        cands = [u for u in g.adj[center] if u not in members]
        q = charges(center, cands)
        if not covers(q, cands, d - 1, w2[center]):
            return None

        def extend(start, chosen, t_w2, removed, r_w2, t_q, need=None):
            nonlocal nodes
            for i in range(start, len(cands)):
                u = cands[i]
                if any(g.has_edge(u, x) for x in chosen):
                    continue
                if need is not None and max(q[u], 0) <= need:
                    continue
                nodes += 1
                new_removed = (nbr_set(g, u) & members) - removed
                nt = t_w2 + w2[u]
                nr = r_w2 + sum((w2[x] for x in new_removed), Fraction(0))
                nq = t_q + q[u]
                chosen.append(u)
                if nt > nr:
                    return list(chosen)
                room = d - 1 - len(chosen)
                later = [x for x in cands[i + 1:] if not any(g.has_edge(x, y) for y in chosen)]
                last = bounded and room == 1
                if room and later and (last or covers(q, later, room, w2[center] - nq)):
                    removed |= new_removed
                    found = extend(i + 1, chosen, nt, removed, nr, nq, w2[center] - nq if last else None)
                    if found is not None:
                        return found
                    removed -= new_removed
                chosen.pop()
            return None

        got = extend(0, [], Fraction(0), set(), Fraction(0), Fraction(0))
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
        alive -= nbr_set(g, v)
    return Solution.of(g, chosen)


# ------------------------------------------------------------ per-run state


def scan_free(g: ConflictGraph, members: set[int]) -> set[int]:
    """{v not in A : N(v) & A empty}, from scratch."""
    return {v for v in range(g.n) if v not in members and not (nbr_set(g, v) & members)}


class CheckedClawSearch:
    """Stands in for solvers.find_claw_improvement: at every call the run's
    free set is compared with a scan of all vertices, and the result with
    a from-scratch search and with the Fraction search."""

    def __init__(self):
        self.calls = 0
        self.skipped = 0
        self.hits: list[Improvement] = []

    def __call__(self, state):
        assert state is not None, "the solver must pass its claw-search state"
        g, d = state.g, state.max_talons + 1
        a = Solution(g, state.a.members)  # the run's member set, with a table of its own
        assert state.free == scan_free(g, a.members)
        assert state.settled <= a.members
        fresh = claw_search(g, a, d)
        self.skipped += len(state.settled)
        got = find_claw_improvement(state)
        assert got == fresh == ref_find_claw_improvement(g, a, d)
        self.calls += 1
        if got is not None:
            self.hits.append(got)
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
    fails; the solution's N(u, A) table must match N(u) & A for every
    vertex u, list by list in (-w, id) order; and the free set must match a scan of all vertices and be
    the non-members whose table entry is empty. Keeps every swap it sees."""

    def __init__(self):
        self.swaps: list[Improvement] = []
        self.reopened = 0

    def __call__(self, state, imp):
        before = set(state.settled)
        UPDATE(state, imp)
        g, a = state.g, state.a
        members = a.members
        want = before - imp.x - within_two(g, imp.removed)
        assert state.settled == want
        assert a.a_nbrs == ref_a_nbrs(g, members)
        assert state.free == scan_free(g, members)
        assert state.free == {v for v in range(g.n) if v not in members and not a.a_nbrs[v]}
        self.swaps.append(imp)
        self.reopened += len(before) - len(want)


def run_checked(solver, g, cfg, **kw):
    """run `solver` with both stand-ins: the claw search is called once per
    applied swap (a step of free vertices is one) plus the final call, every
    swap reaches `update` once, every claw hit is a swap the run applied,
    and the trace records each step as `expand_steps` does."""
    check, update = CheckedClawSearch(), CheckedClawUpdate()
    with (
        mock.patch.object(solvers, "find_claw_improvement", check),
        mock.patch.object(ClawSearchState, "update", lambda state, imp: update(state, imp)),
    ):
        trace = solver(g, cfg, **kw)
    assert check.calls == len(update.swaps) + 1
    assert check.hits == [imp for imp in update.swaps if imp.kind_name() == "claw-shaped"]
    assert [(r.kind, r.size) for r in trace.improvements] == expand_steps(update.swaps)
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


@settings(max_examples=80, deadline=None)
@given(
    rational_packings(),
    st.sampled_from(["squareimp", "logimp"]),
    st.sampled_from(["empty", "greedy", "scaled"]),
    st.sampled_from(["exhaustive", "rand"]),
)
def test_neighbor_table_and_free_set_follow_every_swap(inst, mode, start, circ_mode):
    """After every swap of a squareimp or logimp run, from empty, from
    greedy or under scaling, in either circular mode, `CheckedClawUpdate`
    compares the N(u, A) table with N(u) & A for every u, and the free set
    with the non-members whose entry is empty. (The tight-copy runs of
    `test_verdict_set_across_circular_swaps` check the same across circular
    swaps.)"""
    g = build_conflict_graph(inst)
    circular = ColorCodingParams.defaults(g, inst, mode=circ_mode) if mode == "logimp" else None
    if start == "scaled":
        cfg = SolverConfig(mode=mode, scaling_n=Fraction(3, 2), circular=circular)
        trace, _, update = run_checked(solvers.solve, g, cfg, inst=inst)
    else:
        cfg = SolverConfig(mode=mode, circular=circular)
        solver = squareimp if mode == "squareimp" else functools.partial(logimp, inst=inst)
        trace, _, update = run_checked(solver, g, cfg, start=greedy(g) if start == "greedy" else None)
    assert update.swaps or start == "greedy"
    assert verify_solution(g, trace.final)


# ------------------------------------------------------------ reference model


def model_trace(g: ConflictGraph, mode: str, inst: Optional[PackingInstance] = None, late_frees: Optional[list] = None):
    """The trace of a from-empty squareimp or logimp run that inserts one
    free vertex per step, the lowest by a scan of all vertices, and
    otherwise calls the claw search (then, for logimp, the circular search)
    as the solvers do. `late_frees` gets one entry per free vertex inserted
    after a swap with a center."""
    d = solvers._resolve_d(g, None)
    a = Solution.of(g, ())
    claw = ClawSearchState(g, a, d)
    states: list = [claw]
    if mode == "logimp":
        circ = CircularState(g, ColorCodingParams.defaults(g, inst), d, inst, random.Random(0))
        states.append(circ)
    centered = False

    def step():
        nonlocal centered
        free = scan_free(g, a.members)
        if free:
            if centered and late_frees is not None:
                late_frees.append(min(free))
            return Improvement(frozenset({min(free)}), frozenset(), ClawShaped(center=None))
        imp = find_claw_improvement(claw)
        if imp is None and mode == "logimp":
            build_anchor_maps(g, a, circ)
            imp = find_circular_improvement(circ, a)
        centered = centered or imp is not None
        return imp

    return solvers._loop(a, step, states)


def real_trace(g: ConflictGraph, mode: str, inst: Optional[PackingInstance] = None):
    if mode == "squareimp":
        return squareimp(g, SolverConfig(mode="squareimp"))
    return logimp(g, SolverConfig(mode="logimp"), inst=inst)


@settings(max_examples=80, deadline=None)
@given(rational_packings(), st.sampled_from(["squareimp", "logimp"]))
def test_from_empty_trace_is_the_one_free_vertex_per_step_trace(inst, mode):
    g = build_conflict_graph(inst)
    assert real_trace(g, mode, inst).to_json_obj() == model_trace(g, mode, inst).to_json_obj()


@pytest.mark.parametrize("mode", ["squareimp", "logimp"])
def test_one_step_of_free_vertices_covers_mid_run_frees(mode):
    """Random packings whose runs free vertices after a claw with a center:
    the real trace still equals the model's, free vertex by free vertex."""
    late = []
    for seed in range(4):
        inst = gen_random_packing(60, 3, 45, seed=seed)
        g = build_conflict_graph(inst)
        assert real_trace(g, mode, inst).to_json_obj() == model_trace(g, mode, inst, late).to_json_obj()
    assert late


# ------------------------------------------------------------ integer path


def random_case(seed: int):
    rng = random.Random(seed)
    n = rng.randint(6, 16)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    pw = PrimeWeights(rng)
    weights = [pw.magnitude(rng.randint(-60, 60)) for _ in range(n)]
    g = ConflictGraph.from_edges(n, edges, weights, d=4)
    return rng, pw, g, random_maximal(g, rng)


def random_maximal(g: ConflictGraph, rng: random.Random) -> Solution:
    """A maximal independent set, greedy over a shuffled vertex order."""
    order = list(range(g.n))
    rng.shuffle(order)
    members: set[int] = set()
    for v in order:
        if not (nbr_set(g, v) & members):
            members.add(v)
    return Solution.of(g, members)


def test_integer_claw_search_is_exact():
    outcomes = set()
    for seed in range(60):
        rng, pw, g, a = random_case(seed)
        outside = [u for u in range(g.n) if u not in a.members]
        graphs = [g]
        for u in outside[:3]:
            # one talon against its whole solution neighborhood, a hair
            # above or below (or level with) the tie
            target = w2_of(g, nbr_set(g, u) & a.members)
            weights = list(g.weights)
            weights[u] = pw.near_root(target, 2, above=rng.random() < 0.5)
            graphs.append(g.reweighted(weights))
        for h in graphs:
            got = claw_search(h, a, 4)
            assert got == ref_find_claw_improvement(h, a, 4)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_claw_budget_fires_below_the_reference_node_count(monkeypatch):
    fired, skipped, outcomes = 0, 0, set()
    for seed in range(30):
        _, _, g, a = random_case(seed)
        want, nodes = ref_claw_search(g, a, 4, bounded=True)
        unbounded, all_nodes = ref_claw_search(g, a, 4)
        assert unbounded == want and all_nodes >= nodes
        skipped += all_nodes - nodes
        for budget in sorted({0, 1, nodes // 2, max(0, nodes - 1), nodes, nodes + 1}):
            monkeypatch.setattr(solvers, "_MAX_CLAW_NODES", budget)
            if budget < nodes:
                with pytest.raises(BudgetExceededError, match=f"^claw search exceeded {budget} nodes$"):
                    claw_search(g, a, 4)
                fired += 1
            else:
                assert claw_search(g, a, 4) == want
        outcomes.add(want is None)
    assert fired > 0 and skipped > 0 and outcomes == {True, False}


def test_integer_aux_edge_check_is_exact():
    outcomes = set()
    for seed in range(60):
        rng, pw, g, a = random_case(seed)
        a_nbrs = build_anchor_maps(g, a)
        ref = ref_anchors(g, a)
        for u in sorted(ref.second):
            v1, v2 = ref.heaviest[u], ref.second[u]
            assert a_nbrs[u][:2] == [v1, v2]
            at1 = [x for x in ref.heaviest if x != u and ref.heaviest[x] == v1]
            at2 = [x for x in ref.heaviest if x != u and ref.heaviest[x] == v2]
            y1 = tuple(rng.sample(at1, min(len(at1), rng.randint(0, 2))))
            y2 = tuple(rng.sample(at2, min(len(at2), rng.randint(0, 2))))
            lhs, rhs = ref_aux_sides(u, y1, y2, g, ref)
            assert aux_edge_check(u, y1, y2, g, a_nbrs) == (lhs > rhs)
            # move w(u) next to the tie; the right side does not read w(u)
            target = rhs - (lhs - g.weights[u] ** 2)
            if target <= 0:
                continue
            for above in (False, True):
                weights = list(g.weights)
                weights[u] = pw.near_root(target, 2, above)
                h = g.reweighted(weights)
                lhs, rhs = ref_aux_sides(u, y1, y2, h, ref)
                got = aux_edge_check(u, y1, y2, h, a_nbrs)
                assert got == (lhs > rhs)
                outcomes.add(got)
    assert outcomes == {True, False}


# ------------------------------------------------------------ wide claws

# random packings at k = 5 and 7 (d = 6 and 8), where the gain bound of the
# subset walk skips the most
WIDE = [(5, 100), (7, 60)]


def wide_packing(k: int, n: int, seed: int):
    inst = gen_random_packing(n, k, n, weight_dist=("uniform", 10), seed=seed)
    return inst, build_conflict_graph(inst)


def counted_walk(counter: list, send: bool):
    """`oracle`'s subset walk, counting the subsets it yields in counter[0];
    with `send` False every deficit the reader sends back is dropped, so
    the walk visits every subset."""

    def walk(g, cands, cap, p=None):
        inner = instances.independent_subsets(g, cands, cap, p)
        deficit = None
        while True:
            try:
                x = inner.send(deficit if send else None)
            except StopIteration:
                return
            counter[0] += 1
            deficit = yield x

    return walk


@pytest.mark.parametrize("k, n", WIDE)
def test_bounded_claw_search_matches_the_unbounded_reference_on_wide_claws(k, n):
    hits = 0
    for seed in range(2):
        _, g = wide_packing(k, n, seed)
        for a in (Solution.of(g, ()), greedy(g)):
            while True:
                got = claw_search(g, a)
                assert got == ref_claw_search(g, a, g.d)[0]
                if got is None:
                    break
                hits += got.kind.center is not None
                a.apply(got)
    assert hits > 0


@pytest.mark.parametrize("k, n", WIDE)
def test_traces_and_improvement_searches_match_with_the_bound_switched_off(k, n, monkeypatch):
    bounded, unbounded = [0], [0]
    for seed in range(2):
        inst, g = wide_packing(k, n, seed)
        runs = [
            lambda: squareimp(g, SolverConfig(mode="squareimp")).to_json_obj(),
            lambda: logimp(g, SolverConfig(mode="logimp"), inst=inst).to_json_obj(),
        ]
        ends = [greedy(g), squareimp(g, SolverConfig(mode="squareimp")).final]
        searches = [
            lambda a=a, alpha=alpha: exhaustive_improvement_search(g, a, Fraction(alpha), 3)
            for a in ends
            for alpha in (2, 1, -1)
        ]
        for run in runs + searches:
            monkeypatch.setattr(oracle, "independent_subsets", counted_walk(bounded, send=True))
            want = run()
            monkeypatch.setattr(oracle, "independent_subsets", counted_walk(unbounded, send=False))
            assert run() == want
    assert bounded[0] < unbounded[0]


# ------------------------------------------------------------ tight claws


def tight_near_ties(d: int, seed: int) -> ConflictGraph:
    """`berman_tight_instance(d)`, where every talon carries just what it
    removes, reweighted next to its ties: each small-side vertex at one
    weight w or a hair above or below it in the square, and each big-side
    vertex likewise next to one of its small-side neighbours."""
    g = build_conflict_graph(berman_tight_instance(d))
    rng = random.Random(seed)
    pw = PrimeWeights(rng)

    def near(w: Fraction) -> Fraction:
        side = rng.randrange(3)
        return w if side == 2 else pw.near_root(w * w, 2, above=side == 1)

    w = pw.magnitude(0)
    weights = [near(w) for _ in range(d - 1)]
    weights += [near(weights[rng.choice(g.adj[v])]) for v in range(d - 1, g.n)]
    return g.reweighted(weights)


def charged_hits(g: ConflictGraph, a: Solution, d: int, walked: list) -> int:
    """Applies claw improvements to `a` until none is left. Each search
    must return what both Fraction references return and walk, as counted
    in walked[0] by `counted_walk`, the nodes of the bounded one. Returns
    the number of hits with a center."""
    hits = 0
    while True:
        walked[0] = 0
        got = claw_search(g, a, d)
        want, nodes = ref_claw_search(g, a, d, bounded=True)
        assert got == want == ref_claw_search(g, a, d)[0]
        assert walked[0] == nodes
        if got is None:
            return hits
        hits += got.kind.center is not None
        a.apply(got)


@pytest.mark.parametrize("d", range(4, 11))
def test_charged_claw_search_matches_the_unbounded_reference_on_tight_near_ties(d, monkeypatch):
    walked = [0]
    monkeypatch.setattr(oracle, "independent_subsets", counted_walk(walked, send=True))
    hits = 0
    for seed in range(2):
        g = tight_near_ties(d, seed)
        for a in (Solution.of(g, range(d - 1)), random_maximal(g, random.Random(seed))):
            hits += charged_hits(g, a, d, walked)
    assert hits > 0


def test_charged_claw_search_matches_the_references_at_exact_integer_ties(monkeypatch):
    # small integer weights, so talon sets often carry exactly what they
    # remove, and the charge's floors often equal the weights
    walked = [0]
    monkeypatch.setattr(oracle, "independent_subsets", counted_walk(walked, send=True))
    hits = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(6, 16)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = ConflictGraph.from_edges(n, edges, [rng.randint(1, 3) for _ in range(n)], d=4)
        hits += charged_hits(g, random_maximal(g, rng), 4, walked)
    assert hits > 0


def test_squareimp_walks_no_talon_nodes_on_the_tight_instance(monkeypatch):
    walked = [0]
    monkeypatch.setattr(oracle, "independent_subsets", counted_walk(walked, send=True))
    g = build_conflict_graph(berman_tight_instance(12))
    trace = squareimp(g, SolverConfig(mode="squareimp"))
    assert trace.final.members == set(range(11))
    assert walked[0] == 0


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
    """Wraps Solution.apply: every swap's integer gain, in its own exponent
    (alpha for a generic swap, 2 otherwise), and the total after it are
    compared with the Fraction sums of the weights, and the N(u, A) table,
    which every solver reads before its first swap, with N(u) & A for every
    vertex u, list by list in (-w, id) order. Yields the count of checked swaps per kind."""
    kinds: Counter = Counter()
    original = Solution.apply

    def apply(self, imp):
        g = self.g
        k = imp.kind.alpha if isinstance(imp.kind, Generic) else 2

        def power_sum(vs):
            return sum((g.weights[v] ** k for v in vs), Fraction(0))

        assert Fraction(*imp.gain(g)) == power_sum(imp.x) - power_sum(imp.removed)
        original(self, imp)
        assert self.total_w == w_of(g, self.members)
        assert self._a_nbrs is not None
        assert self.a_nbrs == ref_a_nbrs(g, self.members)
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
    num, den = imp.gain(g)
    assert den == 231 ** 2 and Fraction(num, den) == Fraction(4, 49) - Fraction(1, 9)
    a = Solution.of(g, {0, 2})
    a.apply(imp)
    assert a.members == {1, 2}
    assert a.total_w == w_of(g, {1, 2}) == Fraction(2, 7) + Fraction(5, 11)


def test_apply_builds_no_table_that_was_never_read():
    """A solution builds its N(u, A) table on first read only: `apply`
    leaves an unread one unbuilt, and keeps a read one current."""
    g = ConflictGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [1, 3, 1, 1])
    imp = Improvement(frozenset({1}), frozenset({0, 2}), ClawShaped(center=0))
    a, read = Solution.of(g, {0, 2}), Solution.of(g, {0, 2})
    assert read.a_nbrs == [[], [0, 2], [], [2]]
    a.apply(imp)
    read.apply(imp)
    assert a._a_nbrs is None
    assert a.members == read.members == {1}
    assert list(map(sorted, read.a_nbrs)) == list(map(sorted, a.a_nbrs)) == [[1], [], [1], []]


def test_free_set_drops_its_table_after_the_first_step():
    """From empty on 2,000 random 3-sets every vertex is free. The first step
    inserts a maximal set of them and leaves the free set empty and holding
    no table, which every later step's `sorted(state.free)` would walk."""
    g = build_conflict_graph(gen_random_packing(2000, 3, 2000, seed=0))
    a = Solution.of(g, ())
    state = ClawSearchState(g, a, solvers._resolve_d(g, None))
    assert len(state.free) == g.n
    imp = find_claw_improvement(state)
    assert imp.kind.center is None
    a.apply(imp)
    state.update(imp)
    assert not state.free and sys.getsizeof(state.free) == sys.getsizeof(set())
