import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from conftest import PrimeWeights, enumerate_colorful_cycles, ref_aux_sides, tight_copies

from clawpack import circular
from clawpack.circular import (
    AnchorMaps,
    AuxEdge,
    AuxGraph,
    AuxVertex,
    CircularState,
    ColorCodingParams,
    SearchIncompleteError,
    _assemble,
    _colorful_cycles,
    _independent_subsets,
    _two_cycle_candidates,
    aux_edge_check,
    build_anchor_maps,
    build_aux_graph,
    charge_to_anchor,
    find_circular_improvement,
    max_cycle_len_for,
    repetitions_for,
    run_color_coding,
    trial_success_bound,
    validate_circular,
)
from clawpack.generators import berman_tight_instance, gen_berman_tight, gen_random_packing
from clawpack.instances import (
    ConflictGraph,
    ContractError,
    InputError,
    PackingInstance,
    Solution,
    build_conflict_graph,
)
from clawpack.oracle import exhaustive_improvement_search
from clawpack.solvers import SolverConfig, greedy, logimp, solve, squareimp

DP_BUDGET = 2_000_000  # colorful DP states per coloring


def berman_setup(d=4):
    inst = berman_tight_instance(d)
    g = build_conflict_graph(inst)
    a = Solution.of(g, range(d - 1))
    return inst, g, a


def test_anchor_maps_weighted():
    g = ConflictGraph.from_edges(3, [(2, 0), (2, 1)], [5, 3, 1], d=3)
    a = Solution.of(g, {0, 1})
    maps = build_anchor_maps(g, a)
    assert maps.heaviest[2] == 0 and maps.second[2] == 1


def test_anchor_maps_tie_to_lowest_id():
    g = ConflictGraph.from_edges(4, [(3, 0), (3, 1), (3, 2)], [5, 5, 5, 1], d=4)
    a = Solution.of(g, {0, 1, 2})
    maps = build_anchor_maps(g, a)
    assert maps.heaviest[3] == 0 and maps.second[3] == 1


def test_anchor_maps_berman_pair():
    _, g, a = berman_setup(4)
    maps = build_anchor_maps(g, a)
    # first pair-set vertex (elements 1,2) anchors at element vertices 0 then 1
    assert maps.heaviest[6] == 0 and maps.second[6] == 1


def test_anchor_maps_require_maximal():
    g = ConflictGraph.from_edges(2, [], [1, 1], d=3)
    a = Solution.of(g, {0})
    with pytest.raises(ContractError):
        build_anchor_maps(g, a)


def test_aux_edge_check_berman_values():
    _, g, a = berman_setup(4)
    maps = build_anchor_maps(g, a)
    # pair {1,2} with both singleton companions: 1 + 1 > 1
    assert aux_edge_check(6, (3,), (4,), g, a, maps)
    # empty companions: 1 > 1 fails
    assert not aux_edge_check(6, (), (), g, a, maps)


def test_aux_edge_check_dominated():
    g = ConflictGraph.from_edges(3, [(2, 0), (2, 1)], [10, 10, 1], d=3)
    a = Solution.of(g, {0, 1})
    maps = build_anchor_maps(g, a)
    assert not aux_edge_check(2, (), (), g, a, maps)


def test_aux_edge_check_plain_arithmetic():
    g = ConflictGraph.from_edges(3, [(2, 0), (2, 1)], [2, 2, 3], d=3)
    a = Solution.of(g, {0, 1})
    maps = build_anchor_maps(g, a)
    # 9 > (4+4)/2 = 4
    assert aux_edge_check(2, (), (), g, a, maps)


def test_find_circular_berman_full_swap():
    _, g, a = berman_setup(4)
    maps = build_anchor_maps(g, a)
    imp = find_circular_improvement(g, a, maps, ColorCodingParams.defaults(g))
    assert imp is not None
    assert imp.x == frozenset(range(3, 9))
    assert imp.removed == frozenset(range(3))
    assert validate_circular(g, a, maps, imp, d=4)
    # cross-check against the complete generic search
    assert exhaustive_improvement_search(g, a, Fraction(2), 6) is not None


def test_forest_aux_graph_no_cycle():
    # two stars: aux graph has no cycles, search must return None (complete)
    g = ConflictGraph.from_edges(
        6, [(2, 0), (2, 1), (3, 0), (4, 1), (5, 0)], [1, 1, 1, 1, 1, 1], d=4
    )
    a = Solution.of(g, {0, 1})
    maps = build_anchor_maps(g, a)
    assert find_circular_improvement(g, a, maps, ColorCodingParams.defaults(g)) is None


def test_parallel_edges_two_cycle():
    # universe {0,1,2,3}: solution sets a1={0,2}, a2={1,3}; heavy disjoint
    # u1={0,1}, u2={2,3} each meeting both -> parallel aux edges -> 2-cycle
    inst = PackingInstance.build(
        4, [[0, 2], [1, 3], [0, 1], [2, 3]], [2, 2, 3, 3], k=2
    )
    g = build_conflict_graph(inst)
    a = Solution.of(g, {0, 1})
    maps = build_anchor_maps(g, a)
    imp = find_circular_improvement(g, a, maps, ColorCodingParams.defaults(g), inst=inst)
    assert imp is not None
    assert imp.x == frozenset({2, 3})
    assert len(imp.kind.u) == 2
    assert validate_circular(g, a, maps, imp, d=g.d)
    assert exhaustive_improvement_search(g, a, Fraction(2), 2) is not None


def synthetic_aux(n_vertices, edges):
    return AuxGraph(
        [AuxVertex(anchor=i, y=()) for i in range(n_vertices)],
        [AuxEdge(a, b, inducer=100 + i) for i, (a, b) in enumerate(edges)],
    )


def element_masks(coloring, v_elems, e_elems):
    """The color masks of a synthetic aux graph's vertex and edge element sets."""
    return [_mask(coloring, els) for els in v_elems], [_mask(coloring, els) for els in e_elems]


def test_dp_triangle_disjoint_colors():
    h = synthetic_aux(3, [(0, 1), (1, 2), (2, 0)])
    vmask, emask = element_masks(list(range(6)), v_elems=[{0}, {1}, {2}], e_elems=[{3}, {4}, {5}])
    got = next(_colorful_cycles(h, vmask, emask, 6, DP_BUDGET), None)
    assert got is not None
    vs, es = got
    assert sorted(es) == [0, 1, 2]


def test_dp_shared_color_blocks():
    h = synthetic_aux(3, [(0, 1), (1, 2), (2, 0)])
    vmask, emask = element_masks(
        list(range(5)),
        v_elems=[{0}, {1}, {2}],
        e_elems=[{3}, {4}, {3}],  # two edges share an element
    )
    assert next(_colorful_cycles(h, vmask, emask, 6, DP_BUDGET), None) is None


def test_dp_skips_degenerate_walks_over_parallel_edges():
    # four parallel edges with pairwise fresh colors admit colorful closed
    # walks of length 4 but no simple cycle of length >= 3; the DP must not
    # report those walks (parallel pairs are the separate 2-cycle scan's job)
    h = synthetic_aux(2, [(0, 1), (0, 1), (0, 1), (0, 1)])
    vmask, emask = element_masks([0, 1, 2, 3], v_elems=[set(), set()], e_elems=[{0}, {1}, {2}, {3}])
    assert next(_colorful_cycles(h, vmask, emask, 8, DP_BUDGET), None) is None


def test_dp_agrees_with_enumeration_on_planted_cycles():
    rng = random.Random(7)
    agreements = 0
    for trial in range(60):
        n = rng.randint(4, 12)
        elems_per = 2
        v_elems = []
        e_elems = []
        next_el = 0
        for _ in range(n):
            v_elems.append(set(range(next_el, next_el + rng.randint(0, elems_per))))
            next_el += len(v_elems[-1])
        edges = []
        # plant a cycle over a random subset, plus noise edges
        cyc = rng.sample(range(n), rng.randint(3, min(6, n)))
        for i in range(len(cyc)):
            edges.append((cyc[i], cyc[(i + 1) % len(cyc)]))
        for _ in range(rng.randint(0, 4)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.append((a, b))
        for _ in edges:
            e_elems.append(set(range(next_el, next_el + rng.randint(1, elems_per))))
            next_el += elems_per
        h = synthetic_aux(n, edges)
        t = max(1, next_el)
        coloring = [rng.randrange(t) for _ in range(next_el)]
        vmask, emask = element_masks(coloring, v_elems, e_elems)
        expect = [c for c in enumerate_colorful_cycles(h, vmask, emask, 8) if len(c) >= 3]
        got = next(_colorful_cycles(h, vmask, emask, 8, DP_BUDGET), None)
        assert (got is not None) == bool(expect)
        if got is not None:
            vs, es = got
            used = 0
            for i, v in enumerate(vs):
                assert used & vmask[v] == 0
                used |= vmask[v]
            for e in es:
                assert used & emask[e] == 0
                used |= emask[e]
        agreements += 1
    assert agreements == 60


def _mask(coloring, els):
    m = 0
    for e in els:
        m |= 1 << coloring[e]
    return m


def test_run_color_coding_finds_planted_improvement():
    inst, g, a = berman_setup(4)
    maps = build_anchor_maps(g, a)
    params = ColorCodingParams(t=32, repetitions=64, max_cycle_len=12, mode="rand")
    wins = 0
    for trial in range(30):
        imp = run_color_coding(g, a, maps, params, inst, random.Random(trial))
        if imp is not None:
            assert validate_circular(g, a, maps, imp, d=4)
            wins += 1
    assert wins == 30


def test_run_color_coding_soundness_no_improvement():
    inst, g, _ = berman_setup(4)
    b = Solution.of(g, range(3, 9))
    maps = build_anchor_maps(g, b)
    params = ColorCodingParams(t=16, repetitions=20, max_cycle_len=12, mode="rand")
    assert run_color_coding(g, b, maps, params, inst, random.Random(1)) is None


def test_randomized_mode_unavailable_without_sets():
    g, a, _ = gen_berman_tight(4)
    maps = build_anchor_maps(g, a)
    params = ColorCodingParams(t=8, repetitions=4, max_cycle_len=8, mode="rand")
    with pytest.raises(InputError):
        find_circular_improvement(g, a, maps, params, inst=None)


def test_exhaustive_agrees_with_randomized_positive():
    inst, g, a = berman_setup(5)
    maps = build_anchor_maps(g, a)
    ex = find_circular_improvement(g, a, maps, ColorCodingParams.defaults(g), inst=inst)
    rparams = ColorCodingParams(t=32, repetitions=64, max_cycle_len=12, mode="rand")
    rd = run_color_coding(g, a, maps, rparams, inst, random.Random(5))
    assert ex is not None and rd is not None


def test_trial_bound_and_repetitions():
    p = trial_success_bound(32, 8)
    assert p == Fraction(828316125, 2 ** 31)
    assert 0.38 < float(p) < 0.39
    assert repetitions_for(32, 8, Fraction(1, 1000)) <= 64
    assert trial_success_bound(4, 5) == 0
    with pytest.raises(InputError):
        repetitions_for(4, 5)


def test_max_cycle_len_formula():
    assert max_cycle_len_for(9) == 12  # 2^12 <= 9^4 < 2^13
    assert max_cycle_len_for(2) == 4
    assert max_cycle_len_for(1) == 2


def test_improvement_chain_recomputed_term_by_term():
    # the per-edge inequalities must sum to the strict overall gain:
    # w2(X) > w2(cycle vertices) + spill terms >= w2(N(X,A))
    _, g, a = berman_setup(4)
    maps = build_anchor_maps(g, a)
    imp = find_circular_improvement(g, a, maps, ColorCodingParams.defaults(g))
    k = imp.kind
    y = k.y_map()
    # every cycle vertex occurs exactly twice among the anchor pairs
    occurrences = {}
    for u in k.u:
        for v in (maps.heaviest[u], maps.second[u]):
            occurrences[v] = occurrences.get(v, 0) + 1
    assert occurrences == {v: 2 for v in k.cycle_vertices}
    mid = g.squared_weight_of(k.cycle_vertices)
    for u in k.u:
        mid += g.squared_weight_of(
            x for x in maps.a_neighbors[u] if x not in (maps.heaviest[u], maps.second[u])
        )
    for v, ys in y.items():
        for x in ys:
            mid += g.squared_weight_of(z for z in maps.a_neighbors[x] if z != v)
    assert g.squared_weight_of(imp.x) > mid >= g.squared_weight_of(imp.removed)


@pytest.mark.parametrize("fixture", ["berman4", "berman5", "parallel", "forest"])
def test_exhaustive_mode_matches_bruteforce_existence(fixture):
    from conftest import circular_improvement_exists_bruteforce

    if fixture in ("berman4", "berman5"):
        _, g, a = berman_setup(4 if fixture == "berman4" else 5)
    elif fixture == "parallel":
        inst = PackingInstance.build(4, [[0, 2], [1, 3], [0, 1], [2, 3]], [2, 2, 3, 3], k=2)
        g = build_conflict_graph(inst)
        a = Solution.of(g, {0, 1})
    else:
        g = ConflictGraph.from_edges(
            6, [(2, 0), (2, 1), (3, 0), (4, 1), (5, 0)], [1, 1, 1, 1, 1, 1], d=4
        )
        a = Solution.of(g, {0, 1})
    maps = build_anchor_maps(g, a)
    got = find_circular_improvement(g, a, maps, ColorCodingParams.defaults(g))
    expect = circular_improvement_exists_bruteforce(g, a, maps, d=g.d or 4)
    assert (got is not None) == expect


def test_params_validation():
    with pytest.raises(InputError):
        ColorCodingParams(t=0, repetitions=1, max_cycle_len=4)
    with pytest.raises(InputError):
        ColorCodingParams(t=1, repetitions=0, max_cycle_len=4)
    with pytest.raises(InputError):
        ColorCodingParams(t=1, repetitions=1, max_cycle_len=1)
    with pytest.raises(InputError):
        ColorCodingParams(t=1, repetitions=1, max_cycle_len=4, mode="nope")


def test_aux_budget_raises_search_incomplete(monkeypatch):
    from clawpack.circular import SearchIncompleteError

    _, g, a = berman_setup(6)
    maps = build_anchor_maps(g, a)
    params = ColorCodingParams(t=1, repetitions=1, max_cycle_len=8)
    monkeypatch.setattr(circular, "_MAX_AUX_VERTICES", 2)
    with pytest.raises(SearchIncompleteError):
        find_circular_improvement(g, a, maps, params)


def test_soundness_revalidation_fields():
    _, g, a = berman_setup(6)
    maps = build_anchor_maps(g, a)
    imp = find_circular_improvement(g, a, maps, ColorCodingParams.defaults(g))
    assert imp is not None
    k = imp.kind
    assert len(k.u) <= max_cycle_len_for(g.n)
    y = k.y_map()
    assert all(len(ys) <= 5 for ys in y.values())
    for u in k.u:
        assert aux_edge_check(u, y[maps.heaviest[u]], y[maps.second[u]], g, a, maps)
    assert g.squared_weight_of(imp.x) > g.squared_weight_of(imp.removed)


# ------------------------------------------------- integer anchor maps and aux graph
#
# The references below are the rational-arithmetic forms of the anchor maps
# and the aux-graph build that the integer code replaced; they are kept here
# on purpose, as a second route to the same maps, vertices and edges.


def ref_build_anchor_maps(g, a):
    heaviest, second, a_nbrs = {}, {}, {}
    for u in range(g.n):
        if u in a.members:
            continue
        nu = tuple(v for v in g.adj[u] if v in a.members)
        a_nbrs[u] = nu
        best = max(nu, key=lambda v: (g.weights[v], -v))
        heaviest[u] = best
        rest = [v for v in nu if v != best]
        if rest:
            second[u] = max(rest, key=lambda v: (g.weights[v], -v))
    return AnchorMaps(heaviest, second, a_nbrs)


def ref_build_aux_graph(g, a, maps, params):
    """The aux-graph build with Fraction charges and edge checks, under the
    caps `circular._MAX_AUX_VERTICES` and `_MAX_AUX_EDGE_CHECKS`; also
    returns how many edge checks it made."""
    d_eff = g.d if g.d is not None else g.n + 1
    y_cap = min(params.y_cap, d_eff - 1)
    anchored = {}
    for u in sorted(maps.heaviest):
        if g.weights[u] - g.weight_of(maps.a_neighbors[u]) / 2 > 0:
            anchored.setdefault(maps.heaviest[u], []).append(u)
    h = AuxGraph([], [])
    vid_by_anchor = {}
    for v in sorted(a.members):
        subsets = _independent_subsets(g, anchored.get(v, []), y_cap)
        subsets.sort(key=lambda y: (-len(y), y))
        ids = []
        for y in subsets:
            if len(h.vertices) >= circular._MAX_AUX_VERTICES:
                raise SearchIncompleteError("vertices")
            ids.append(len(h.vertices))
            h.vertices.append(AuxVertex(v, y))
        vid_by_anchor[v] = ids
    checks = 0
    for u in sorted(maps.second):
        v1, v2 = maps.heaviest[u], maps.second[u]
        for ia in vid_by_anchor.get(v1, []):
            y1 = h.vertices[ia].y
            if u in y1 or any(g.has_edge(u, x) for x in y1):
                continue
            for ib in vid_by_anchor.get(v2, []):
                y2 = h.vertices[ib].y
                if u in y2 or any(g.has_edge(u, x) for x in y2):
                    continue
                if any(g.has_edge(x, z) for x in y1 for z in y2):
                    continue
                checks += 1
                if checks > circular._MAX_AUX_EDGE_CHECKS:
                    raise SearchIncompleteError("edge checks")
                lhs, rhs = ref_aux_sides(u, y1, y2, g, maps)
                if lhs > rhs:
                    h.edges.append(AuxEdge(ia, ib, u))
    return h, checks


def weighted_case(seed: int, kind: str):
    """A random graph (odd seeds) or k=3 packing (even seeds), a random
    maximal solution, and weights of the given kind:

    - "prime": distinct prime denominators, magnitudes 2**-60..2**60;
    - "ties": on the solution, prime weights, copies of them and copies a
      relative 2**-70 off; outside it, exact zero charges
      (2 w(u) = w(N(u,A))), charges a relative 2**-70 off zero on either
      side, and aux-edge near-ties for empty companion sets;
    - "equal": weights from {1, 2} on the solution and {1, 3/2, 2} outside,
      so anchors and aux-edge sums tie exactly.
    """
    rng = random.Random(seed)
    if seed % 2:
        n = rng.randint(8, 18)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g, inst = ConflictGraph.from_edges(n, edges, [1] * n), None
    else:
        universe = rng.randint(10, 16)
        sets = [rng.sample(range(universe), 3) for _ in range(rng.randint(10, 18))]
        inst = PackingInstance.build(universe, sets, [1] * len(sets), k=3)
        g = build_conflict_graph(inst)
    order = list(range(g.n))
    rng.shuffle(order)
    members: set[int] = set()
    for v in order:
        if not (g.adj_sets[v] & members):
            members.add(v)
    pw = PrimeWeights(rng)
    low = rng.randint(-60, 57)
    weights = [None] * g.n
    placed: list[Fraction] = []
    for v in sorted(members):
        pick = rng.randrange(3) if kind == "ties" and placed else 0
        if kind == "equal":
            weights[v] = Fraction(rng.choice([1, 2]))
        elif pick == 0:
            weights[v] = pw.magnitude(low + rng.randint(0, 1))
        elif pick == 1:
            weights[v] = rng.choice(placed)
        else:
            weights[v] = rng.choice(placed) * (1 + Fraction(rng.choice([-1, 1]), pw.prime_above(70)))
        placed.append(weights[v])
    for u in range(g.n):
        if u in members:
            continue
        nu = [v for v in g.adj[u] if v in members]
        half = sum(weights[v] for v in nu) / 2
        pick = rng.randrange(4)
        if kind == "equal":
            weights[u] = Fraction(rng.choice([2, 3, 4]), 2)
        elif kind == "prime" or pick == 0:
            weights[u] = pw.magnitude(low + rng.randint(-1, 3))
        elif pick == 1:
            weights[u] = half
        elif pick == 2 or len(nu) < 2:
            weights[u] = half * (1 + Fraction(rng.choice([-1, 1]), pw.prime_above(70)))
        else:
            v1, v2 = sorted(nu, key=lambda v: (-weights[v], v))[:2]
            rest = sum(weights[v] ** 2 for v in nu if v not in (v1, v2))
            target = (weights[v1] ** 2 + weights[v2] ** 2) / 2 + rest
            weights[u] = pw.near_root(target, 2, rng.random() < 0.5)
    return g.reweighted(weights), Solution.of(g, members), inst


def aux_outcome(build, cap, n):
    """The vertices and edges `build()` returns with the cap `circular.<cap>`
    set to n, or "incomplete" if it raises `SearchIncompleteError`."""
    try:
        with mock.patch.object(circular, cap, n):
            h = build()
    except SearchIncompleteError:
        return "incomplete"
    return h.vertices, h.edges


@pytest.mark.parametrize("kind", ["prime", "ties", "equal"])
def test_integer_aux_graph_matches_fraction_build(kind):
    seen = {"edges": 0, "companions": 0, "excluded": 0}
    for seed in range(40):
        g, a, _ = weighted_case(seed, kind)
        maps = build_anchor_maps(g, a)
        ref = ref_build_anchor_maps(g, a)
        assert (maps.heaviest, maps.second, maps.a_neighbors) == (
            ref.heaviest, ref.second, ref.a_neighbors
        )
        params = ColorCodingParams(t=1, repetitions=1, max_cycle_len=8)
        want, checks = ref_build_aux_graph(g, a, ref, params)
        got = build_aux_graph(g, a, maps, params)
        assert (got.vertices, got.edges) == (want.vertices, want.edges)
        for cap in {0, checks // 2, checks - 1, checks, checks + 1} - {-1}:
            expect = aux_outcome(lambda: ref_build_aux_graph(g, a, ref, params)[0], "_MAX_AUX_EDGE_CHECKS", cap)
            assert aux_outcome(lambda: build_aux_graph(g, a, maps, params), "_MAX_AUX_EDGE_CHECKS", cap) == expect
            assert (expect == "incomplete") == (cap < checks)
        seen["edges"] += len(got.edges)
        seen["companions"] += sum(1 for v in got.vertices if v.y)
        seen["excluded"] += sum(
            1 for u in maps.heaviest if 2 * g.weights[u] == g.weight_of(maps.a_neighbors[u])
        )
    assert seen["edges"] > 0 and seen["companions"] > 0
    if kind == "ties":
        assert seen["excluded"] > 0


def test_zero_charge_joins_no_companion_set():
    # w(3) = (w(0) + w(1)) / 2 exactly: zero charge, so 3 is in no Y; 4 is
    # a hair heavier than that and joins the companion sets at anchor 0
    eps = Fraction(1, 2 ** 80 + 13)
    g = ConflictGraph.from_edges(
        6, [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (5, 2)],
        [Fraction(3), Fraction(1), Fraction(5), Fraction(2), 2 + eps, Fraction(7)], d=4,
    )
    a = Solution.of(g, {0, 1, 2})
    maps = build_anchor_maps(g, a)
    assert charge_to_anchor(g, maps, 3) == 0 and charge_to_anchor(g, maps, 4) > 0
    h = build_aux_graph(g, a, maps, ColorCodingParams(t=1, repetitions=1, max_cycle_len=8))
    ys = {x for v in h.vertices for x in v.y}
    assert 3 not in ys and 4 in ys


@pytest.mark.parametrize("mode", ["exhaustive", "rand"])
def test_circular_modes_validate_with_the_configured_claw_bound(mode):
    inst, g, a = berman_setup(4)
    cfg = SolverConfig(
        mode="logimp",
        d=g.d + 1,
        circular=ColorCodingParams(t=32, repetitions=64, max_cycle_len=12, mode=mode),
    )
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("d"))
        return validate_circular(*args, **kwargs)

    with mock.patch.object(circular, "validate_circular", spy):
        trace = logimp(g, cfg, start=a, inst=inst)
    assert "circular" in [r.kind for r in trace.improvements]
    assert seen and set(seen) == {g.d + 1}


def test_anchor_maps_and_aux_graph_build_no_fraction():
    inst, g, a = berman_setup(5)
    params = ColorCodingParams.defaults(g, inst)
    g.w2_int  # the integer weights are built once per graph, with Fractions

    def no_fraction(cls, *args, **kwargs):
        raise AssertionError("Fraction built")

    with mock.patch.object(Fraction, "__new__", no_fraction):
        maps = build_anchor_maps(g, a)
        h = build_aux_graph(g, a, maps, params)
    assert h.edges


# ------------------------------------------------- per-run circular state
#
# logimp keeps one CircularState per run. At every circular call its anchor
# maps and aux graph must equal a from-scratch build, also when a cap was
# crossed part-way through an earlier call. The maps' key order is not
# compared: consumers sort the keys, and an incremental update appends the
# vertices that left A.

FRESH_MAPS = circular.build_anchor_maps
FRESH_AUX = circular.build_aux_graph


def aux_fields(h):
    return h.vertices, h.edges


def check_state_against_fresh(g, a, state, params, d, call):
    """The state's maps and aux graph for `a` against a fresh build, and the
    outcome under caps below and at the vertex and edge-check totals, built
    through the state. Even calls build uncapped first; odd calls try the
    caps first, starting at a different one each time, so a cap crossed
    part-way through the blocks, and a tight cap met exactly, come before
    the uncapped build."""
    fresh_maps = FRESH_MAPS(g, a)
    maps = state.maps
    assert (maps.heaviest, maps.second, maps.a_neighbors) == (
        fresh_maps.heaviest, fresh_maps.second, fresh_maps.a_neighbors
    )
    fresh = CircularState(g, fresh_maps)
    want = FRESH_AUX(g, a, fresh_maps, params, d, state=fresh)
    assert aux_fields(want) == aux_fields(FRESH_AUX(g, a, fresh_maps, params, d))
    n_vertices, n_checks = len(want.vertices), fresh.checks
    caps = [("_MAX_AUX_VERTICES", n) for n in {n_vertices - 1, n_vertices} if n >= 0]
    caps += [("_MAX_AUX_EDGE_CHECKS", n) for n in sorted({n_checks // 2, n_checks - 1, n_checks}) if n >= 0]

    def capped(order):
        for cap, n in order:
            expect = aux_outcome(lambda: FRESH_AUX(g, a, fresh_maps, params, d), cap, n)
            got = aux_outcome(lambda: FRESH_AUX(g, a, maps, params, d, state=state), cap, n)
            assert got == expect
            below = n < (n_vertices if cap == "_MAX_AUX_VERTICES" else n_checks)
            assert (got == "incomplete") == below

    if call % 2:
        turn = (call // 2) % len(caps)
        capped(caps[turn:] + caps[:turn])
    got = FRESH_AUX(g, a, maps, params, d, state=state)
    assert aux_fields(got) == aux_fields(want)
    assert state.checks == n_checks
    if not call % 2:
        capped(caps)
    return got


class CheckedAuxBuild:
    """Stands in for circular.build_aux_graph in a logimp run and checks
    every call against a from-scratch build (see check_state_against_fresh)."""

    def __init__(self):
        self.calls = 0
        self.moved = 0  # members that changed between consecutive calls
        self.last = None

    def __call__(self, g, a, maps, params, d=None, state=None):
        assert state is not None and maps is state.maps, "logimp must pass its circular state"
        if self.last is not None:
            self.moved += len(a.members ^ self.last)
        self.last = set(a.members)
        got = check_state_against_fresh(g, a, state, params, d, self.calls)
        self.calls += 1
        return got


def run_checked_logimp(g, cfg, **kw):
    check = CheckedAuxBuild()
    with mock.patch.object(circular, "build_aux_graph", check):
        trace = solve(g, cfg, **kw)
    circulars = [r.kind for r in trace.improvements].count("circular")
    assert check.calls == circulars + 1
    return trace, check


def tight_with_random_sets(seed: int, copies: int = 4, extra: int = 12):
    """Shuffled tight d=5 copies plus random 3-sets over the same universe,
    so the random sets' anchors move with the copies' swaps."""
    rng = random.Random(seed)
    inst, small = tight_copies(5, copies, seed)
    u = inst.universe_size
    sets = [sorted(s) for s in inst.sets] + [sorted(rng.sample(range(u), 3)) for _ in range(extra)]
    weights = list(inst.weights) + [Fraction(rng.randint(1, 12), rng.randint(4, 12)) for _ in range(extra)]
    return PackingInstance.build(u, sets, weights, inst.k), small


@pytest.mark.parametrize("mode", ["exhaustive", "rand"])
def test_circular_state_matches_fresh_build_in_logimp(mode):
    pw = PrimeWeights(random.Random(7))
    cases = [
        tight_copies(5, 6, seed=11),
        tight_copies(5, 3, seed=4, scales=[pw.magnitude(e) for e in (-60, 7, 60)]),
        tight_with_random_sets(2, copies=6, extra=16),
        tight_with_random_sets(5),
    ]
    calls = moved = 0
    for inst, small in cases:
        g = build_conflict_graph(inst)
        cfg = SolverConfig(mode="logimp", circular=ColorCodingParams.defaults(g, inst, mode=mode))
        trace, check = run_checked_logimp(g, cfg, inst=inst, start=Solution.of(g, small))
        calls, moved = calls + check.calls, moved + check.moved
    # random k=3 packings: one circular call per run, at the claw fixed point
    for seed in range(4):
        inst = gen_random_packing(40, 3, 30, seed=seed)
        g = build_conflict_graph(inst)
        params = dataclasses.replace(ColorCodingParams.defaults(g, inst, mode=mode), repetitions=20)
        cfg = SolverConfig(mode="logimp", circular=params)
        run_checked_logimp(g, cfg, inst=inst)
        run_checked_logimp(g, cfg, inst=inst, start=greedy(g))
    assert calls > 10 and moved > 0


def test_circular_state_under_scaling():
    inst, _ = tight_with_random_sets(2)
    g = build_conflict_graph(inst)
    trace, check = run_checked_logimp(g, SolverConfig(mode="logimp", scaling_n=Fraction(3, 2)), inst=inst)
    assert trace.scaled and check.calls >= 1


def random_swap(rng, g, members):
    """Swap up to three independent outside vertices in, drop their solution
    neighbors, and add random free vertices until the set is maximal."""
    outside = [u for u in range(g.n) if u not in members]
    x = set()
    for u in rng.sample(outside, min(len(outside), rng.randint(1, 3))):
        if g.adj_sets[u].isdisjoint(x):
            x.add(u)
    members = (members - {v for u in x for v in g.adj[u]}) | x
    order = list(range(g.n))
    rng.shuffle(order)
    for v in order:
        if v not in members and g.adj_sets[v].isdisjoint(members):
            members.add(v)
    return members


@pytest.mark.parametrize("kind", ["prime", "ties", "equal"])
def test_circular_state_over_random_swaps(kind):
    """Random walks over maximal solutions of random graphs and k=3 packings
    (see `weighted_case`), several swaps between some calls."""
    for seed in range(10):
        g, a, _ = weighted_case(seed, kind)
        rng = random.Random(seed)
        params = ColorCodingParams(t=1, repetitions=1, max_cycle_len=8)
        state = CircularState(g)
        members = set(a.members)
        for step in range(12):
            for _ in range(rng.choice([1, 1, 2, 4])):
                members = random_swap(rng, g, members)
            sol = Solution.of(g, members)
            maps = build_anchor_maps(g, sol, state)
            assert maps is state.maps
            check_state_against_fresh(g, sol, state, params, None, step)


def test_circular_state_rejects_foreign_maps():
    _, g, a = berman_setup(5)
    state = CircularState(g)
    build_anchor_maps(g, a, state)
    params = ColorCodingParams(t=1, repetitions=1, max_cycle_len=8)
    with pytest.raises(ContractError):
        build_aux_graph(g, a, build_anchor_maps(g, a), params, state=state)


def layered_colorful_candidates(h, vmask, emask, max_len, state_budget):
    """The colorful DP as it was before candidates were yielded per state:
    each layer is built whole, then its states are checked for closing
    edges. Kept verbatim as the reference for the candidate order."""
    alive = [
        i
        for i, e in enumerate(h.edges)
        if not (emask[i] & vmask[e.a]) and not (emask[i] & vmask[e.b])
        and not (vmask[e.a] & vmask[e.b])
    ]
    by_endpoint = {}
    incident = {i: [] for i in range(len(h.vertices))}
    for ei in alive:
        e = h.edges[ei]
        by_endpoint.setdefault(frozenset((e.a, e.b)), []).append(ei)
        incident[e.a].append(ei)
        incident[e.b].append(ei)

    # states[(s, t, mask)] = (edge to next vertex, next vertex, previous mask)
    layer = {}
    for v in range(len(h.vertices)):
        layer[(v, v, vmask[v])] = (None, None, 0)
    states = 0
    all_layers = [layer]

    def recover(s, t, mask, i):
        vseq, eseq = [s], []
        cur, cmask = s, mask
        for lvl in range(i, 0, -1):
            ei, nxt, pmask = all_layers[lvl][(cur, t, cmask)]
            eseq.append(ei)
            vseq.append(nxt)
            cur, cmask = nxt, pmask
        return vseq, eseq

    for i in range(1, max_len):
        newlayer = {}
        for (v, t, cmask) in all_layers[i - 1]:
            for ei in incident[v]:
                e = h.edges[ei]
                s = e.b if e.a == v else e.a
                add = emask[ei] | vmask[s]
                if add & cmask:
                    continue
                key = (s, t, cmask | add)
                if key in newlayer:
                    continue
                states += 1
                if states > state_budget:
                    raise SearchIncompleteError(f"colorful DP exceeded {state_budget} states")
                newlayer[key] = (ei, v, cmask)
        all_layers.append(newlayer)
        for (s, t, cmask) in newlayer:
            if i < 2 or s == t:
                continue
            for ej in by_endpoint.get(frozenset((s, t)), []):
                if emask[ej] & cmask:
                    continue
                vseq, eseq = recover(s, t, cmask, i)
                yield vseq, eseq + [ej]
        if not newlayer:
            break


def random_synthetic_aux(rng):
    """A small aux graph with empty vertex and edge element sets (zero
    masks), parallel edges and few elements, so colors often collide.
    Returns the graph, its vertex and edge element sets, and the number of
    elements."""
    n = rng.randint(2, 9)
    n_elems = rng.randint(1, 10)

    def elems():
        return set(rng.sample(range(n_elems), rng.randint(0, min(2, n_elems))))

    edges = []
    for _ in range(rng.randint(1, 3 * n)):
        a, b = rng.sample(range(n), 2)
        edges.extend([(a, b)] * rng.choice([1, 1, 1, 2, 3]))
    return synthetic_aux(n, edges), [elems() for _ in range(n)], [elems() for _ in edges], n_elems


def ref_color_masks(h, inst, coloring):
    """The color masks of an aux graph of `inst`, as the element sets the aux
    graph once stored gave them: a vertex's union of its companion sets'
    elements, an edge's inducer's set."""
    vmask = [_mask(coloring, frozenset(e for x in v.y for e in inst.sets[x])) for v in h.vertices]
    return vmask, [_mask(coloring, inst.sets[e.inducer]) for e in h.edges]


def test_dp_candidate_sequence_matches_layered_sweep():
    """Every candidate, in order, equals the whole-layer sweep's, on random
    synthetic aux graphs and on aux graphs of tight copies (with and without
    random 3-sets) under seeded colorings."""
    rng = random.Random(11)
    total = with_candidates = 0

    def compare(h, vmask, emask, max_len):
        nonlocal total, with_candidates
        expect = list(layered_colorful_candidates(h, vmask, emask, max_len, DP_BUDGET))
        got = list(circular._colorful_candidates(h, vmask, emask, max_len, DP_BUDGET))
        assert got == expect
        total += len(got)
        with_candidates += bool(got)

    for _ in range(400):
        h, v_elems, e_elems, n_elems = random_synthetic_aux(rng)
        t = rng.randint(1, 2 * n_elems)
        coloring = [rng.randrange(t) for _ in range(n_elems)]
        compare(h, *element_masks(coloring, v_elems, e_elems), rng.randint(2, 7))
    cases = [tight_copies(5, 2, seed=1), tight_copies(4, 3, seed=2), tight_with_random_sets(3, copies=2, extra=6)]
    for inst, small in cases:
        g = build_conflict_graph(inst)
        a = Solution.of(g, small)
        params = ColorCodingParams.defaults(g, inst, mode="rand")
        h = build_aux_graph(g, a, build_anchor_maps(g, a), params)
        assert h.edges
        for seed in range(6):
            crng = random.Random(seed)
            t = crng.choice([params.t, 24, 64])
            compare(h, *ref_color_masks(h, inst, [crng.randrange(t) for _ in range(inst.universe_size)]), 6)
    assert total > 1000 and with_candidates > 100


def test_dp_state_cap_without_colorful_cycle():
    # the triangle's first and third edges share an element: no colorful cycle
    h = synthetic_aux(3, [(0, 1), (1, 2), (2, 0)])
    vmask, emask = element_masks(list(range(5)), v_elems=[{0}, {1}, {2}], e_elems=[{3}, {4}, {3}])
    assert list(_colorful_cycles(h, vmask, emask, 6, DP_BUDGET)) == []
    with pytest.raises(SearchIncompleteError):
        list(_colorful_cycles(h, vmask, emask, 6, 4))


def test_dp_state_cap_counts_built_states_only():
    """The triangle's DP builds 6 states at layer 1, then at layer 2 its 7th
    state closes the first candidate, and the layer ends at 12 states. A cap
    of 7 yields that candidate and raises at the 8th state; the whole-layer
    sweep raised before yielding anything. Below the cap nothing changes."""
    h = synthetic_aux(3, [(0, 1), (1, 2), (2, 0)])
    vmask, emask = element_masks(list(range(6)), v_elems=[{0}, {1}, {2}], e_elems=[{3}, {4}, {5}])
    with pytest.raises(SearchIncompleteError):
        next(_colorful_cycles(h, vmask, emask, 6, 6))
    it = _colorful_cycles(h, vmask, emask, 6, 7)
    vs, es = next(it)
    assert sorted(vs) == [0, 1, 2] and sorted(es) == [0, 1, 2]
    with pytest.raises(SearchIncompleteError):
        next(it)
    with pytest.raises(SearchIncompleteError):
        next(layered_colorful_candidates(h, vmask, emask, 6, 7))
    full = list(circular._colorful_candidates(h, vmask, emask, 6, 12))
    assert len(full) == 6
    assert full == list(layered_colorful_candidates(h, vmask, emask, 6, 12))


def packing_aux_graphs():
    """Aux graphs of tight copies (with and without random 3-sets) from their
    small sides and of random k=3 packings at greedy solutions, each with
    its graph and instance."""
    cases = []
    for inst, small in [tight_copies(5, 2, seed=1), tight_copies(4, 3, seed=2), tight_with_random_sets(3, copies=2, extra=6)]:
        g = build_conflict_graph(inst)
        cases.append((inst, g, Solution.of(g, small)))
    for seed in range(4):
        inst = gen_random_packing(150, 3, 45, seed=seed)
        g = build_conflict_graph(inst)
        cases.append((inst, g, greedy(g)))
    for inst, g, a in cases:
        h = build_aux_graph(g, a, build_anchor_maps(g, a), ColorCodingParams.defaults(g, inst), d=g.d)
        yield inst, g, h


def test_color_masks_match_element_unions():
    """The masks `_color_masks` derives from the packing sets equal those of
    the element unions the aux graph once stored, under seeded colorings."""
    companions = edges = 0
    for inst, _, h in packing_aux_graphs():
        companions += sum(1 for v in h.vertices if v.y)
        edges += len(h.edges)
        for seed in range(4):
            crng = random.Random(seed)
            t = crng.choice([4, 24, 64])
            coloring = [crng.randrange(t) for _ in range(inst.universe_size)]
            assert circular._color_masks(h, inst, coloring) == ref_color_masks(h, inst, coloring)
    assert companions > 100 and edges > 100


def ref_dfs_cycles(g, h, incident, max_len, budget):
    """`_dfs_cycles` as it was when the aux graph carried its incident lists,
    kept verbatim but for reading them from `incident`: the reference for
    the candidate order."""
    nodes = 0

    def walk(start, current, vseq, eseq, anchors, support):
        nonlocal nodes
        for ei in incident[current]:
            nodes += 1
            if nodes > budget:
                raise SearchIncompleteError(f"cycle DFS exceeded {budget} nodes")
            e = h.edges[ei]
            nxt = e.b if e.a == current else e.a
            if ei in eseq:
                continue
            if nxt == start:
                if len(eseq) >= 2 and circular._supports_compatible_seq(g, support, [e.inducer]):
                    yield vseq[:], eseq + [ei]
                continue
            if nxt < start or nxt in vseq:
                continue
            av = h.vertices[nxt]
            if av.anchor in anchors:
                continue
            new = [e.inducer] + [x for x in av.y]
            if not circular._supports_compatible_seq(g, support, new):
                continue
            if len(eseq) + 1 >= max_len:
                continue
            anchors.add(av.anchor)
            support.update(new)
            yield from walk(start, nxt, vseq + [nxt], eseq + [ei], anchors, support)
            anchors.remove(av.anchor)
            support.difference_update(new)

    for s in range(len(h.vertices)):
        av = h.vertices[s]
        yield from walk(s, s, [s], [], {av.anchor}, set(av.y))


def test_dfs_candidate_sequence_matches_stored_incident_lists():
    """`_dfs_cycles` builds its incident lists from the edges; every
    candidate, in order, equals the DFS over the lists the aux graph once
    stored (each edge appended at its ends in edge order)."""
    total = 0
    for _, g, h in packing_aux_graphs():
        incident = {i: [] for i in range(len(h.vertices))}
        for idx, e in enumerate(h.edges):
            incident[e.a].append(idx)
            incident[e.b].append(idx)
        max_len = max_cycle_len_for(g.n)
        expect = list(ref_dfs_cycles(g, h, incident, max_len, circular._MAX_DFS_NODES))
        assert list(circular._dfs_cycles(g, h, max_len, circular._MAX_DFS_NODES)) == expect
        total += len(expect)
    assert total > 100


def perturbed_tight_with_random_sets(seed: int):
    """One to three tight copies (d = 4 or 5) at integer scales, some of
    their weights moved by up to 10 %, plus up to eight light random 3-sets
    over their universe: the perturbation breaks some planted cycles."""
    rng = random.Random(seed)
    copies = rng.randint(1, 3)
    d = rng.choice([4, 5])
    inst, small = tight_copies(d, copies, seed, scales=[Fraction(rng.randint(1, 4)) for _ in range(copies)])
    u = inst.universe_size
    moved = rng.choice([0.1, 0.3, 0.6])
    extra = rng.randint(0, 8)
    sets = [sorted(s) for s in inst.sets] + [sorted(rng.sample(range(u), 3)) for _ in range(extra)]
    weights = [w * (Fraction(rng.randint(90, 110), 100) if rng.random() < moved else 1) for w in inst.weights]
    weights += [Fraction(rng.randint(1, 12), rng.randint(8, 24)) for _ in range(extra)]
    inst = PackingInstance.build(u, sets, weights, inst.k)
    g = build_conflict_graph(inst)
    members = set(small)
    for v in range(g.n):
        if v not in members and g.adj_sets[v].isdisjoint(members):
            members.add(v)
    return inst, g, Solution.of(g, members)


def test_rand_mode_agrees_with_exhaustive_at_claw_fixed_points():
    """At claw fixed points of small packings, rand mode with 200 colorings
    finds a circular improvement exactly when the exhaustive DFS does. The
    planted cycles of the tight copies are longer than 2, so the 2-cycle
    scan finds none of them and the colorful DP decides."""
    cases = [perturbed_tight_with_random_sets(seed) for seed in range(120)]
    for seed in range(60):
        rng = random.Random(seed)
        inst = gen_random_packing(rng.randint(15, 40), 3, rng.randint(12, 30), seed=seed)
        g = build_conflict_graph(inst)
        cases.append((inst, g, greedy(g)))
    found = dp_decided = negatives_with_edges = 0
    for i, (inst, g, start) in enumerate(cases):
        a = squareimp(g, SolverConfig(mode="squareimp"), start=start).final
        maps = build_anchor_maps(g, a)
        ex = find_circular_improvement(g, a, maps, ColorCodingParams.defaults(g, inst), inst=inst, d=g.d)
        params = dataclasses.replace(ColorCodingParams.defaults(g, inst, mode="rand"), repetitions=200)
        rd = find_circular_improvement(g, a, maps, params, inst=inst, rng=random.Random(i), d=g.d)
        assert (rd is not None) == (ex is not None), f"case {i}"
        h = build_aux_graph(g, a, maps, params, d=g.d)
        two = any(
            validate_circular(g, a, maps, _assemble(g, a, h, vs, es), d=g.d)
            for vs, es in _two_cycle_candidates(g, h)
        )
        found += ex is not None
        dp_decided += ex is not None and not two
        negatives_with_edges += ex is None and len(h.edges) >= 3
    assert found >= 30 and dp_decided >= 30 and negatives_with_edges >= 20


@pytest.mark.parametrize("t,m", [(4, 3), (6, 6), (8, 4), (16, 6), (32, 8)])
def test_trial_success_bound_matches_injectivity_rate(t, m):
    """`trial_success_bound(t, m)` is the chance that a uniform coloring into
    t colors is injective on m fixed elements; the seeded rate over 20000
    colorings, drawn as `run_color_coding` draws them, stays within 4.5
    binomial standard deviations of it."""
    rng = random.Random(1000 * t + m)
    n = 20_000
    injective = sum(len({rng.randrange(t) for _ in range(m)}) == m for _ in range(n))
    p = trial_success_bound(t, m)
    sd = math.sqrt(float(p * (1 - p)) / n)
    assert abs(injective / n - float(p)) <= 4.5 * sd


def test_repetitions_keep_total_miss_below_failure_prob():
    """All `repetitions_for` trials missing has probability (1 - p)^reps,
    checked exactly: at most failure_prob, and one repetition fewer would
    exceed it."""
    for t in (4, 8, 16, 32, 48):
        for m in range(min(t, 8) + 1):
            p = trial_success_bound(t, m)
            for fail in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
                reps = repetitions_for(t, m, fail)
                if p == 1:
                    assert reps == 1
                    continue
                assert (1 - p) ** reps <= fail
                assert reps == 1 or (1 - p) ** (reps - 1) > fail
