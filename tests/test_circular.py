import dataclasses
import gc
import math
import random
import sys
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
from typing import Optional
from unittest import mock
from weakref import ref as weak_ref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Edge,
    PrimeWeights,
    Vertex,
    aux_edges,
    aux_graph_of,
    aux_vertices,
    anchors_of,
    charge_to_anchor,
    circular_state,
    enumerate_colorful_cycles,
    gen_berman_tight,
    graph_with_edge_set,
    nbr_set,
    positional,
    positional_candidates,
    ref_a_nbrs,
    ref_anchors,
    ref_aux_sides,
    synthetic_search,
    tight_copies,
    w2_of,
    w_of,
)

from clawpack import circular
from clawpack.circular import (
    AuxBlocks,
    AuxGraph,
    CircularState,
    ColorCodingParams,
    SearchIncompleteError,
    _assemble,
    _colorful_cycles,
    _reduce_to_simple_cycle,
    _two_cycle_candidates,
    aux_edge_check,
    build_anchor_maps,
    build_aux_graph,
    find_circular_improvement,
    max_cycle_len_for,
    repetitions_for,
    run_color_coding,
    trial_success_bound,
    validate_circular,
)
from clawpack.generators import berman_tight_instance, gen_alternating_cycle, gen_random_packing
from clawpack.instances import (
    Circular,
    ConflictGraph,
    ContractError,
    Generic,
    Improvement,
    InputError,
    PackingInstance,
    Solution,
    build_conflict_graph,
    neighborhood,
    validate_improvement,
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
    assert build_anchor_maps(a)[2][:2] == [0, 1]


def test_anchor_maps_tie_to_lowest_id():
    g = ConflictGraph.from_edges(4, [(3, 0), (3, 1), (3, 2)], [5, 5, 5, 1], d=4)
    a = Solution.of(g, {0, 1, 2})
    assert build_anchor_maps(a)[3][:2] == [0, 1]


def test_anchor_maps_berman_pair():
    _, g, a = berman_setup(4)
    # first pair-set vertex (elements 1,2) anchors at element vertices 0 then 1
    assert build_anchor_maps(a)[6][:2] == [0, 1]


def test_anchor_maps_follow_the_solutions_own_graph():
    """A solution over a reweighted copy of the graph orders its N(u, A)
    table by the copy's weights: vertex 2's anchor is 1 there, 0 over the
    graph itself."""
    g = ConflictGraph.from_edges(3, [(2, 0), (2, 1)], [5, 3, 1], d=3)
    other = Solution.of(g.reweighted([3, 5, 1]), {0, 1})
    assert build_anchor_maps(other)[2] == [1, 0] and build_anchor_maps(Solution.of(g, {0, 1}))[2] == [0, 1]


def test_anchor_maps_reject_a_state_holding_another_solution():
    """A circular state holds its run's solution: its anchors built over any
    other one, even with the same members over the same graph, are a
    `ContractError` that leaves the state as it was, so its maps stay
    stale."""
    _, g, a = berman_setup(4)
    state = CircularState(a, ColorCodingParams(t=1, repetitions=1), 4, None, random.Random(0))
    with pytest.raises(ContractError, match="another solution"):
        build_anchor_maps(Solution.of(g, a.members), state)
    with pytest.raises(ContractError, match="stale"):
        find_circular_improvement(state)
    build_anchor_maps(a, state)
    assert find_circular_improvement(state) == find_circular_improvement(circular_state(a))


def circular_swap(a: Solution, u, cycle_vertices, y, x=None):
    """(a, imp): the circular swap with evidence (u, cycle_vertices, y)
    over `a`, x = u and y together unless given, removed = N(x, A)."""
    x = frozenset(u).union(*y) if x is None else frozenset(x)
    return a, Improvement(x, frozenset(neighborhood(x, a.members, a.g)), Circular(u, cycle_vertices, y))


def ring_swap(n_pairs: int = 3, light: Optional[int] = None, **fields):
    """(a, imp): the ring of `gen_alternating_cycle(n_pairs, 4, 1/2)` (even
    vertices weigh 4/5, odd ones 1) plus a vertex c = 2 n_pairs of weight 1
    next to vertex 0 only, its even side A, and the circular swap of the
    odd inducers in order around the even vertices, c the companion set of
    vertex 0. `fields` replace arguments of `circular_swap`. Vertex
    `light`, if given, weighs 1/2."""
    n = 2 * n_pairs
    ws = [Fraction(4, 5) if v % 2 == 0 else Fraction(1) for v in range(n)] + [Fraction(1)]
    if light is not None:
        ws[light] = Fraction(1, 2)
    g = ConflictGraph.from_edges(n + 1, [(v, (v + 1) % n) for v in range(n)] + [(0, n)], ws, d=4)
    ring = {"u": tuple(range(1, n, 2)), "cycle_vertices": tuple(range(0, n, 2)), "y": ((n,),) + ((),) * (n_pairs - 1)}
    return circular_swap(Solution.of(g, range(0, n, 2)), **{**ring, **fields})


def test_validate_circular_rejects_a_cycle_one_longer_than_its_bound():
    """At 21 pairs (n = 43) the cycle of 21 inducers sits at the bound of
    21 and validates. At 22 pairs (n = 45) the bound is still 21, and the
    cycle of 22 is rejected though nothing else is wrong with it: it
    validates once the bound is 22."""
    a, imp = ring_swap(21)
    assert max_cycle_len_for(a.g.n) == 21 and validate_circular(a, imp, d=4)
    a, imp = ring_swap(22)
    assert max_cycle_len_for(a.g.n) == 21 and len(imp.kind.u) == 22
    assert not validate_circular(a, imp, d=4)
    with mock.patch.object(circular, "max_cycle_len_for", lambda n: 22):
        assert validate_circular(a, imp, d=4)


def one_field_off(case: str):
    """(a, imp, d): a swap that fails exactly one check of
    `validate_circular`, the one `case` names, and passes every other."""
    a, imp = ring_swap()
    d = 4
    if case == "kind":
        imp = dataclasses.replace(imp, kind=Generic())
    elif case == "removed":
        imp = dataclasses.replace(imp, removed=imp.removed - {4})
    elif case == "one inducer":
        # the inducer has one anchor: only the inducer count refuses it
        a, imp = circular_swap(Solution.of(ConflictGraph.from_edges(2, [(0, 1)], [1, 2]), [0]), (1,), (0,), ((),))
    elif case == "repeated inducer":
        # a 2-cycle 0-1-2 read twice, with the other odd vertices as companions
        a, imp = ring_swap(u=(1, 1), cycle_vertices=(0, 2), y=((5, 6), (3,)))
    elif case == "inducer outside x":
        a, imp = ring_swap(x={1, 3, 6})
    elif case == "cycle one longer":
        # three inducers on a path of four cycle vertices
        a, imp = ring_swap(4, u=(1, 3, 5), y=((8,), (), (), ()))
    elif case == "repeated cycle vertex":
        # four parallel inducers between solution vertices 0 and 1
        g = ConflictGraph.from_edges(6, [(u, v) for u in range(2, 6) for v in (0, 1)], [Fraction(4, 5)] * 2 + [1] * 4)
        a, imp = circular_swap(Solution.of(g, [0, 1]), (2, 3, 4, 5), (0, 1, 0, 1), ((),) * 4)
    elif case == "anchors off the cycle order":
        a, imp = ring_swap(cycle_vertices=(2, 4, 0), y=((), (), (6,)))
    elif case == "one companion set too many":
        a, imp = ring_swap(y=((6,), (), (), ()))
    elif case == "companion in u":
        a, imp = ring_swap(y=((6, 1), (), ()))
    elif case == "companion set over the claw bound":
        d = 1
    elif case == "companion at another anchor":
        a, imp = ring_swap(y=((), (6,), ()))
    elif case == "edge inequality":
        # inducer 3 weighs 1/2: its edge fails, the swap still gains
        a, imp = ring_swap(light=3)
    return a, imp, d


VALIDATE_CIRCULAR_CHECKS = (
    "kind", "removed", "one inducer", "repeated inducer", "inducer outside x", "cycle one longer",
    "repeated cycle vertex", "anchors off the cycle order", "one companion set too many", "companion in u",
    "companion set over the claw bound", "companion at another anchor", "edge inequality",
)


@pytest.mark.parametrize("case", VALIDATE_CIRCULAR_CHECKS)
def test_validate_circular_refuses_each_field_off(case):
    """Each check of `validate_circular` but the length bound (the test
    above) refuses a swap that only it catches: `scripts/mutants.py` drops
    each check in turn, and this test kills each of those mutants. The
    untampered swap validates, and so does one whose companion set repeats
    a member, which counts once."""
    a, imp = ring_swap()
    assert validate_circular(a, imp, d=4) and validate_circular(a, imp, d=2)
    a, imp = ring_swap(y=((6, 6), (), ()))
    assert validate_circular(a, imp, d=2)
    a, imp, d = one_field_off(case)
    assert not validate_circular(a, imp, d=d)


@pytest.mark.parametrize("bad", ["n", "-1"])
def test_validators_refuse_a_vertex_outside_the_graph(bad):
    """An id outside range(n) in x is a refusal, not an error, for both
    validators: alone, and added to a swap that validates."""
    a, imp = ring_swap()
    g = a.g
    v = g.n if bad == "n" else -1
    assert validate_circular(a, imp, d=4)
    assert not validate_improvement(g, a, Improvement(frozenset({v}), frozenset()))
    tampered = dataclasses.replace(imp, x=imp.x | {v})
    assert not validate_improvement(g, a, tampered)
    assert not validate_circular(a, tampered, d=4)
    assert not validate_circular(a, dataclasses.replace(imp, x=frozenset({v})), d=4)


def validate_circular_as_pairs(a, imp, d):
    """The reference: `validate_circular` as it stood while the evidence
    paired each companion set with its anchor, reading the pairs from the
    evidence in cycle order (a set past the last cycle vertex pairs with
    the anchor None). It also checks that each inducer has two anchors and
    that each cycle vertex anchors two inducers, and it runs the per-set
    loop, with a membership test, before the union check. It calls the
    package's `validate_improvement`, which gives False on an id outside
    the graph where the one of its day raised."""
    g = a.g
    kind = imp.kind
    if not isinstance(kind, Circular) or not validate_improvement(g, a, imp):
        return False
    x = imp.x
    u_list = list(kind.u)
    if len(u_list) < 2 or len(set(u_list)) != len(u_list):
        return False
    if len(u_list) > max_cycle_len_for(g.n):
        return False
    if not set(u_list) <= x:
        return False
    a_nbrs = a.a_nbrs
    if any(len(a_nbrs[u]) < 2 for u in u_list):
        return False
    cyc = list(kind.cycle_vertices)
    if len(cyc) != len(u_list) or len(set(cyc)) != len(cyc):
        return False
    deg = {}
    for u in u_list:
        for v in a_nbrs[u][:2]:
            deg[v] = deg.get(v, 0) + 1
    if set(deg) != set(cyc) or any(c != 2 for c in deg.values()):
        return False
    for i, u in enumerate(u_list):
        if set(a_nbrs[u][:2]) != {cyc[i], cyc[(i + 1) % len(cyc)]}:
            return False
    anchors = cyc + [None] * (len(kind.y) - len(cyc))
    y_map = {v: frozenset(ys) for v, ys in zip(anchors, kind.y)}
    if set(y_map) != set(cyc):
        return False
    rest = x - set(u_list)
    for v, ys in y_map.items():
        if len(ys) > d - 1:
            return False
        if any(x_ not in rest or a_nbrs[x_][:1] != [v] for x_ in ys):
            return False
    y_union = set().union(*y_map.values()) if y_map else set()
    if y_union != rest:
        return False
    for u in u_list:
        v1, v2 = a_nbrs[u][:2]
        if not aux_edge_check(a, u, y_map[v1], y_map[v2]):
            return False
    return True


def logimp_candidates(seeds):
    """(a, imp) for every candidate `validate_circular` is asked about in
    exhaustive logimp runs from the small sides of `tight_copies(5, 6,
    seed)`, a over the members the run held at that call."""
    seen = []
    real = circular.validate_circular

    def spy(a, imp, d):
        seen.append((Solution.of(a.g, a.members), imp))
        return real(a, imp, d)

    with mock.patch.object(circular, "validate_circular", spy):
        for seed in seeds:
            inst, small = tight_copies(5, 6, seed)
            g = build_conflict_graph(inst)
            logimp(g, SolverConfig(mode="logimp"), start=Solution.of(g, small), inst=inst)
    return seen


def tampered(rng: random.Random, a: Solution, imp: Improvement, d: int):
    """(imp, d) with one to three fields changed: x (and removed, half the
    time, to N(x, A) over x's vertices), removed, u, cycle_vertices, the
    companion sets or d. A change replaces, drops, adds, swaps or repeats
    entries of a field or of one companion set, moves a member between
    two sets, or does the same to the list of sets; a new id is drawn
    from -2 to n + 1, a new set has at most one."""
    n = a.g.n

    def new_id():
        return rng.randint(-2, n + 1)

    def new_set():
        return tuple(new_id() for _ in range(rng.randrange(2)))

    def edit(seq, new=new_id):
        seq = list(seq)
        op = rng.randrange(5)
        if op == 0 and seq:
            seq[rng.randrange(len(seq))] = new()
        elif op == 1 and seq:
            del seq[rng.randrange(len(seq))]
        elif op == 2 or not seq:
            seq.insert(rng.randint(0, len(seq)), new())
        elif op == 3:
            i, j = rng.randrange(len(seq)), rng.randrange(len(seq))
            seq[i], seq[j] = seq[j], seq[i]
        else:
            seq.insert(rng.randint(0, len(seq)), rng.choice(seq))
        return seq

    x, removed, kind = imp.x, imp.removed, imp.kind
    u, cyc, y = kind.u, kind.cycle_vertices, [tuple(ys) for ys in kind.y]
    for field in rng.sample(["x", "removed", "u", "cyc", "y", "d"], rng.randint(1, 3)):
        if field == "x":
            x = frozenset(edit(sorted(x)))
            if rng.random() < 0.5:
                removed = frozenset(neighborhood([v for v in x if 0 <= v < n], a.members, a.g))
        elif field == "removed":
            removed = frozenset(edit(sorted(removed)))
        elif field == "u":
            u = tuple(edit(u))
        elif field == "cyc":
            cyc = tuple(edit(cyc))
        elif field == "d":
            d = rng.randint(1, d + 1)
        elif y and rng.random() < 0.7:
            i = rng.randrange(len(y))
            y[i] = tuple(edit(y[i]))
        elif y and rng.random() < 0.5:
            i, j = rng.randrange(len(y)), rng.randrange(len(y))
            if y[i]:
                y[i], y[j] = y[i][1:], y[j] + y[i][:1]
        else:
            y = edit(y, new_set)
    return Improvement(x, removed, Circular(u, cyc, tuple(y))), d


def test_validate_circular_matches_the_reference_on_tampered_swaps():
    """On 12,000 seeded tamperings of the candidates of six tight-union
    logimp runs, with ids from -2 to n + 1, `validate_circular` gives the
    reference's verdict and never raises; some tampered swaps still
    validate."""
    sources = logimp_candidates(range(6))
    assert sum(validate_circular(a, imp, d=5) for a, imp in sources) >= 30
    rng = random.Random(0)
    accepted = 0
    for _ in range(12_000):
        a, imp = rng.choice(sources)
        bad, d = tampered(rng, a, imp, 5)
        got = validate_circular(a, bad, d=d)
        assert got == validate_circular_as_pairs(a, bad, d), (imp, bad, d)
        accepted += got
    assert 50 <= accepted < 12_000


@pytest.mark.parametrize("max_len", [3, 5, 8])
def test_dfs_finds_a_ring_of_max_len_edges_and_no_longer_one(max_len):
    """`_dfs_cycles` finds a synthetic ring of exactly `max_len` edges, once
    per direction, and no cycle in a ring of `max_len + 1` edges. The
    conflict graph has no edge, so every support is compatible."""
    g = ConflictGraph.from_edges(200, [], [1] * 200)
    for length, found in ((max_len, 2), (max_len + 1, 0)):
        h = synthetic_aux(length, [(i, (i + 1) % length) for i in range(length)])
        got = list(circular._dfs_cycles(g, h, max_len, circular._MAX_DFS_NODES))
        assert len(got) == found
        assert all(len(es) == length for _, es in got)


def test_dirty_inducers_drop_their_table_after_the_first_aux_graph():
    """The first aux graph over a greedy solution of 2,000 random 3-sets
    builds the edge block of every dirty vertex, all of them, and leaves
    the dirty set empty and holding no table, which every later call would
    walk."""
    inst = gen_random_packing(2000, 3, 2000, seed=0)
    g = build_conflict_graph(inst)
    a = greedy(g)
    state = circular_state(a, inst=inst)
    assert len(state._dirty_u) == g.n
    build_aux_graph(state)
    assert not state._dirty_u and sys.getsizeof(state._dirty_u) == sys.getsizeof(set())


def test_anchor_maps_require_maximal():
    g = ConflictGraph.from_edges(2, [], [1, 1], d=3)
    a = Solution.of(g, {0})
    with pytest.raises(ContractError):
        build_anchor_maps(a)


def test_aux_edge_check_berman_values():
    _, g, a = berman_setup(4)
    # pair {1,2} with both singleton companions: 1 + 1 > 1
    assert aux_edge_check(a, 6, (3,), (4,))
    # empty companions: 1 > 1 fails
    assert not aux_edge_check(a, 6, (), ())


def test_aux_edge_check_dominated():
    g = ConflictGraph.from_edges(3, [(2, 0), (2, 1)], [10, 10, 1], d=3)
    a = Solution.of(g, {0, 1})
    assert not aux_edge_check(a, 2, (), ())


def test_aux_edge_check_plain_arithmetic():
    g = ConflictGraph.from_edges(3, [(2, 0), (2, 1)], [2, 2, 3], d=3)
    a = Solution.of(g, {0, 1})
    # 9 > (4+4)/2 = 4
    assert aux_edge_check(a, 2, (), ())


def test_find_circular_berman_full_swap():
    _, g, a = berman_setup(4)
    imp = find_circular_improvement(circular_state(a))
    assert imp is not None
    assert imp.x == frozenset(range(3, 9))
    assert imp.removed == frozenset(range(3))
    assert validate_circular(a, imp, d=4)
    # cross-check against the complete generic search
    assert exhaustive_improvement_search(a, Fraction(2), 6) is not None


def test_forest_aux_graph_no_cycle():
    # two stars: aux graph has no cycles, search must return None (complete)
    g = ConflictGraph.from_edges(
        6, [(2, 0), (2, 1), (3, 0), (4, 1), (5, 0)], [1, 1, 1, 1, 1, 1], d=4
    )
    a = Solution.of(g, {0, 1})
    assert find_circular_improvement(circular_state(a)) is None


def test_parallel_edges_two_cycle():
    # universe {0,1,2,3}: solution sets a1={0,2}, a2={1,3}; heavy disjoint
    # u1={0,1}, u2={2,3} each meeting both -> parallel aux edges -> 2-cycle
    inst = PackingInstance.build(
        4, [[0, 2], [1, 3], [0, 1], [2, 3]], [2, 2, 3, 3], k=2
    )
    g = build_conflict_graph(inst)
    a = Solution.of(g, {0, 1})
    imp = find_circular_improvement(circular_state(a, inst=inst))
    assert imp is not None
    assert imp.x == frozenset({2, 3})
    assert len(imp.kind.u) == 2
    assert validate_circular(a, imp, d=g.d)
    assert exhaustive_improvement_search(a, Fraction(2), 2) is not None


def synthetic_aux(n_vertices, edges):
    return aux_graph_of(
        [Vertex(anchor=i, y=()) for i in range(n_vertices)],
        [Edge(a, b, inducer=100 + i) for i, (a, b) in enumerate(edges)],
    )


def element_masks(coloring, v_elems, e_elems):
    """The color masks of a synthetic aux graph's vertex and edge element sets."""
    return [_mask(coloring, els) for els in v_elems], [_mask(coloring, els) for els in e_elems]


def test_dp_triangle_disjoint_colors():
    h = synthetic_aux(3, [(0, 1), (1, 2), (2, 0)])
    vmask, emask = element_masks(list(range(6)), v_elems=[{0}, {1}, {2}], e_elems=[{3}, {4}, {5}])
    got = next(synthetic_search(_colorful_cycles, h, vmask, emask, 6, DP_BUDGET), None)
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
    assert next(synthetic_search(_colorful_cycles, h, vmask, emask, 6, DP_BUDGET), None) is None


def test_dp_skips_degenerate_walks_over_parallel_edges():
    # four parallel edges with pairwise fresh colors admit colorful closed
    # walks of length 4 but no simple cycle of length >= 3; the DP must not
    # report those walks (parallel pairs are the separate 2-cycle scan's job)
    h = synthetic_aux(2, [(0, 1), (0, 1), (0, 1), (0, 1)])
    vmask, emask = element_masks([0, 1, 2, 3], v_elems=[set(), set()], e_elems=[{0}, {1}, {2}, {3}])
    assert next(synthetic_search(_colorful_cycles, h, vmask, emask, 8, DP_BUDGET), None) is None


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
        expect = [c for c in enumerate_colorful_cycles(positional(h), vmask, emask, 8) if len(c) >= 3]
        got = next(synthetic_search(_colorful_cycles, h, vmask, emask, 8, DP_BUDGET), None)
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
    params = ColorCodingParams(t=32, repetitions=64, mode="rand")
    wins = 0
    for trial in range(30):
        state = circular_state(a, params, inst, rng=random.Random(trial))
        imp = run_color_coding(state, build_aux_graph(state))
        if imp is not None:
            assert validate_circular(a, imp, d=4)
            wins += 1
    assert wins == 30


def test_run_color_coding_soundness_no_improvement():
    inst, g, _ = berman_setup(4)
    b = Solution.of(g, range(3, 9))
    params = ColorCodingParams(t=16, repetitions=20, mode="rand")
    state = circular_state(b, params, inst, rng=random.Random(1))
    assert run_color_coding(state, build_aux_graph(state)) is None


def test_randomized_mode_unavailable_without_sets():
    g, a, _ = gen_berman_tight(4)
    params = ColorCodingParams(t=8, repetitions=4, mode="rand")
    with pytest.raises(InputError, match="needs the packing instance"):
        circular_state(a, params)


def test_exhaustive_agrees_with_randomized_positive():
    inst, g, a = berman_setup(5)
    ex = find_circular_improvement(circular_state(a, inst=inst))
    rparams = ColorCodingParams(t=32, repetitions=64, mode="rand")
    state = circular_state(a, rparams, inst, rng=random.Random(5))
    rd = run_color_coding(state, build_aux_graph(state))
    assert ex is not None and rd is not None


def test_trial_bound_and_repetitions():
    p = trial_success_bound(32, 8)
    assert p == Fraction(828316125, 2 ** 31)
    assert 0.38 < float(p) < 0.39
    assert repetitions_for(32, 8, Fraction(1, 1000)) <= 64
    assert trial_success_bound(4, 5) == 0
    with pytest.raises(InputError):
        repetitions_for(4, 5)


def test_repetitions_when_the_bound_leaves_float_range():
    """An injectivity bound p below float range (745 of 745 colors) still
    gives a finite count, with (1 - p)^reps <= exp(-p reps) <= the failure
    probability, and the defaults of a k=130 packing cap it at 10000."""
    fail = Fraction(1, 1000)
    p = trial_success_bound(745, 745)
    reps = repetitions_for(745, 745, fail)
    assert 0 < float(p) < 1e-300
    assert float(p * reps) >= math.log(1 / float(fail))
    inst = gen_random_packing(40, 130, 790, seed=1)
    g = build_conflict_graph(inst)
    params = ColorCodingParams.defaults(g, inst)
    assert float(trial_success_bound(params.t, min(params.t, 6 * inst.k))) == 0
    assert params.repetitions == 10_000


def test_rand_defaults_without_sets_keep_the_mode():
    """Rand-mode defaults for a bare graph stay in rand mode, which the
    circular state then rejects, before any swap of a run."""
    g, a, _ = gen_berman_tight(4)
    params = ColorCodingParams.defaults(g, None, mode="rand")
    assert params.mode == "rand"
    with pytest.raises(InputError, match="needs the packing instance"):
        CircularState(a, params, 4, None, random.Random(0))
    with pytest.raises(InputError, match="needs the packing instance"):
        logimp(g, SolverConfig(mode="logimp", circular=params), start=a)


def test_max_cycle_len_formula():
    assert max_cycle_len_for(9) == 12  # 2^12 <= 9^4 < 2^13
    assert max_cycle_len_for(2) == 4
    assert max_cycle_len_for(1) == 2


def test_max_cycle_len_matches_the_counting_loop():
    """The closed form equals the loop it replaced: the largest L >= 2 with
    2**L <= n**4."""

    def by_loop(n):
        if n <= 1:
            return 2
        L = 2
        while 2 ** (L + 1) <= n ** 4:
            L += 1
        return L

    for n in [*range(3001), 2**20 - 1, 2**20, 2**20 + 1, 10**9, 3**40]:
        assert max_cycle_len_for(n) == by_loop(n), n


def test_trial_success_bound_matches_the_product():
    """perm(t, m) / t**m equals the product of (t - i)/t over i < m, and 0
    for m > t."""
    for t in range(1, 65):
        for m in range(71):
            p = Fraction(0) if m > t else math.prod((Fraction(t - i, t) for i in range(m)), start=Fraction(1))
            assert trial_success_bound(t, m) == p, (t, m)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reduce_to_simple_cycle_cuts_once(data):
    """One cut gives what cutting until no vertex repeats gives, and the
    result is a window of the walk that holds no repeat and closes: the
    vertex after it is its first vertex."""

    def by_loop(vseq, eseq):
        while True:
            seen = {}
            cut = None
            for pos, v in enumerate(vseq):
                if v in seen:
                    cut = (seen[v], pos)
                    break
                seen[v] = pos
            if cut is None:
                return vseq, eseq
            p, q = cut
            vseq, eseq = vseq[p:q], eseq[p:q]

    vseq = data.draw(st.lists(st.integers(0, 5), min_size=2, max_size=14))
    eseq = data.draw(st.permutations(range(100, 100 + len(vseq))))
    cv, ce = _reduce_to_simple_cycle(vseq, eseq)
    assert (cv, ce) == by_loop(vseq, eseq)
    assert len(set(cv)) == len(cv) == len(ce) >= 1
    p = next(i for i in range(len(vseq)) if vseq[i:i + len(cv)] == cv and eseq[i:i + len(ce)] == ce)
    q = p + len(cv)
    assert (vseq + vseq[:1])[q] == cv[0]


def test_improvement_chain_recomputed_term_by_term():
    # the per-edge inequalities must sum to the strict overall gain:
    # w2(X) > w2(cycle vertices) + spill terms >= w2(N(X,A))
    _, g, a = berman_setup(4)
    maps = ref_anchors(g, a)
    imp = find_circular_improvement(circular_state(a))
    k = imp.kind
    y = dict(zip(k.cycle_vertices, map(frozenset, k.y)))
    # every cycle vertex occurs exactly twice among the anchor pairs
    occurrences = {}
    for u in k.u:
        for v in (maps.heaviest[u], maps.second[u]):
            occurrences[v] = occurrences.get(v, 0) + 1
    assert occurrences == {v: 2 for v in k.cycle_vertices}
    mid = w2_of(g, k.cycle_vertices)
    for u in k.u:
        mid += w2_of(
            g, [x for x in maps.a_neighbors[u] if x not in (maps.heaviest[u], maps.second[u])]
        )
    for v, ys in y.items():
        for x in ys:
            mid += w2_of(g, [z for z in maps.a_neighbors[x] if z != v])
    assert w2_of(g, imp.x) > mid >= w2_of(g, imp.removed)


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
    got = find_circular_improvement(circular_state(a))
    expect = circular_improvement_exists_bruteforce(g, a, d=g.d or 4)
    assert (got is not None) == expect


def test_params_validation():
    with pytest.raises(InputError):
        ColorCodingParams(t=0, repetitions=1)
    with pytest.raises(InputError):
        ColorCodingParams(t=1, repetitions=0)
    with pytest.raises(InputError):
        ColorCodingParams(t=1, repetitions=1, mode="nope")


@pytest.mark.parametrize("d", [3, 4, 5, 12])
def test_state_derives_its_bounds_from_the_graph_and_claw_bound(d):
    """Companion sets are capped at min(3, d - 1) and cycles at the bound
    at the graph's size; a logimp run notes the cap iff it cuts below the
    claw bound's d - 1."""
    inst, g, a = berman_setup(d)
    state = CircularState(a, ColorCodingParams.defaults(g, inst), d, inst, random.Random(0))
    assert state.y_cap == min(3, d - 1)
    assert state.max_len == max_cycle_len_for(g.n)
    notes = logimp(g, SolverConfig(mode="logimp", d=d), inst=inst).notes
    capped = f"aux companion sets capped at 3 (claw bound allows {d - 1})"
    assert notes == ((capped,) if d - 1 > 3 else ())


def test_aux_budget_raises_search_incomplete(monkeypatch):
    from clawpack.circular import SearchIncompleteError

    _, g, a = berman_setup(6)
    state = circular_state(a, ColorCodingParams(t=1, repetitions=1))
    monkeypatch.setattr(circular, "_MAX_AUX_VERTICES", 2)
    with pytest.raises(SearchIncompleteError):
        find_circular_improvement(state)


def test_soundness_revalidation_fields():
    _, g, a = berman_setup(6)
    a_nbrs = build_anchor_maps(a)
    imp = find_circular_improvement(circular_state(a))
    assert imp is not None
    k = imp.kind
    assert len(k.u) <= max_cycle_len_for(g.n)
    y = dict(zip(k.cycle_vertices, map(frozenset, k.y)))
    assert all(len(ys) <= 5 for ys in y.values())
    for u in k.u:
        v1, v2 = a_nbrs[u][:2]
        assert aux_edge_check(a, u, y[v1], y[v2])
    assert w2_of(g, imp.x) > w2_of(g, imp.removed)


# ------------------------------------------------- integer anchors and aux graph
#
# The reference below is the rational-arithmetic form of the aux-graph build
# that the integer code replaced, over the anchors of `ref_anchors`; it is
# kept here on purpose, as a second route to the same vertices and edges.


def ref_build_aux_graph(g, a, maps, y_cap):
    """The unbounded aux-graph build with Fraction charges and edge checks:
    a vertex block at every member of A, of its companion sets of at most
    `y_cap` candidates, and every inducer paired with no bound. Vertices
    and edges carry the ids of `circular._ID_SHIFT`: `blocks` maps each
    anchor to its (id, y) pairs, `edges` lists (id, Edge) with ends as
    vertex ids, `checks` maps each inducer to the edge checks it made, and
    `incident` and `parallel` are derived from the edges."""
    anchored = {}
    for u in sorted(maps.heaviest):
        if g.weights[u] - w_of(g, maps.a_neighbors[u]) / 2 > 0:
            anchored.setdefault(maps.heaviest[u], []).append(u)
    blocks = {}
    for v in sorted(a.members):
        cands = anchored.get(v, [])
        subsets = [y for k in range(y_cap + 1) for y in combinations(cands, k) if g.is_independent(y)]
        subsets.sort(key=lambda y: (-len(y), y))
        blocks[v] = [((v << circular._ID_SHIFT) + i, y) for i, y in enumerate(subsets)]
    edges, checks = [], {}
    for u in sorted(maps.second):
        v1, v2 = maps.heaviest[u], maps.second[u]
        checks[u], first = 0, len(edges)
        for ia, y1 in blocks[v1]:
            if u in y1 or any(g.has_edge(u, x) for x in y1):
                continue
            for ib, y2 in blocks[v2]:
                if u in y2 or any(g.has_edge(u, x) for x in y2):
                    continue
                if any(g.has_edge(x, z) for x in y1 for z in y2):
                    continue
                checks[u] += 1
                lhs, rhs = ref_aux_sides(u, y1, y2, g, maps)
                if lhs > rhs:
                    edges.append(((u << circular._ID_SHIFT) + len(edges) - first, Edge(ia, ib, u)))
    incident, by_pair = {}, {}
    for ei, e in edges:
        incident.setdefault(e.a, []).append(ei)
        incident.setdefault(e.b, []).append(ei)
        by_pair.setdefault(frozenset((maps.heaviest[e.inducer], maps.second[e.inducer])), set()).add(e.inducer)
    shared = {u for group in by_pair.values() if len(group) > 1 for u in group}
    parallel = [ei for ei, e in edges if e.inducer in shared]
    return SimpleNamespace(blocks=blocks, edges=edges, checks=checks, incident=incident, parallel=parallel)


def ref_admitted(g, a, maps):
    """The inducers the bound admits, each with its two anchors, in
    Fraction arithmetic with the anchors `maps` of `ref_anchors`: u is
    admitted iff base(u) > low(v1) + low(v2), where base(u) = 2 w(u)^2 -
    w(v1)^2 - w(v2)^2 - 2 w^2(N(u, A) - {v1, v2}), and low(v) sums
    min(0, w^2(N(x, A) - {v}) - w(x)^2) over the candidates x at v, the
    vertices of positive charge anchored there."""
    w = g.weights
    low = {}
    for x, v in maps.heaviest.items():
        if w[x] - w_of(g, maps.a_neighbors[x]) / 2 > 0:
            spill = w2_of(g, [z for z in maps.a_neighbors[x] if z != v]) - w[x] ** 2
            low[v] = low.get(v, 0) + min(0, spill)
    admitted = {}
    for u, v2 in maps.second.items():
        v1 = maps.heaviest[u]
        base = 2 * w[u] ** 2 - w[v1] ** 2 - w[v2] ** 2 - 2 * w2_of(g, [x for x in maps.a_neighbors[u] if x not in (v1, v2)])
        if base > low.get(v1, 0) + low.get(v2, 0):
            admitted[u] = (v1, v2)
    return admitted


def check_against_reference(h, want, admitted):
    """`h`, a fresh build, against the unbounded reference `want` and the
    inducers the bound admits: equal edges, `incident`, `starts` and
    `parallel`; vertex blocks exactly at the admitted inducers' anchors,
    each equal to the reference's block there; an edge block for each
    admitted inducer and no other; and no edge in the reference whose
    inducer the bound skips. Returns the vertex and edge-check counts the
    caps bound: those of the admitted inducers' anchors and checks."""
    assert aux_edges(h) == want.edges
    assert h.incident == want.incident
    assert list(h.starts) == sorted(want.incident)
    assert list(h.parallel) == want.parallel
    anchors = {v for pair in admitted.values() for v in pair}
    blocks = h.vertices.blocks
    assert set(blocks) == anchors
    for v, block in blocks.items():
        assert list(zip(block.ids, block.ys)) == want.blocks[v]
    assert set(h.edges.blocks) == set(admitted)
    assert {e.inducer for _, e in want.edges} <= set(admitted)
    n_vertices = sum(len(want.blocks[v]) for v in anchors)
    assert len(h.vertices) == n_vertices
    return n_vertices, sum(want.checks[u] for u in admitted)


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
        if not (nbr_set(g, v) & members):
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
    g = g.reweighted(weights)  # before the solution: its table follows g's weights
    return g, Solution.of(g, members), inst


def aux_outcome(build, cap, n):
    """The vertices and edges `build()` returns with the cap `circular.<cap>`
    set to n (see `aux_fields`), or "incomplete" if it raises
    `SearchIncompleteError`."""
    try:
        with mock.patch.object(circular, cap, n):
            h = build()
    except SearchIncompleteError:
        return "incomplete"
    return aux_fields(h)


@pytest.mark.parametrize("kind", ["prime", "ties", "equal"])
def test_integer_aux_graph_matches_fraction_build(kind):
    """A fresh build against the unbounded Fraction reference and the
    Fraction bound (see `check_against_reference`), and under vertex and
    edge-check caps around the counts of the admitted inducers: it raises
    iff a cap is below its count, and else returns the uncapped graph."""
    seen = {"edges": 0, "companions": 0, "excluded": 0, "skipped": 0, "admitted": 0}
    for seed in range(40):
        g, a, _ = weighted_case(seed, kind)
        a_nbrs = build_anchor_maps(a)
        ref = ref_anchors(g, a)
        assert anchors_of(a_nbrs, a.members) == (ref.heaviest, ref.second)
        assert a_nbrs == ref_a_nbrs(g, a.members)
        params = ColorCodingParams(t=1, repetitions=1)
        state = circular_state(a, params)
        want = ref_build_aux_graph(g, a, ref, state.y_cap)
        admitted = ref_admitted(g, a, ref)
        got = build_aux_graph(state)
        n_vertices, checks = check_against_reference(got, want, admitted)
        assert state.checks == checks
        caps = [("_MAX_AUX_EDGE_CHECKS", n, checks) for n in {0, checks // 2, checks - 1, checks, checks + 1} - {-1}]
        caps += [("_MAX_AUX_VERTICES", n, n_vertices) for n in {0, n_vertices - 1, n_vertices} - {-1}]
        for cap, n, count in caps:
            fresh = circular_state(a, params)
            outcome = aux_outcome(lambda: build_aux_graph(fresh), cap, n)
            assert outcome == ("incomplete" if n < count else aux_fields(got))
        seen["edges"] += len(got.edges)
        seen["companions"] += sum(1 for _, v in aux_vertices(got) if v.y)
        seen["excluded"] += sum(
            1 for u in ref.heaviest if 2 * g.weights[u] == w_of(g, ref.a_neighbors[u])
        )
        seen["skipped"] += len(ref.second) - len(admitted)
        seen["admitted"] += len(admitted)
    assert seen["edges"] > 0 and seen["companions"] > 0 and seen["skipped"] > 0 and seen["admitted"] > 0
    if kind == "ties":
        assert seen["excluded"] > 0


def test_aux_graph_matches_the_unbounded_reference_on_packings():
    """`check_against_reference` on fresh builds over tight copies from
    their small sides, with and without random 3-sets, and over random k=3
    packings at greedy solutions and at maximal solutions picked in random
    order."""
    seen = {"edges": 0, "skipped": 0, "anchors": 0, "members": 0}
    cases = [tight_copies(5, 3, seed=1), tight_copies(4, 4, seed=2), tight_with_random_sets(3, copies=3, extra=8)]
    solutions = [(inst, Solution.of(build_conflict_graph(inst), small)) for inst, small in cases]
    for seed in range(10):
        inst = gen_random_packing(60, 3, 40, seed=seed)
        g = build_conflict_graph(inst)
        order = list(range(g.n))
        random.Random(seed).shuffle(order)
        members = set()
        for v in order:
            if nbr_set(g, v).isdisjoint(members):
                members.add(v)
        solutions += [(inst, greedy(g)), (inst, Solution.of(g, members))]
    for inst, a in solutions:
        g = a.g
        state = circular_state(a, inst=inst)
        ref = ref_anchors(g, a)
        admitted = ref_admitted(g, a, ref)
        h = build_aux_graph(state)
        _, checks = check_against_reference(h, ref_build_aux_graph(g, a, ref, state.y_cap), admitted)
        assert state.checks == checks
        seen["edges"] += len(h.edges)
        seen["skipped"] += len(ref.second) - len(admitted)
        seen["anchors"] += len(h.vertices.blocks)
        seen["members"] += len(a.members)
    assert seen["edges"] > 500 and seen["skipped"] > 100 and seen["anchors"] < seen["members"]


def test_zero_charge_joins_no_companion_set():
    # w(3) = (w(0) + w(1)) / 2 exactly: zero charge, so 3 is in no Y; 4 is
    # a hair heavier than that and joins the companion sets at anchor 0
    eps = Fraction(1, 2 ** 80 + 13)
    g = ConflictGraph.from_edges(
        6, [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (5, 2)],
        [Fraction(3), Fraction(1), Fraction(5), Fraction(2), 2 + eps, Fraction(7)], d=4,
    )
    a = Solution.of(g, {0, 1, 2})
    assert charge_to_anchor(g, a, 3) == 0 and charge_to_anchor(g, a, 4) > 0
    h = build_aux_graph(circular_state(a, ColorCodingParams(t=1, repetitions=1)))
    ys = {x for _, v in aux_vertices(h) for x in v.y}
    assert 3 not in ys and 4 in ys


@pytest.mark.parametrize("mode", ["exhaustive", "rand"])
def test_circular_modes_validate_with_the_configured_claw_bound(mode):
    inst, g, a = berman_setup(4)
    cfg = SolverConfig(
        mode="logimp",
        d=g.d + 1,
        circular=ColorCodingParams(t=32, repetitions=64, mode=mode),
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
        h = build_aux_graph(circular_state(a, params))
    assert h.edges


# ------------------------------------------------- per-run circular state
#
# logimp keeps one CircularState per run. At every circular call the
# solution's table, whose first two entries are the anchors, and the
# state's aux graph must equal a from-scratch build, also when a cap was
# crossed part-way through an earlier call.

FRESH_AUX = circular.build_aux_graph


def aux_fields(h):
    """The vertices and edges of an aux graph in order, with their ids if it
    is an `AuxGraph`."""
    if isinstance(h, AuxGraph):
        return aux_vertices(h), aux_edges(h)
    return h.vertices, h.edges


def fresh_aux(g, a, state):
    """The aux graph of `a` built by a new state with `state`'s parameters."""
    return FRESH_AUX(circular_state(a, state.params, state.inst, state.d))


def check_state_against_fresh(g, a, state, call):
    """`a`'s table and the state's aux graph against a fresh build, and the
    outcome under caps below and at the vertex and edge-check totals, built
    through the state. Even calls build uncapped first; odd calls try the
    caps first, starting at a different one each time, so a cap crossed
    part-way through the blocks, and a tight cap met exactly, come before
    the uncapped build."""
    # the state's anchors are read from `a`'s one table, so it is checked
    # against the adjacency, list by list in (-w, id) order
    assert a.a_nbrs == ref_a_nbrs(g, a.members)
    fresh = circular_state(a, state.params, state.inst, state.d)
    want = FRESH_AUX(fresh)
    n_vertices, n_checks = len(want.vertices), fresh.checks
    caps = [("_MAX_AUX_VERTICES", n) for n in {n_vertices - 1, n_vertices} if n >= 0]
    caps += [("_MAX_AUX_EDGE_CHECKS", n) for n in sorted({n_checks // 2, n_checks - 1, n_checks}) if n >= 0]

    def capped(order):
        for cap, n in order:
            expect = aux_outcome(lambda: fresh_aux(g, a, state), cap, n)
            got = aux_outcome(lambda: FRESH_AUX(state), cap, n)
            assert got == expect
            below = n < (n_vertices if cap == "_MAX_AUX_VERTICES" else n_checks)
            assert (got == "incomplete") == below

    if call % 2:
        turn = (call // 2) % len(caps)
        capped(caps[turn:] + caps[:turn])
    got = FRESH_AUX(state)
    assert aux_fields(got) == aux_fields(want)
    assert state.checks == n_checks
    check_lookups(got)
    check_holds(state)
    if not call % 2:
        capped(caps)
    return got


def check_holds(state):
    """The state's account of its lazy blocks after a call: each anchor
    counts the edge blocks of the admitted inducers there, and has a vertex
    block iff it counts one; the vertex count is
    that of those blocks; every spill w2(N(x, A) - v) - w2(x) of an outside
    vertex x of positive charge whose list in `ref_a_nbrs` starts at v is
    negative; and every low(v) it keeps is the sum of those spills at v."""
    a = state.a
    g = a.g
    users = {}
    for block in state._eblocks.values():
        for v in block.anchors:
            users[v] = users.get(v, 0) + 1
    assert state._users == users
    assert set(state._vblocks) == set(users)
    assert state._n_vertices == sum(len(b.ids) for b in state._vblocks.values())
    w, w2, nbrs = g.w_int, g.w2_int, ref_a_nbrs(g, a.members)
    spills = {}
    for x in range(g.n):
        if x not in a.members and 2 * w[x] > sum(w[z] for z in nbrs[x]):
            v = nbrs[x][0]
            spills.setdefault(v, []).append(sum(w2[z] for z in nbrs[x] if z != v) - w2[x])
    assert all(s < 0 for at_v in spills.values() for s in at_v)
    for v, low in state._low.items():
        assert low == sum(spills.get(v, []))


def check_lookups(h):
    """`h.incident` gives every vertex with an edge, and no other id, its
    edges in edge order, every edge ends at two vertices of `h`,
    `h.parallel` lists, in edge order, at least every edge that shares both
    ends with another, `h.starts` lists, in id order, the vertices with an
    edge, the keys of `h.incident`, and the vertex and edge counts are
    those of the blocks."""
    vertices, edges = aux_vertices(h), aux_edges(h)
    assert len(h.vertices) == len(vertices) and len(h.edges) == len(edges)
    assert h.incident.keys() == set(h.starts)
    assert all(a < b for ids in h.incident.values() for a, b in zip(ids, ids[1:]))
    vertex_ids = {i for i, _ in vertices}
    assert all(e.a in vertex_ids and e.b in vertex_ids for _, e in edges)
    incident = {i: [] for i, _ in vertices}
    ends = {}
    for ei, e in edges:
        incident[e.a].append(ei)
        incident[e.b].append(ei)
        ends.setdefault(frozenset((e.a, e.b)), []).append(ei)
    assert list(h.starts) == sorted(v for v, ids in incident.items() if ids)
    assert h.incident == {i: ids for i, ids in incident.items() if ids}
    twins = {ei for group in ends.values() if len(group) > 1 for ei in group}
    assert list(h.parallel) == sorted(set(h.parallel)) and twins <= set(h.parallel)


def check_searches_against_positional(g, h, fresh, max_len):
    """The 2-cycle scan and the DFS over `h` yield the candidates, in order,
    that the positional references yield over `fresh`, the positional form
    of a fresh build. Returns how many of each there were."""
    expect_two = candidate_outcome(ref_two_cycle_candidates(g, fresh))
    assert candidate_outcome(circular._two_cycle_candidates(g, h), h) == expect_two
    budget = circular._MAX_DFS_NODES
    expect_dfs = candidate_outcome(ref_positional_dfs(g, fresh, max_len, budget))
    assert candidate_outcome(circular._dfs_cycles(g, h, max_len, budget), h) == expect_dfs
    return len(expect_two[0]), len(expect_dfs[0])


def candidate_outcome(candidates, h=None):
    """The candidates up to the first `SearchIncompleteError`, and whether
    one was raised; positions replace the ids of `h` if it is given."""
    out = []
    raised = False
    try:
        for vs, es in candidates:
            out.append((vs, es))
    except SearchIncompleteError:
        raised = True
    return (list(positional_candidates(h, out)) if h is not None else out), raised


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_supports_compatible_seq_matches_a_brute_force_over_an_edge_set(data):
    """A cycle step may add the vertices `new` (an inducer and its companion
    set) to the support, an independent set, iff they repeat no vertex, miss
    the support, and leave it independent; a brute force over a set of
    edges built here, not read from the graph, decides alike. An invalid
    step the DFS took would only be refused later by `validate_circular`,
    so this is where taking one shows."""
    g, _, independent = graph_with_edge_set(data)
    n = g.n
    support: list[int] = []
    for v in data.draw(st.lists(st.integers(0, n - 1), max_size=6)):
        if independent(support + [v]):
            support.append(v)
    new = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    assert circular._supports_compatible_seq(g, set(support), new) == independent(support + new)


@pytest.mark.parametrize("support, new, ok", [
    (set(), [0, 2], True), ({2}, [0], True), (set(), [0, 1], False), (set(), [1, 0], False),
    (set(), [0, 0], False), ({0}, [1], False), ({0}, [0], False),
])
def test_supports_compatible_seq_on_a_path(support, new, ok):
    """The same rule on the path 0-1-2, case by case, so that each way of
    breaking it fails on every run: the brute-force test above draws its
    graphs at random and can miss one."""
    g = ConflictGraph.from_edges(3, [(0, 1), (1, 2)], [1, 1, 1])
    assert circular._supports_compatible_seq(g, support, new) == ok


# ------------------------------------------------- positional references
#
# The 2-cycle scan, the DFS, the color masks and the colorful DP as they
# were when aux vertex and edge ids were positions in the aux graph's lists
# and every call built all of them, kept verbatim (the module's
# `_supports_compatible_seq` and exception aside). CheckedAuxBuild runs them
# at every circular call on the fresh build's positional form.


def ref_two_cycle_candidates(g, h):
    groups: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(h.edges):
        groups.setdefault((e.a, e.b) if e.a < e.b else (e.b, e.a), []).append(i)
    for pair in groups.values():
        for i in range(len(pair)):
            for j in range(i + 1, len(pair)):
                e1, e2 = h.edges[pair[i]], h.edges[pair[j]]
                support = set(h.vertices[e1.a].y) | set(h.vertices[e1.b].y) | {e1.inducer}
                if not circular._supports_compatible_seq(g, support, [e2.inducer]):
                    continue
                yield [e1.a, e1.b], [pair[i], pair[j]]


def ref_positional_dfs(g, h, max_len, budget):
    incident: list[list[int]] = [[] for _ in h.vertices]
    for ei, e in enumerate(h.edges):
        incident[e.a].append(ei)
        incident[e.b].append(ei)
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


def ref_positional_color_masks(h, inst, coloring):
    set_masks = []
    for s in inst.sets:
        mask = 0
        for e in s:
            mask |= 1 << coloring[e]
        set_masks.append(mask)
    vmask = []
    for v in h.vertices:
        mask = 0
        for x in v.y:
            mask |= set_masks[x]
        vmask.append(mask)
    return vmask, [set_masks[e.inducer] for e in h.edges]


def ref_positional_dp(h, vmask, emask, max_len, state_budget):
    steps: list[list[tuple[int, int, int]]] = [[] for _ in h.vertices]
    for ei, e in enumerate(h.edges):
        a, b, me = e.a, e.b, emask[ei]
        ma, mb = vmask[a], vmask[b]
        if me & ma or me & mb or ma & mb:
            continue
        steps[a].append((ei, b, me | mb))
        steps[b].append((ei, a, me | ma))
    closers: dict[int, dict[int, list[tuple[int, int]]]] = {}
    no_closers: dict[int, list[tuple[int, int]]] = {}

    layer: dict[tuple[int, int, int], tuple[Optional[int], Optional[int], int]] = {}
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
        newlayer: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        all_layers.append(newlayer)
        for (v, t, cmask) in all_layers[i - 1]:
            if i < 2:
                to_t = no_closers
            else:
                to_t = closers.get(t)
                if to_t is None:
                    to_t = closers[t] = {}
                    for ej, s, _ in steps[t]:
                        if s != t:
                            to_t.setdefault(s, []).append((ej, emask[ej]))
            for ei, s, add in steps[v]:
                if add & cmask:
                    continue
                mask = cmask | add
                key = (s, t, mask)
                if key in newlayer:
                    continue
                states += 1
                if states > state_budget:
                    raise SearchIncompleteError(f"colorful DP exceeded {state_budget} states")
                newlayer[key] = (ei, v, cmask)
                for ej, me in to_t.get(s, ()):
                    if not me & mask:
                        vseq, eseq = recover(s, t, mask, i)
                        yield vseq, eseq + [ej]
        if not newlayer:
            break


REAL_COLOR_MASKS = circular._color_masks


class CheckedAuxBuild:
    """Stands in for circular.build_aux_graph in a logimp run and checks
    every call against a from-scratch build (see check_state_against_fresh).
    At every call, the 2-cycle scan and the DFS over the state's graph must
    yield the candidates the positional references yield over the fresh
    build's positional form, in order; with `masks` standing in for
    circular._color_masks, so must the colorful DP under every coloring the
    call draws."""

    def __init__(self):
        self.calls = 0
        self.moved = 0  # members that changed between consecutive calls
        self.last = None
        self.current = None  # this call's graph, the fresh positional one, max_len
        self.seen = {"two_cycle": 0, "dfs": 0, "dp": 0, "colorings": 0}

    def __call__(self, state):
        a = state.a
        g = a.g
        if self.last is not None:
            self.moved += len(a.members ^ self.last)
        self.last = set(a.members)
        got = check_state_against_fresh(g, a, state, self.calls)
        self.calls += 1
        fresh = positional(fresh_aux(g, a, state))
        max_len = state.max_len
        two, dfs = check_searches_against_positional(g, got, fresh, max_len)
        self.seen["two_cycle"] += two
        self.seen["dfs"] += dfs
        self.current = got, fresh, max_len
        return got

    def masks(self, h, inst, coloring):
        got, fresh, max_len = self.current
        assert h is got
        budget = circular._MAX_DP_STATES
        ref_masks = ref_positional_color_masks(fresh, inst, coloring)
        expect = candidate_outcome(ref_positional_dp(fresh, *ref_masks, max_len, budget))
        vmask, emask = REAL_COLOR_MASKS(h, inst, coloring)
        assert candidate_outcome(circular._colorful_candidates(h, vmask, emask, max_len, budget), h) == expect
        self.seen["dp"] += len(expect[0])
        self.seen["colorings"] += 1
        return REAL_COLOR_MASKS(h, inst, coloring)


def run_checked_logimp(g, cfg, **kw):
    check = CheckedAuxBuild()
    with mock.patch.object(circular, "build_aux_graph", check), mock.patch.object(circular, "_color_masks", check.masks):
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
    seen = dict.fromkeys(["two_cycle", "dfs", "dp", "colorings"], 0)
    for inst, small in cases:
        g = build_conflict_graph(inst)
        cfg = SolverConfig(mode="logimp", circular=ColorCodingParams.defaults(g, inst, mode=mode))
        trace, check = run_checked_logimp(g, cfg, inst=inst, start=Solution.of(g, small))
        calls, moved = calls + check.calls, moved + check.moved
        seen = {k: seen[k] + check.seen[k] for k in seen}
    # random k=3 packings: one circular call per run, at the claw fixed point
    for seed in range(4):
        inst = gen_random_packing(40, 3, 30, seed=seed)
        g = build_conflict_graph(inst)
        params = dataclasses.replace(ColorCodingParams.defaults(g, inst, mode=mode), repetitions=20)
        cfg = SolverConfig(mode="logimp", circular=params)
        for start in (None, greedy(g)):
            _, check = run_checked_logimp(g, cfg, inst=inst, start=start)
            seen = {k: seen[k] + check.seen[k] for k in seen}
    assert calls > 10 and moved > 0 and seen["dfs"] > 1000
    assert (seen["dp"] > 1000 and seen["colorings"] > 100) == (mode == "rand")


@pytest.mark.parametrize("mode", ["exhaustive", "rand"])
def test_circular_state_under_scaling(mode):
    """Scaled runs, whose second case makes two circular calls with DFS and
    colorful-DP candidates to compare."""
    calls = []
    seen = dict.fromkeys(["dfs", "dp", "colorings"], 0)
    for inst, _ in [tight_with_random_sets(2), tight_with_random_sets(3, copies=6, extra=16)]:
        g = build_conflict_graph(inst)
        params = ColorCodingParams.defaults(g, inst, mode=mode)
        trace, check = run_checked_logimp(g, SolverConfig(mode="logimp", scaling_n=Fraction(3, 2), circular=params), inst=inst)
        assert trace.scaled
        calls.append(check.calls)
        seen = {k: seen[k] + check.seen[k] for k in seen}
    assert min(calls) >= 1 and max(calls) >= 2 and seen["dfs"] > 0
    assert (seen["dp"] > 0 and seen["colorings"] > 0) == (mode == "rand")


def random_swap(rng, g, members):
    """Swap up to three independent outside vertices in, drop their solution
    neighbors, and add random free vertices until the set is maximal."""
    outside = [u for u in range(g.n) if u not in members]
    x = set()
    for u in rng.sample(outside, min(len(outside), rng.randint(1, 3))):
        if nbr_set(g, u).isdisjoint(x):
            x.add(u)
    members = (members - {v for u in x for v in g.adj[u]}) | x
    order = list(range(g.n))
    rng.shuffle(order)
    for v in order:
        if v not in members and nbr_set(g, v).isdisjoint(members):
            members.add(v)
    return members


def swap(a, state, members):
    """Move `a` to `members` in one swap, applied to `a` and handed to
    `state`, which holds `a`."""
    imp = Improvement(frozenset(members - a.members), frozenset(a.members - members))
    a.apply(imp)
    state.update(imp)


@pytest.mark.parametrize("kind", ["prime", "ties", "equal"])
def test_circular_state_over_random_swaps(kind):
    """Random walks over maximal solutions of random graphs and k=3 packings
    (see `weighted_case`), several swaps between some calls. The 2-cycle
    scan and the DFS are checked at every call too."""
    seen = {"two_cycle": 0, "dfs": 0, "parallel": 0}
    for seed in range(10):
        g, a, _ = weighted_case(seed, kind)
        rng = random.Random(seed)
        params = ColorCodingParams(t=1, repetitions=1)
        state = circular_state(a, params)
        members = set(a.members)
        for step in range(12):
            for _ in range(rng.choice([1, 1, 2, 4])):
                members = random_swap(rng, g, members)
            swap(a, state, members)
            assert build_anchor_maps(a, state) is a.a_nbrs
            h = check_state_against_fresh(g, a, state, step)
            fresh = positional(fresh_aux(g, a, state))
            two, dfs = check_searches_against_positional(g, h, fresh, state.max_len)
            seen["two_cycle"] += two
            seen["dfs"] += dfs
            seen["parallel"] += len(h.parallel)
    assert seen["two_cycle"] > 20 and seen["parallel"] > 200


def test_circular_state_recovers_from_an_error():
    """A swap, then the removal of the solution's lowest vertex r, are
    handed to the state; the call over the non-maximal solution raises part
    way through the vertices those two moved. The next call is handed only
    the swap that fills the solution up again, r last, yet must redo every
    vertex the failed call was handed and match a fresh build."""
    params = ColorCodingParams(t=1, repetitions=1)
    for seed in range(10):
        g, a, _ = weighted_case(seed, "prime")
        rng = random.Random(seed)
        state = circular_state(a, params)
        check_state_against_fresh(g, a, state, seed)
        members = random_swap(rng, g, a.members)
        swap(a, state, members)
        r = min(members)
        swap(a, state, members - {r})
        with pytest.raises(ContractError, match="not maximal"):
            build_anchor_maps(a, state)
        members = set(a.members)
        for v in rng.sample(range(g.n), g.n) + [r]:
            if v not in members and nbr_set(g, v).isdisjoint(members):
                members.add(v)
        swap(a, state, members)
        assert build_anchor_maps(a, state) is a.a_nbrs
        check_state_against_fresh(g, a, state, seed + 1)


def test_logimp_completes_under_a_vertex_cap_the_unbounded_build_passes(monkeypatch):
    """The scale gate in small. On a random k=3 packing of 2,000 sets with
    the `rand-k3` settings, logimp from empty builds at most `bounded` aux
    vertices in one graph, where a vertex block at every member would take
    `unbounded`, about twice as many. Under a vertex cap between the two
    it completes with the uncapped trace; one below `bounded` it raises,
    and the state then matches a fresh build, as in
    `test_circular_state_recovers_from_an_error`."""
    inst = gen_random_packing(2000, 3, 2000, weight_dist=("uniform", 10), seed=0)
    g = build_conflict_graph(inst)
    cfg = SolverConfig(mode="logimp", rng_seed=0)
    counts = []

    def count(state, h):
        a = state.a
        ref = ref_anchors(g, a)
        cands = {}
        for x, v in ref.heaviest.items():
            if charge_to_anchor(g, a, x) > 0:
                cands.setdefault(v, []).append(x)
        unbounded = sum(1 + sum(1 for k in range(1, state.y_cap + 1) for y in combinations(cands.get(v, []), k)
                                if g.is_independent(y)) for v in a.members)
        counts.append((len(h.vertices), unbounded))

    with after_every_aux_graph(count):
        want = solve(g, cfg, inst=inst)
    bounded, unbounded = max(c for c, _ in counts), max(u for _, u in counts)
    assert 1.5 * bounded < unbounded
    monkeypatch.setattr(circular, "_MAX_AUX_VERTICES", (bounded + unbounded) // 2)
    got = solve(g, cfg, inst=inst)
    assert got.improvements == want.improvements and got.final.members == want.final.members
    monkeypatch.setattr(circular, "_MAX_AUX_VERTICES", bounded - 1)
    held = []
    real = circular.build_aux_graph

    def keep(state):
        held.append(state)
        return real(state)

    with mock.patch.object(circular, "build_aux_graph", keep):
        with pytest.raises(SearchIncompleteError, match=f"exceeded {bounded - 1} vertices"):
            solve(g, cfg, inst=inst)
    monkeypatch.undo()
    state = held[-1]
    check_state_against_fresh(g, state.a, state, 0)
    check_state_against_fresh(g, state.a, state, 1)


@pytest.mark.parametrize("mode", ["exhaustive", "rand"])
def test_circular_state_is_freed_without_cycle_collection(mode):
    """A search that returns an improvement leaves no reference cycle
    through its aux graph, which holds the state's dicts: the state is
    freed as soon as the run drops it, which keeps a run's peak memory
    down."""
    inst, g, a = berman_setup(5)
    params = ColorCodingParams.defaults(g, inst, mode=mode)
    gc.disable()
    try:
        state = circular_state(a, params, inst)
        imp = find_circular_improvement(state)
        assert imp is not None
        alive = weak_ref(state)
        del state
        assert alive() is None
    finally:
        gc.enable()


def test_circular_search_rejects_stale_maps():
    """A state whose maps were never built, or that was handed a swap since
    its last `build_anchor_maps`, refuses to search."""
    _, g, a = berman_setup(5)
    params = ColorCodingParams(t=1, repetitions=1)
    with pytest.raises(ContractError, match="stale"):
        find_circular_improvement(CircularState(a, params, g.d, None, random.Random(0)))
    state = circular_state(a, params)
    imp = find_circular_improvement(state)
    assert imp is not None
    a.apply(imp)
    state.update(imp)
    with pytest.raises(ContractError, match="stale"):
        find_circular_improvement(state)
    build_anchor_maps(a, state)
    assert find_circular_improvement(state) is None


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
        expect = list(layered_colorful_candidates(positional(h), vmask, emask, max_len, DP_BUDGET))
        got = list(synthetic_search(circular._colorful_candidates, h, vmask, emask, max_len, DP_BUDGET))
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
        h = build_aux_graph(circular_state(a, params, inst))
        assert h.edges
        for seed in range(6):
            crng = random.Random(seed)
            t = crng.choice([params.t, 24, 64])
            compare(h, *ref_color_masks(positional(h), inst, [crng.randrange(t) for _ in range(inst.universe_size)]), 6)
    assert total > 1000 and with_candidates > 100


def test_dp_state_cap_without_colorful_cycle():
    # the triangle's first and third edges share an element: no colorful cycle
    h = synthetic_aux(3, [(0, 1), (1, 2), (2, 0)])
    vmask, emask = element_masks(list(range(5)), v_elems=[{0}, {1}, {2}], e_elems=[{3}, {4}, {3}])
    assert list(synthetic_search(_colorful_cycles, h, vmask, emask, 6, DP_BUDGET)) == []
    with pytest.raises(SearchIncompleteError):
        list(synthetic_search(_colorful_cycles, h, vmask, emask, 6, 4))


def test_dp_state_cap_counts_built_states_only():
    """The triangle's DP builds layer 1 one end at a time: the 2 states of
    end 0, then at layer 2 its 3rd state closes the first candidate and the
    4th the second; ends 1 and 2 follow alike, 12 states in all. A cap of 3
    yields that candidate and raises at the 4th state, and a cap of 6 (the
    layer-1 states of ends 0 and 1 and two layer-2 states) yields the two
    candidates of end 0 and raises at the 7th; the whole-layer sweep, which
    built all 6 layer-1 states first, raised before yielding anything at
    either cap. Below the cap nothing changes."""
    h = synthetic_aux(3, [(0, 1), (1, 2), (2, 0)])
    vmask, emask = element_masks(list(range(6)), v_elems=[{0}, {1}, {2}], e_elems=[{3}, {4}, {5}])
    with pytest.raises(SearchIncompleteError):
        next(synthetic_search(_colorful_cycles, h, vmask, emask, 6, 2))
    it = synthetic_search(_colorful_cycles, h, vmask, emask, 6, 3)
    vs, es = next(it)
    assert sorted(vs) == [0, 1, 2] and sorted(es) == [0, 1, 2]
    with pytest.raises(SearchIncompleteError):
        next(it)
    it = synthetic_search(circular._colorful_candidates, h, vmask, emask, 6, 6)
    assert [next(it)[0][-1], next(it)[0][-1]] == [0, 0]
    with pytest.raises(SearchIncompleteError):
        next(it)
    for cap in (3, 6, 7):
        with pytest.raises(SearchIncompleteError):
            next(layered_colorful_candidates(positional(h), vmask, emask, 6, cap))
    full = list(synthetic_search(circular._colorful_candidates, h, vmask, emask, 6, 12))
    assert len(full) == 6
    assert full == list(layered_colorful_candidates(positional(h), vmask, emask, 6, 12))


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
        h = build_aux_graph(circular_state(a, inst=inst))
        yield inst, g, h


def test_color_masks_match_element_unions():
    """The masks `_color_masks` derives from the packing sets equal those of
    the element unions the aux graph once stored, under seeded colorings."""
    companions = edges = 0
    for inst, _, h in packing_aux_graphs():
        companions += sum(1 for _, v in aux_vertices(h) if v.y)
        edges += len(h.edges)
        for seed in range(4):
            crng = random.Random(seed)
            t = crng.choice([4, 24, 64])
            coloring = [crng.randrange(t) for _ in range(inst.universe_size)]
            vmask, emask = circular._color_masks(h, inst, coloring)
            got = [vmask[i] for i in sorted(h.vertices)], [emask[i] for i in sorted(h.edges)]
            assert got == ref_color_masks(positional(h), inst, coloring)
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


def stored_incident(hp):
    """The incident lists a positional aux graph once stored: each edge
    appended at its ends in edge order."""
    incident = {i: [] for i in range(len(hp.vertices))}
    for idx, e in enumerate(hp.edges):
        incident[e.a].append(idx)
        incident[e.b].append(idx)
    return incident


def test_dfs_candidate_sequence_matches_stored_incident_lists():
    """`_dfs_cycles` builds its incident lists from the edges; every
    candidate, in order, equals the DFS over the lists the aux graph once
    stored."""
    total = 0
    for _, g, h in packing_aux_graphs():
        hp = positional(h)
        max_len = max_cycle_len_for(g.n)
        expect = list(ref_dfs_cycles(g, hp, stored_incident(hp), max_len, circular._MAX_DFS_NODES))
        assert list(positional_candidates(h, circular._dfs_cycles(g, h, max_len, circular._MAX_DFS_NODES))) == expect
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
        if v not in members and nbr_set(g, v).isdisjoint(members):
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
        ex = find_circular_improvement(circular_state(a, inst=inst))
        params = dataclasses.replace(ColorCodingParams.defaults(g, inst, mode="rand"), repetitions=200)
        rd = find_circular_improvement(circular_state(a, params, inst, rng=random.Random(i)))
        assert (rd is not None) == (ex is not None), f"case {i}"
        h = build_aux_graph(circular_state(a, params, inst))
        two = any(
            validate_circular(a, _assemble(a, h, vs, es), d=g.d)
            for vs, es in _two_cycle_candidates(g, h)
        )
        found += ex is not None
        dp_decided += ex is not None and not two
        negatives_with_edges += ex is None and len(h.edges) >= 3
    assert found >= 30 and dp_decided >= 30 and negatives_with_edges >= 20


def after_every_aux_graph(check):
    """A patch of `circular.build_aux_graph` that calls `check(state, h)`
    on every graph it returns."""
    real = circular.build_aux_graph

    def checked(state):
        h = real(state)
        check(state, h)
        return h

    return mock.patch.object(circular, "build_aux_graph", checked)


def check_starts_and_blocks(state, h):
    """`h.starts` lists, in id order, exactly the vertices of `h` with an
    edge, the keys of `h.incident`; the inducers with an edge block are
    exactly those the bound admits (`ref_admitted`), and the anchors of
    its vertices exactly theirs, all of them A's members: each such anchor
    has its vertex block, and no other vertex has one."""
    assert list(h.starts) == sorted(v for v in h.vertices if h.incident.get(v))
    assert h.incident.keys() == set(h.starts)
    a = state.a
    admitted = ref_admitted(a.g, a, ref_anchors(a.g, a))
    assert set(h.edges.blocks) == set(admitted)
    anchors = {v for pair in admitted.values() for v in pair}
    assert {v.anchor for _, v in aux_vertices(h)} == anchors and anchors <= a.members
    check_holds(state)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["exhaustive", "rand"]), st.sampled_from(["tight", "tight+sets", "perturbed", "packing"]), st.integers(0, 2**16))
def test_start_list_and_vertex_blocks_stay_current_in_logimp(mode, source, seed):
    """`check_starts_and_blocks` after every aux-graph call of a logimp run
    from the small sides of tight copies (with or without random sets), at
    perturbed tight copies with random sets, or at random k=3 packings,
    empty or greedy."""
    rng = random.Random(seed)
    if source == "tight":
        inst, small = tight_copies(rng.choice([4, 5]), rng.randint(1, 5), seed)
    elif source == "tight+sets":
        inst, small = tight_with_random_sets(seed, copies=rng.randint(2, 6), extra=rng.randint(4, 16))
    if source.startswith("tight"):
        g = build_conflict_graph(inst)
        start = Solution.of(g, small)
    elif source == "perturbed":
        inst, g, start = perturbed_tight_with_random_sets(seed)
    else:
        inst = gen_random_packing(rng.randint(15, 40), 3, rng.randint(12, 30), seed=seed)
        g = build_conflict_graph(inst)
        start = rng.choice([None, greedy(g)])
    params = dataclasses.replace(ColorCodingParams.defaults(g, inst, mode=mode), repetitions=20)
    calls = 0

    def check(state, h):
        nonlocal calls
        calls += 1
        check_starts_and_blocks(state, h)

    with after_every_aux_graph(check):
        solve(g, SolverConfig(mode="logimp", rng_seed=seed, circular=params), inst=inst, start=start)
    assert calls >= 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["prime", "ties", "equal"]), st.integers(0, 2**16))
def test_start_list_and_vertex_blocks_stay_current_over_random_swaps(kind, seed):
    """`check_starts_and_blocks` after every aux-graph call of a state handed
    random swaps over maximal solutions (see `weighted_case`), several
    between some calls: they move candidates between anchors that stay in
    A far more often than a logimp run's few circular calls do."""
    g, a, _ = weighted_case(seed, kind)
    rng = random.Random(seed)
    state = circular_state(a, ColorCodingParams(t=1, repetitions=1))
    members = set(a.members)
    with after_every_aux_graph(check_starts_and_blocks):
        for _ in range(8):
            old = members
            for _ in range(rng.choice([1, 1, 2, 4])):
                members = random_swap(rng, g, members)
            swap(a, state, members)
            build_anchor_maps(a, state)
            circular.build_aux_graph(state)


def edgeless_aux_graphs():
    """`packing_aux_graphs()`, the aux graphs of more random k=3 packings
    at greedy solutions, then copies of the aux graphs of logimp runs over
    tight copies from their small sides at every call after the first,
    when some copies are improved. Vertices without an edge sit at the
    anchors of admitted inducers whose edge checks all fail, as in the
    random packings; an improved copy has no admitted inducer, so no
    vertex at all."""
    yield from packing_aux_graphs()
    for seed in range(4, 8):
        inst = gen_random_packing(150, 3, 45, seed=seed)
        g = build_conflict_graph(inst)
        yield inst, g, build_aux_graph(circular_state(greedy(g), inst=inst))
    for inst, small in [tight_copies(5, 4, seed=3), tight_with_random_sets(4, copies=4, extra=8)]:
        g = build_conflict_graph(inst)
        copies = []

        def keep(state, h):
            copies.append(AuxGraph(AuxBlocks(dict(h.vertices.blocks), len(h.vertices)),
                                   AuxBlocks(dict(h.edges.blocks), len(h.edges)),
                                   {v: list(ids) for v, ids in h.incident.items()}, list(h.parallel), list(h.starts)))

        with after_every_aux_graph(keep):
            solve(g, SolverConfig(mode="logimp"), inst=inst, start=Solution.of(g, small))
        for h in copies[1:]:
            yield inst, g, h


def least_budget(outcome):
    """The least budget b at which `outcome(b)` reports no
    `SearchIncompleteError`; a search raises iff its work exceeds b."""
    hi = 1
    while outcome(hi)[1]:
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if outcome(mid)[1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_capped_searches_from_the_starts_match_searches_from_every_vertex():
    """On aux graphs with edgeless vertices, under budgets up to the least
    one that completes, the DFS yields the candidates `ref_dfs_cycles`
    (which starts at every vertex) yields before it raises, and raises
    exactly when it does; the colorful DP, under seeded colorings, does the
    same against the DP started at every vertex id."""
    edgeless = raised = dfs_candidates = dp_candidates = 0
    for inst, g, h in edgeless_aux_graphs():
        edgeless += len(h.vertices) - len(h.starts)
        max_len = max_cycle_len_for(g.n)
        hp = positional(h)
        incident = stored_incident(hp)

        def ref_dfs(budget):
            return candidate_outcome(ref_dfs_cycles(g, hp, incident, max_len, budget))

        full = least_budget(ref_dfs)
        for budget in sorted({0, 1, 2, 5, full // 3, full // 2, full - 1, full}):
            expect = ref_dfs(budget)
            assert candidate_outcome(circular._dfs_cycles(g, h, max_len, budget), h) == expect
            raised += expect[1]
            dfs_candidates += len(expect[0])
        every_vertex = dataclasses.replace(h, starts=sorted(h.vertices),
                                           incident={v: h.incident.get(v, []) for v in h.vertices})
        for seed in range(3):
            crng = random.Random(seed)
            t = crng.choice([4, 24, 64])
            coloring = [crng.randrange(t) for _ in range(inst.universe_size)]

            def dp(graph, budget):
                vmask, emask = circular._color_masks(graph, inst, coloring)
                return candidate_outcome(_colorful_cycles(graph, vmask, emask, max_len, budget))

            full = least_budget(lambda budget: dp(every_vertex, budget))
            for budget in sorted({0, 1, 2, 5, full // 3, full // 2, full - 1, full}):
                expect = dp(every_vertex, budget)
                assert dp(h, budget) == expect
                raised += expect[1]
                dp_candidates += len(expect[0])
    assert edgeless > 100 and raised > 100 and dfs_candidates > 100 and dp_candidates > 100


class CountingIncident(Mapping):
    """An aux graph's incident lists that count their reads into the last
    entry of `reads`."""

    def __init__(self, inner, reads):
        self.inner, self.reads = inner, reads

    def __getitem__(self, v):
        self.reads[-1] += 1
        return self.inner[v]

    def __iter__(self):
        return iter(self.inner)

    def __len__(self):
        return len(self.inner)


@pytest.mark.parametrize("mode", ["exhaustive", "rand"])
def test_incident_reads_per_circular_call_do_not_grow_with_the_copies(mode):
    """logimp from the small sides of 10 and 40 tight copies (seed 0) makes
    one circular call per copy and one more, and the searches read no more
    incident lists in any call at 40 copies than at 10: a call's searches
    start only at vertices with an edge, so the copies improved earlier
    cost them nothing."""
    real = circular.AuxGraph
    most = {}
    for copies in (10, 40):
        inst, small = tight_copies(5, copies, seed=0)
        g = build_conflict_graph(inst)
        reads = []

        def counted(vertices, edges, incident, *rest):
            reads.append(0)
            return real(vertices, edges, CountingIncident(incident, reads), *rest)

        cfg = SolverConfig(mode="logimp", rng_seed=0, circular=ColorCodingParams.defaults(g, inst, mode=mode))
        with mock.patch.object(circular, "AuxGraph", counted):
            trace = solve(g, cfg, inst=inst, start=Solution.of(g, small))
        assert [r.kind for r in trace.improvements].count("circular") == copies == len(reads) - 1
        most[copies] = max(reads)
    assert 0 < most[40] <= most[10]


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


@pytest.mark.parametrize("t", [1, 2, 5, 8, 11, 24, 640])
def test_coloring_draw_keeps_the_randrange_stream(t):
    """`_draw_coloring` inlines CPython's `randrange(t)`: the same colors,
    and the generator left in the same state."""
    for seed in range(3):
        ours, ref = random.Random(seed), random.Random(seed)
        assert circular._draw_coloring(ours, t, 2000) == [ref.randrange(t) for _ in range(2000)]
        assert ours.getstate() == ref.getstate()
