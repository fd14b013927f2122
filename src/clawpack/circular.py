"""Cycle-backed local improvements of the squared weight function.

Pipeline: anchors over the current solution, a lazily restricted
auxiliary multigraph whose edges certify a per-edge squared-weight
inequality, then cycle detection. Cycles of length 2 (parallel edges) are
scanned directly; longer cycles are found either by an exhaustive DFS
(complete, deterministic) or by randomized color coding over the packing
universe with a colorful-cycle dynamic program. The aux graph is its
vertices and edges and two lookups over them: each vertex's incident
edges, and the edges that can have a parallel twin. Color coding derives
the colors of a vertex or edge from the packing sets of its companion set
or inducer.

A vertex u outside A is anchored at its heaviest solution neighbor and
draws its aux edge to its second: the first two entries of the solution's
table of N(u, A) (`Solution.a_nbrs`), which keeps each list heaviest first
in the graph's `weight_order`. No other anchor map exists. The aux-graph
build compares sums of the integer weights `w_int` and `w2_int` (their
squares), which order exactly as the rational sums do. `aux_edge_check`
is the per-edge definition those sums decide, and `validate_circular`
re-checks every returned improvement with it. An anchor's companion sets
are the independent subsets of its candidates, read from
`instances.independent_subsets`, the package's one subset walk.

Both builds go through a `CircularState`. logimp keeps one per run and hands
it every swap, so at each claw fixed point only the vertices next to the
swaps since the last one are re-anchored, and only the vertex blocks (one
per anchor) and the edge blocks (one per inducing vertex) whose inputs
changed are recomputed. The state holds one aux graph by id, vertices,
edges and each vertex's sorted incident edge ids, and changes it only where
a block is built or dropped; ids sort in the from-scratch order, so a call
returns that graph as it stands, and the 2-cycle scan reads only the
anchor pairs that two or more inducers share. It also keeps, sorted, the ids of the vertices
with an edge, and the DFS and the DP start only there: the copies of a
solution that earlier swaps improved have no edge and cost a call nothing,
and a call reads no whole set of the state. The state is built once per
run from the graph, the search parameters, the claw bound, the packing
instance and the random generator, and fixes what they fix: the
companion-set cap, the cycle length bound and whether color coding can
run. The DP works out a vertex's color masks, step table and first layer
only when it first reaches that vertex, and yields each candidate as soon
as the state that closes it is built, so a search that stops at the first
candidate that validates pays for little more than the prefix it read.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .instances import (
    BudgetExceededError,
    Circular,
    ConflictGraph,
    ContractError,
    Improvement,
    InputError,
    PackingInstance,
    Solution,
    independent_subsets,
    validate_improvement,
)

# Work caps of the circular search: aux vertices and edge checks per aux
# graph, colorful-DP states per coloring, and DFS nodes per call.
_MAX_AUX_VERTICES = 200_000
_MAX_AUX_EDGE_CHECKS = 2_000_000
_MAX_DP_STATES = 2_000_000
_MAX_DFS_NODES = 2_000_000
# Companion sets hold at most this many candidates (and never more than the
# claw bound's d - 1), so an anchor with c candidates has at most
# sum_{j <= 3} C(c, j) of them: cubic in c, not 2**c.
_MAX_COMPANION = 3

# An aux vertex's id is its anchor shifted left by _ID_SHIFT plus its
# position in the anchor's block, and an aux edge's id its inducer shifted
# the same way plus its position in the inducer's block, so ids increase in
# the from-scratch vertex and edge orders. No block comes near 2**32
# vertices or edges: the caps below that are far lower.
_ID_SHIFT = 32


class SearchIncompleteError(BudgetExceededError):
    """The auxiliary-graph or cycle search hit a cap; absence not certified."""


def build_anchor_maps(
    g: ConflictGraph, a: Solution, state: Optional["CircularState"] = None
) -> Sequence[Sequence[int]]:
    """`a`'s table of N(u, A), once every vertex outside `a` is checked to
    have a solution neighbor: u's anchor is `a.a_nbrs[u][0]` and its
    second, where it has one, `a.a_nbrs[u][1]`. A vertex without one is a
    `ContractError` (the solution is not maximal).

    With the run's `CircularState`, only the vertices next to the swaps
    since its last successful call are checked, and then re-anchored in
    the state; without one, every vertex is checked. A caller that passes
    a state must hand it (`CircularState.update`) every swap applied to `a`
    since that call.
    """
    members, a_nbrs = a.members, a.a_nbrs
    touched = range(g.n) if state is None else state._near_moved()
    for u in touched:
        if not a_nbrs[u] and u not in members:
            raise ContractError(f"vertex {u} has no solution neighbor; solution not maximal")
    if state is not None:
        state._reanchor(a, touched)
    return a_nbrs


def aux_edge_check(
    u: int,
    y1: Iterable[int],
    y2: Iterable[int],
    g: ConflictGraph,
    a_nbrs: Sequence[Sequence[int]],
) -> bool:
    """Exact per-edge inequality certifying that a cycle through this edge improves w^2.

    `a_nbrs` is the solution's table of N(u, A), heaviest first
    (`Solution.a_nbrs`), and u must have two solution neighbors. y1 must be
    anchored at the heaviest, v1 = a_nbrs[u][0], and y2 at the second,
    v2 = a_nbrs[u][1]; disjointness and independence of {u} | y1 | y2 are
    the caller's promise. Both sides are doubled and compared as sums of
    the integers `g.w2_int`, which order exactly as the squared rational
    weights do.
    """
    v1, v2, *rest = a_nbrs[u]
    w2 = g.w2_int
    lhs = 2 * w2[u] + sum(w2[x] for x in y1) + sum(w2[x] for x in y2)
    rhs = w2[v1] + w2[v2] + 2 * sum(w2[x] for x in rest)
    for x in y1:
        rhs += sum(w2[z] for z in a_nbrs[x] if z != v1)
    for x in y2:
        rhs += sum(w2[z] for z in a_nbrs[x] if z != v2)
    return lhs > rhs


def trial_success_bound(t: int, m: int) -> Fraction:
    """Chance t!/((t-m)! t^m) that one uniform coloring into t colors is
    injective on m fixed elements; 0 for m > t."""
    return Fraction(math.perm(t, m), t**m)


def repetitions_for(t: int, m: int, failure_prob: Fraction = Fraction(1, 1000)) -> int:
    """Repetitions so that all of them missing has probability <= failure_prob."""
    p = trial_success_bound(t, m)
    if p <= 0:
        raise InputError(f"support size {m} exceeds color count {t}")
    if p == 1:
        return 1
    miss = -math.log1p(-float(p))
    if miss > 0:
        reps = math.log(1 / float(failure_prob)) / miss
        if reps < math.inf:
            return max(1, math.ceil(reps))
    # p is below float range. (1 - p)^r <= exp(-r p), and exp(-1/f) <= f,
    # so r = 1 / (f p), computed exactly, is enough.
    return math.ceil(1 / (failure_prob * p))


def max_cycle_len_for(n: int) -> int:
    """Largest L with 2**L <= n**4, the cycle-length bound at graph size n
    (2 for n <= 1)."""
    return 2 if n <= 1 else (n**4).bit_length() - 1


@dataclass
class ColorCodingParams:
    """How the circular search looks for cycles.

    mode "exhaustive" runs the complete DFS (the only option for inputs
    without set structure); mode "rand" draws `repetitions` uniform
    colorings of the universe into `t` colors and runs the colorful-cycle
    dynamic program per coloring. The cycle-length bound and the
    companion-set cap are not settings: `CircularState` derives them from
    the graph and the claw bound.
    """

    t: int
    repetitions: int
    mode: str = "exhaustive"

    def __post_init__(self):
        if self.t < 1 or self.repetitions < 1:
            raise InputError("need t >= 1, repetitions >= 1")
        if self.mode not in ("rand", "exhaustive"):
            raise InputError(f"unknown circular-search mode {self.mode!r}")

    @staticmethod
    def defaults(
        g: ConflictGraph,
        inst: Optional[PackingInstance] = None,
        mode: str = "exhaustive",
    ) -> "ColorCodingParams":
        if inst is None:
            return ColorCodingParams(t=1, repetitions=1, mode=mode)
        k = inst.k
        in_use = len(set().union(*inst.sets)) if inst.sets else 1
        t = 4 * (k + 1) * k * math.ceil(math.log2(max(2, g.n)))
        t = max(1, min(t, in_use))
        # Support of a short planted cycle: about six k-sets.
        m = min(t, 6 * k)
        reps = min(10_000, repetitions_for(t, m))
        return ColorCodingParams(t=t, repetitions=reps, mode=mode)


@dataclass(frozen=True)
class AuxVertex:
    anchor: int
    y: tuple[int, ...]


@dataclass(frozen=True)
class AuxEdge:
    """Edge induced by `inducer`; endpoint a sits at its heaviest anchor."""

    a: int
    b: int
    inducer: int


@dataclass
class AuxGraph:
    """Aux vertices and edges by id; an edge's ends are vertex ids.

    Ids sort in the from-scratch order: vertices by anchor, then place in
    the anchor's block, and edges by inducer, then place in its block; the
    dicts' own order means nothing. `incident` maps every vertex id to the
    ids of its edges, sorted; `parallel` lists, sorted, every edge that can
    share both ends with another; and `starts` lists, sorted, the ids of the
    vertices with at least one edge, the only ones a cycle search starts
    from. The graph a `CircularState` returns holds the state's own dicts
    and list, valid until its next call.
    """

    vertices: dict[int, AuxVertex]
    edges: dict[int, AuxEdge]
    incident: dict[int, list[int]]
    parallel: Sequence[int]
    starts: Sequence[int]


class _VertexBlock(NamedTuple):
    """The ids of the aux vertices at one anchor, in their order: one per
    independent companion set of at most y_cap candidates, with its net."""

    ids: range
    ys: Sequence[tuple[int, ...]]
    nets: Sequence[int]


class _EdgeBlock(NamedTuple):
    """The ids of the aux edges one inducer makes, from the block at its
    heaviest anchor to the block at its second, the checks they took, and
    those two anchors."""

    ids: range
    checks: int
    anchors: tuple[int, int]


class _Memo(dict):
    """A dict that fills a missing key with `fn(key)` on first use."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class CircularState:
    """What the circular search keeps between calls in one run, for one
    evolving solution A over one graph.

    A vertex's anchors, the first two entries of its N(u, A) list, change
    only when it or one of its neighbors changed membership since the last
    call, so only `moved | N(moved)` is checked and re-anchored, `moved`
    being x | removed over every swap handed to `update` since that call
    (every vertex before the first call; a call that raises keeps it for
    the next). The aux graph is kept as blocks: a vertex block per anchor v
    (its companion sets and their nets) and an edge block per inducer u
    (its edges and its edge-check count). A vertex block is dropped when a
    candidate (an outside vertex with v as heaviest anchor and positive
    charge) joins or leaves v or has its solution neighbors changed; an
    edge block is recomputed when u's anchors or solution neighbors
    change, or when the block at either anchor was dropped.

    A vertex's id comes from its anchor and its position in the block (see
    `_ID_SHIFT`), and an edge's from its inducer and its position in the
    block, so the ids of a block stay fixed while it lives and sort in the
    from-scratch order. The state keeps one aux graph by id: its vertices,
    its edges, each vertex's edge ids in sorted order, and the sorted ids
    of the vertices with an edge, where the searches start. Only building
    or dropping a block changes them: a start enters with a vertex's first
    edge and leaves with its last edge or its block. The dirty edge blocks
    are dropped before any vertex block is rebuilt, so no edge ever names a
    vertex that is gone, and a new edge block enters the graph only once it
    is complete, so a cap crossed part-way leaves no trace of it. Each call
    thus builds no vertex or edge of a block that did not change, and
    vertex ids, edge ids and the edge-check count are those of a fresh
    build. For the 2-cycle scan the state keeps, per unordered anchor pair,
    the inducers whose blocks have edges between them, and the pairs that
    two or more inducers share: only those can carry parallel edges.

    No call walks a whole set of the state. The vertices without a vertex
    block are collected as the swaps come in (new members, and anchors
    whose block was dropped), and the members among them get one; the dirty
    inducers are the only ones looked up among the edge blocks and the
    N(u, A) table.

    The aux graph's dicts the state returns are its own and change at its
    next call.

    The state is built from what the run fixes: the graph, the search
    parameters, the claw bound `d`, the packing instance (None for a bare
    graph) and the random generator color coding draws from. It derives
    its two bounds: companion sets hold at most `y_cap = min(_MAX_COMPANION,
    d - 1)` candidates, and cycles at most `max_len = max_cycle_len_for(n)`
    edges, the bound `validate_circular` checks. It rejects rand
    mode without a packing instance.
    """

    def __init__(
        self,
        g: ConflictGraph,
        params: ColorCodingParams,
        d: int,
        inst: Optional[PackingInstance],
        rng: random.Random,
    ):
        if params.mode == "rand" and inst is None:
            raise InputError("randomized circular search needs the packing instance")
        self.g = g
        self.params = params
        self.d = d
        self.inst = inst
        self.rng = rng
        self.y_cap = min(_MAX_COMPANION, d - 1)
        self.max_len = max_cycle_len_for(g.n)
        self._moved = set(range(g.n))  # re-anchored at the next call
        self._anchor: dict[int, int] = {}  # companion-set candidate -> its anchor
        self._vblocks: dict[int, _VertexBlock] = {}
        self._eblocks: dict[int, _EdgeBlock] = {}  # only blocks with checks
        self._vertices: dict[int, AuxVertex] = {}
        self._edges: dict[int, AuxEdge] = {}
        self._incident: dict[int, list[int]] = {}  # vertex id -> its edge ids, sorted
        self._starts: list[int] = []  # the ids of the vertices with an edge, sorted
        self._unbuilt: set[int] = set()  # vertices without a block; members get one next call
        self._pairs: dict[tuple[int, int], set[int]] = {}  # anchor pair -> inducers with edges
        self._shared: set[tuple[int, int]] = set()  # the pairs with two or more inducers
        self._dirty_u: set[int] = set()
        self.checks = 0  # edge checks the blocks hold: the last aux graph's count

    def update(self, imp: Improvement) -> None:
        """Note the vertices that `imp`, applied to A, moved in or out."""
        self._moved.update(imp.x, imp.removed)

    def _near_moved(self) -> set[int]:
        """The vertices moved since the last `_reanchor`, and their neighbors."""
        adj, moved = self.g.adj, self._moved
        touched = set(moved)
        for v in moved:
            touched.update(adj[v])
        return touched

    def _reanchor(self, a: Solution, touched: set[int]) -> None:
        """Move every vertex of `touched`, `_near_moved()` over `a`, to its
        new anchor, drop the vertex blocks at its old and new anchor, and
        mark its edge block dirty; then clear the moved vertices. Every
        vertex of `touched` outside A has a solution neighbor."""
        members, a_nbrs = a.members, a.a_nbrs
        w = self.g.w_int
        anchor, vblocks = self._anchor, self._vblocks
        unbuilt = self._unbuilt
        for u in touched:
            old = anchor.pop(u, None)
            if old in vblocks:
                self._drop_block(old, a_nbrs)
            if u in members:
                if u not in vblocks:
                    unbuilt.add(u)
                continue
            if u in vblocks:  # u left A
                self._drop_block(u, a_nbrs)
            nu = a_nbrs[u]
            if 2 * w[u] > sum(w[x] for x in nu):
                v1 = anchor[u] = nu[0]
                if v1 in vblocks:
                    self._drop_block(v1, a_nbrs)
        self._dirty_u |= touched
        self._moved.clear()

    def _drop_block(self, v: int, a_nbrs: Sequence[Sequence[int]]) -> None:
        """Drop the vertex block at anchor v with its vertices, their
        incident lists and their starts, note v for a rebuild, and mark the
        edge blocks that end at v dirty: their inducers are neighbors of v."""
        vertices, incident, starts = self._vertices, self._incident, self._starts
        ids = self._vblocks.pop(v).ids
        for i in ids:
            del vertices[i], incident[i]
        del starts[bisect_left(starts, ids.start):bisect_left(starts, ids.stop)]
        self._unbuilt.add(v)
        self._dirty_u.update(u for u in self.g.adj[v] if v in a_nbrs[u][:2])

    def _add_vertex_block(self, v: int, a_nbrs: Sequence[Sequence[int]]) -> None:
        """Build the vertex block at anchor v: one aux vertex per companion
        set, largest first, then in id order, each with its net. An anchor
        with no candidate has the one vertex y = (), net 0."""
        g = self.g
        anchor = self._anchor
        cands = [u for u in g.adj[v] if anchor.get(u) == v]  # sorted, as g.adj[v] is
        if cands:
            w2 = g.w2_int
            spill = {x: sum(w2[z] for z in a_nbrs[x] if z != v) - w2[x] for x in cands}
            ys = [(), *independent_subsets(g, cands, self.y_cap)]
            ys.sort(key=lambda y: (-len(y), y))
            nets = [sum(spill[x] for x in y) for y in ys]
        else:
            ys, nets = [()], [0]
        base = v << _ID_SHIFT
        ids = range(base, base + len(ys))
        vertices, incident = self._vertices, self._incident
        for i, y in zip(ids, ys):
            vertices[i] = AuxVertex(v, y)
            incident[i] = []
        self._vblocks[v] = _VertexBlock(ids, ys, nets)

    def _drop_edge_blocks(self) -> None:
        """Drop the edge block of every dirty inducer, with its edges, and
        the starts of the vertices left without one."""
        eblocks, edges, incident, starts = self._eblocks, self._edges, self._incident, self._starts
        pairs, shared = self._pairs, self._shared
        for u in [u for u in self._dirty_u if u in eblocks]:
            block = eblocks.pop(u)
            self.checks -= block.checks
            for ei in block.ids:
                e = edges.pop(ei)
                for end in (e.a, e.b):
                    at_end = incident.get(end)
                    if at_end is not None:  # else the block at that end was dropped
                        at_end.remove(ei)
                        if not at_end:
                            del starts[bisect_left(starts, end)]
            if not block.ids:
                continue
            v1, v2 = block.anchors
            key = (v1, v2) if v1 < v2 else (v2, v1)
            group = pairs[key]
            group.remove(u)
            if len(group) < 2:
                shared.discard(key)
            if not group:
                del pairs[key]

    def _update_edge_blocks(self, a_nbrs: Sequence[Sequence[int]]) -> None:
        """Build the edge block of every dirty inducer, the starts of the
        vertices it gives a first edge, and the inducers per anchor pair
        with it. Raises `SearchIncompleteError` once the checks of all
        blocks pass `_MAX_AUX_EDGE_CHECKS`; the inducers not yet built stay
        dirty."""
        cap = _MAX_AUX_EDGE_CHECKS
        g = self.g
        w2 = g.w2_int
        adj = g.adj_sets
        vblocks, eblocks, dirty = self._vblocks, self._eblocks, self._dirty_u
        edges, incident, starts = self._edges, self._incident, self._starts
        pairs, shared = self._pairs, self._shared
        dirty.difference_update([u for u in dirty if len(a_nbrs[u]) < 2])  # only inducers have edge blocks
        total = self.checks
        while dirty:
            u = dirty.pop()
            v1, v2, *rest = a_nbrs[u]
            b1, b2 = vblocks[v1], vblocks[v2]
            nbrs = adj[u]
            ys2, nets2 = b2.ys, b2.nets
            # u is anchored at v1, so no companion set at v2 contains it.
            side_b = [ib for ib, y in enumerate(ys2) if nbrs.isdisjoint(y)]
            if not side_b:
                continue
            base = 2 * w2[u] - w2[v1] - w2[v2] - 2 * sum(w2[x] for x in rest)
            new: list[AuxEdge] = []
            checks = 0
            for ia, y1 in enumerate(b1.ys):
                if u in y1 or not nbrs.isdisjoint(y1):
                    continue
                bound = base - b1.nets[ia]
                for ib in side_b:
                    if y1 and any(not adj[x].isdisjoint(ys2[ib]) for x in y1):
                        continue
                    checks += 1
                    if total + checks > cap:
                        dirty.add(u)
                        self.checks = total
                        raise SearchIncompleteError(f"aux graph exceeded {cap} edge checks")
                    if bound > nets2[ib]:
                        new.append(AuxEdge(b1.ids[ia], b2.ids[ib], u))
            if not checks:
                continue
            first = u << _ID_SHIFT
            ids = range(first, first + len(new))
            eblocks[u] = _EdgeBlock(ids, checks, (v1, v2))
            total += checks
            if new:
                for ei, e in zip(ids, new):
                    edges[ei] = e
                    for end in (e.a, e.b):
                        at_end = incident[end]
                        if not at_end:
                            insort(starts, end)
                        insort(at_end, ei)
                key = (v1, v2) if v1 < v2 else (v2, v1)
                group = pairs.setdefault(key, set())
                group.add(u)
                if len(group) == 2:
                    shared.add(key)
        self.checks = total

    def aux_graph(self, a: Solution) -> AuxGraph:
        """The aux graph over `a` and its anchors; see `build_aux_graph`."""
        if self._moved:
            raise ContractError("anchor maps are stale: build_anchor_maps after every swap")
        members, unbuilt, a_nbrs = a.members, self._unbuilt, a.a_nbrs
        self._drop_edge_blocks()
        for v in unbuilt:
            if v in members:  # else v left A
                self._add_vertex_block(v, a_nbrs)
        unbuilt.clear()
        # A cap is crossed when a count passes it.
        if len(self._vertices) > _MAX_AUX_VERTICES:
            raise SearchIncompleteError(f"aux graph exceeded {_MAX_AUX_VERTICES} vertices")
        self._update_edge_blocks(a_nbrs)
        if self.checks > _MAX_AUX_EDGE_CHECKS:
            raise SearchIncompleteError(f"aux graph exceeded {_MAX_AUX_EDGE_CHECKS} edge checks")
        eblocks, pairs = self._eblocks, self._pairs
        sharing = sorted({u for key in self._shared for u in pairs[key]})
        parallel = [ei for u in sharing for ei in eblocks[u].ids]
        return AuxGraph(self._vertices, self._edges, self._incident, parallel, self._starts)


def build_aux_graph(state: CircularState, a: Solution) -> AuxGraph:
    """Materialize the restricted auxiliary multigraph.

    Companion-set candidates at each anchor are the outside vertices
    anchored there that send strictly positive charge; the full vertex set
    over all independent companion sets is infeasible, and the restriction
    preserves the improvements the fixed-point analysis constructs.

    Only integers are compared. A vertex u sends positive charge iff
    2 w_int(u) > w_int(N(u,A)). The doubled `aux_edge_check` inequality of
    an edge induced by u between companion sets y1 (at v1) and y2 (at v2)
    is split into a per-u base and a per-aux-vertex net, both `w2_int` sums:
    base(u) = 2 w2(u) - w2(v1) - w2(v2) - 2 w2(N(u,A) - {v1, v2}) and
    net(y at v) = sum over x in y of w2(N(x,A) - {v}) - w2(x). The net does
    not depend on u because every x in y has v as its heaviest anchor. The
    edge exists iff base(u) > net(y1) + net(y2).

    The graph is built over the state's anchors, which must be current:
    `build_anchor_maps(g, a, state)` after the last swap handed to the state,
    else `ContractError`. Only the blocks the swaps since the last call
    touched are rebuilt.
    """
    return state.aux_graph(a)


def _assemble(
    a: Solution,
    h: AuxGraph,
    vertex_order: Sequence[int],
    edge_order: Sequence[int],
) -> Improvement:
    """The improvement a cycle of `h` stands for, with N(x, A) read from
    `a`'s table."""
    u_order = tuple(h.edges[e].inducer for e in edge_order)
    anchors = tuple(h.vertices[i].anchor for i in vertex_order)
    ys = tuple((h.vertices[i].anchor, h.vertices[i].y) for i in vertex_order)
    x = set(u_order)
    for _, y in ys:
        x.update(y)
    a_nbrs = a.a_nbrs
    return Improvement(
        frozenset(x),
        frozenset().union(*(a_nbrs[u] for u in x)),
        Circular(u=u_order, cycle_vertices=anchors, y=ys),
    )


def _two_cycle_candidates(g: ConflictGraph, h: AuxGraph) -> Iterator[tuple[list[int], list[int]]]:
    """Pairs of parallel edges whose supports are compatible, grouped by
    their ends in the order of each group's first edge; only the edges in
    `h.parallel` are read."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i in h.parallel:
        e = h.edges[i]
        groups.setdefault((e.a, e.b) if e.a < e.b else (e.b, e.a), []).append(i)
    for pair in groups.values():
        for i in range(len(pair)):
            for j in range(i + 1, len(pair)):
                e1, e2 = h.edges[pair[i]], h.edges[pair[j]]
                support = set(h.vertices[e1.a].y) | set(h.vertices[e1.b].y) | {e1.inducer}
                if not _supports_compatible_seq(g, support, [e2.inducer]):
                    continue
                yield [e1.a, e1.b], [pair[i], pair[j]]


def _dfs_cycles(
    g: ConflictGraph,
    h: AuxGraph,
    max_len: int,
    budget: int,
) -> Iterator[tuple[list[int], list[int]]]:
    """Enumerate simple cycles of length 3..max_len with pairwise-compatible supports.

    H-vertices on a cycle must carry distinct anchors, and the union of the
    inducing vertices and companion sets must stay independent; both are
    checked incrementally so pruned prefixes cannot extend to valid cycles.
    Each cycle is found from its vertex of least id, so it is enumerated
    once per direction. The walks start at `h.starts` in id order: a vertex
    with no edge would start no cycle and cost no node, so the candidates,
    their order and the node at which `budget` is passed are those of a
    search from every vertex id.
    """
    incident = h.incident
    nodes = 0

    def walk(start: int, current: int, vseq: list[int], eseq: list[int],
             anchors: set[int], support: set[int]) -> Iterator[tuple[list[int], list[int]]]:
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
                if len(eseq) >= 2 and _supports_compatible_seq(g, support, [e.inducer]):
                    yield vseq[:], eseq + [ei]
                continue
            if nxt < start or nxt in vseq:
                continue
            av = h.vertices[nxt]
            if av.anchor in anchors:
                continue
            new = [e.inducer] + [x for x in av.y]
            if not _supports_compatible_seq(g, support, new):
                continue
            if len(eseq) + 1 >= max_len:
                continue
            anchors.add(av.anchor)
            support.update(new)
            yield from walk(start, nxt, vseq + [nxt], eseq + [ei], anchors, support)
            anchors.remove(av.anchor)
            support.difference_update(new)

    try:
        for s in h.starts:
            av = h.vertices[s]
            yield from walk(s, s, [s], [], {av.anchor}, set(av.y))
    finally:
        # `walk` refers to itself, so without this the cycle would keep `h`
        # and its dicts alive until the next cyclic garbage collection
        del walk


def _supports_compatible_seq(g: ConflictGraph, support: set[int], new: Sequence[int]) -> bool:
    for i, x in enumerate(new):
        if x in support or not g.adj_sets[x].isdisjoint(support):
            return False
        for z in new[i + 1:]:
            if z == x or g.has_edge(x, z):
                return False
    return True


def _color_masks(h: AuxGraph, inst: PackingInstance, coloring: Sequence[int]) -> tuple[_Memo, _Memo]:
    """The color masks of the aux vertices (by id) and edges (by id) under a
    coloring of the universe, each computed on first use: a vertex has the
    colors of the sets in its companion set, an edge those of its inducer's
    set."""
    sets = inst.sets

    def set_mask(x: int) -> int:
        mask = 0
        for e in sets[x]:
            mask |= 1 << coloring[e]
        return mask

    set_masks = _Memo(set_mask)

    def vertex_mask(i: int) -> int:
        mask = 0
        for x in h.vertices[i].y:
            mask |= set_masks[x]
        return mask

    return _Memo(vertex_mask), _Memo(lambda ei: set_masks[h.edges[ei].inducer])


def _colorful_candidates(
    h: AuxGraph,
    vmask: Mapping[int, int],
    emask: Mapping[int, int],
    max_len: int,
    state_budget: int,
) -> Iterator[tuple[list[int], list[int]]]:
    """Sparse table of colorful-path states, yielding closed candidates.

    Path(s, t, C, i) is reachable iff a walk of i edges from s to t exists
    whose vertex and edge color sets are pairwise disjoint with union C;
    backlinks recover the walk. Each state of layer i >= 2 is checked for
    closing edges (s to t, colors fresh against C) as soon as it is built,
    and its candidates are yielded then, before the rest of the layer is
    built; states are built and checked in one fixed order, so the caller
    sees the candidates a whole-layer sweep would give, in the same order,
    and can stop at the first that validates. The caller reduces them to
    simple cycles.

    A state's end t never changes along its walk, so layer 2 reads only the
    layer-1 states of its own end: layer 1 is built one end at a time, in
    id order over `h.starts`, right before layer 2 extends it. A vertex
    with no edge would give no state, so the candidates and the state at
    which `state_budget` is passed are those of a DP over every vertex id.
    A vertex's masks and steps are computed when the DP first reaches it.

    `state_budget` caps the states built, layer 1 included: the state that
    would pass it raises `SearchIncompleteError`, after the candidates of
    the states built before it have been yielded.
    """
    incident, edges = h.incident, h.edges

    def alive_steps(v: int) -> list[tuple[int, int, int]]:
        # v's alive edges as steps (edge, other end, colors the step adds),
        # in edge order
        mv = vmask[v]
        out = []
        for ei in incident[v]:
            e = edges[ei]
            s = e.b if e.a == v else e.a
            me, ms = emask[ei], vmask[s]
            if not (me & mv or me & ms or mv & ms):
                out.append((ei, s, me | ms))
        return out

    steps = _Memo(alive_steps)
    # Per end t, built when a state ending at t is first extended at layer
    # >= 2: the alive edges to each other end s (a self-loop closes no
    # cycle), with their colors.
    closers: dict[int, dict[int, list[tuple[int, int]]]] = {}

    # states[(s, t, mask)] = (edge to next vertex, next vertex, previous mask);
    # layer 0, the states (t, t, vmask[t]), is never stored
    layer1: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    all_layers: list[Optional[dict]] = [None, layer1]
    states = 0

    def recover(s: int, t: int, mask: int, i: int) -> tuple[list[int], list[int]]:
        vseq, eseq = [s], []
        cur, cmask = s, mask
        for lvl in range(i, 0, -1):
            ei, nxt, pmask = all_layers[lvl][(cur, t, cmask)]
            eseq.append(ei)
            vseq.append(nxt)
            cur, cmask = nxt, pmask
        return vseq, eseq

    def layer1_by_end() -> Iterator[tuple[int, int, int]]:
        nonlocal states
        for t in h.starts:
            tmask = vmask[t]
            fresh = []
            for ei, s, add in steps[t]:  # alive, so add misses tmask
                key = (s, t, tmask | add)
                if key in layer1:
                    continue
                states += 1
                if states > state_budget:
                    raise SearchIncompleteError(f"colorful DP exceeded {state_budget} states")
                layer1[key] = (ei, t, tmask)
                fresh.append(key)
            yield from fresh

    for i in range(2, max_len):
        newlayer: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        all_layers.append(newlayer)  # before it fills: `recover` reads it
        for (v, t, cmask) in (layer1_by_end() if i == 2 else all_layers[i - 1]):
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


def _reduce_to_simple_cycle(
    vseq: list[int], eseq: list[int]
) -> tuple[list[int], list[int]]:
    """Cut a closed walk with distinct edges down to a simple cycle: the
    window from the first repeated vertex's first occurrence up to its
    first repeat, which holds no repeat, or the whole walk if none repeats."""
    seen = {}
    for q, v in enumerate(vseq):
        p = seen.setdefault(v, q)
        if p != q:
            return vseq[p:q], eseq[p:q]
    return vseq, eseq


def _colorful_cycles(
    h: AuxGraph,
    vmask: Mapping[int, int],
    emask: Mapping[int, int],
    max_len: int,
    state_budget: int,
) -> Iterator[tuple[list[int], list[int]]]:
    """Simple colorful cycles of length 3..max_len in H under the vertex and
    edge color masks, in DP order, as (vertex order, edge order).
    Parallel-edge 2-cycles are the caller's separate scan; candidates that
    collapse to one are skipped and the sweep continues, so completeness for
    lengths 3..max_len is unaffected."""
    for vseq, eseq in _colorful_candidates(h, vmask, emask, max_len, state_budget):
        cvseq, ceseq = _reduce_to_simple_cycle(vseq, eseq)
        if 3 <= len(ceseq) <= max_len:
            yield cvseq, ceseq


def _draw_coloring(rng: random.Random, t: int, n: int) -> list[int]:
    """`[rng.randrange(t) for _ in range(n)]`, with the draw inlined as the
    `getrandbits` rejection loop CPython 3.11 runs for it, so the stream and
    the generator's state afterwards are the same."""
    getrandbits = rng.getrandbits
    k = t.bit_length()
    coloring = []
    for _ in range(n):
        c = getrandbits(k)
        while c >= t:
            c = getrandbits(k)
        coloring.append(c)
    return coloring


def _first_valid(state: CircularState, a: Solution, h: AuxGraph,
                 candidates: Iterable[tuple[list[int], list[int]]]) -> Optional[Improvement]:
    """The first candidate cycle of `h` that assembles into an improvement
    `validate_circular` accepts, or None."""
    g = state.g
    for vorder, eorder in candidates:
        imp = _assemble(a, h, vorder, eorder)
        if validate_circular(g, a, imp, d=state.d):
            return imp
    return None


def run_color_coding(state: CircularState, a: Solution, h: AuxGraph) -> Optional[Improvement]:
    """Randomized circular search over the aux graph `h` of `a`: repeat
    (color the universe, run the cycle DP).

    Sound in every trial; finds an existing improvement with probability at
    least the injectivity bound per trial, amplified over repetitions.
    """
    if not h.edges:
        return None
    params, inst = state.params, state.inst
    for _ in range(params.repetitions):
        coloring = _draw_coloring(state.rng, params.t, inst.universe_size)
        vmask, emask = _color_masks(h, inst, coloring)
        imp = _first_valid(state, a, h, _colorful_cycles(h, vmask, emask, state.max_len, _MAX_DP_STATES))
        if imp is not None:
            return imp
    return None


def find_circular_improvement(state: CircularState, a: Solution) -> Optional[Improvement]:
    """Search for a circular improvement of w^2(A).

    Requires that no claw-shaped improvement exists (every vertex outside
    A then has an anchor) and that the state's anchors are those of `a`
    (`build_anchor_maps(g, a, state)` after its last swap). Parallel-edge
    2-cycles are scanned first; longer cycles go through the exhaustive DFS
    or the color-coding search depending on the state's mode. Every
    returned improvement is re-validated field by field.
    """
    h = build_aux_graph(state, a)
    imp = _first_valid(state, a, h, _two_cycle_candidates(state.g, h))
    if imp is not None:
        return imp
    if state.params.mode == "rand":
        return run_color_coding(state, a, h)
    return _first_valid(state, a, h, _dfs_cycles(state.g, h, state.max_len, _MAX_DFS_NODES))


def validate_circular(g: ConflictGraph, a: Solution, imp: Improvement, d: int) -> bool:
    """Re-validate a circular improvement of `a` field by field.

    `validate_improvement` checks x, removed = N(x, A) and the strict
    squared-weight gain; this adds the cycle structure over distinct
    solution vertices, the companion-set decomposition and size bounds, and
    the per-edge inequality. Each vertex's anchors are the first two
    entries of its list in `a.a_nbrs`, which is heaviest first.
    """
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
    # The induced edges must trace the recorded cycle.
    cyc = list(kind.cycle_vertices)
    if len(cyc) != len(u_list) or len(set(cyc)) != len(cyc):
        return False
    deg: dict[int, int] = {}
    for u in u_list:
        for v in a_nbrs[u][:2]:
            deg[v] = deg.get(v, 0) + 1
    if set(deg) != set(cyc) or any(c != 2 for c in deg.values()):
        return False
    for i, u in enumerate(u_list):
        if set(a_nbrs[u][:2]) != {cyc[i], cyc[(i + 1) % len(cyc)]}:
            return False
    # Companion decomposition: X = U | union of recorded Y over cycle vertices.
    y_map = kind.y_map()
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
        if not aux_edge_check(u, y_map[v1], y_map[v2], g, a_nbrs):
            return False
    return True
