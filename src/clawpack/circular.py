"""Cycle-backed local improvements of the squared weight function.

Pipeline: anchor maps over the current solution, a lazily restricted
auxiliary multigraph whose edges certify a per-edge squared-weight
inequality, then cycle detection. Cycles of length 2 (parallel edges) are
scanned directly; longer cycles are found either by an exhaustive DFS
(complete, deterministic) or by randomized color coding over the packing
universe with a colorful-cycle dynamic program. The aux graph is only its
vertices and edges: the DFS derives its incident lists from the edges, and
color coding the colors of a vertex or edge from the packing sets of its
companion set or inducer.

The anchor maps rank by the integer weights `ConflictGraph.w_int`, and the
aux-graph build compares sums of `w_int` and `w2_int` (their squares), which
order exactly as the rational sums do. `charge_to_anchor` and
`aux_edge_check` are the per-vertex and per-edge definitions those sums
decide; `validate_circular` re-checks every returned improvement with them.

Both builds go through a `CircularState`. logimp keeps one per run, so at
each claw fixed point only the anchor maps of the vertices next to the
swaps since the last one, the vertex blocks (one per anchor) and the edge
blocks (one per inducing vertex) whose inputs changed are recomputed, and
the aux graph is reassembled from the blocks in the from-scratch order.
Called without a state, `build_anchor_maps` and `build_aux_graph` use a
fresh one, which builds everything. The colorful DP builds its per-vertex
step tables once per coloring (rand mode draws about one coloring per
call, so there is nothing to reuse) and yields each candidate as soon as
the state that closes it is built, so rand mode stops at the first
candidate that validates instead of building the rest of its layer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .instances import (
    BudgetExceededError,
    Circular,
    ConflictGraph,
    ContractError,
    Improvement,
    InputError,
    PackingInstance,
    Solution,
    neighborhood,
    validate_improvement,
)

# Work caps of the circular search: aux vertices and edge checks per aux
# graph, colorful-DP states per coloring, and DFS nodes per call.
_MAX_AUX_VERTICES = 200_000
_MAX_AUX_EDGE_CHECKS = 2_000_000
_MAX_DP_STATES = 2_000_000
_MAX_DFS_NODES = 2_000_000


class SearchIncompleteError(BudgetExceededError):
    """The auxiliary-graph or cycle search hit a cap; absence not certified."""


@dataclass
class AnchorMaps:
    """Per outside vertex: its heaviest solution neighbor, and the second one.

    `heaviest` is total over V minus A (requires A maximal); `second` is
    defined where the vertex has at least two solution neighbors. Ties break
    to the lowest id. `a_neighbors` caches N(u, A) for reuse. Key order is
    not part of the maps: a `CircularState` appends the vertices that left A.
    """

    heaviest: dict[int, int]
    second: dict[int, int]
    a_neighbors: dict[int, tuple[int, ...]]


def build_anchor_maps(g: ConflictGraph, a: Solution, state: Optional["CircularState"] = None) -> AnchorMaps:
    """Anchor maps of every vertex outside `a`, ranked by `g.w_int`.

    `w_int` is the weights times one positive integer, so it ranks solution
    neighbors exactly as the rational weights do. With the run's
    `CircularState`, only the vertices whose solution neighbors changed
    since its last call are recomputed, and the state's own maps are
    returned; without one, a fresh state builds them all.
    """
    if state is None:
        state = CircularState(g)
    return state.update_maps(a)


def charge_to_anchor(g: ConflictGraph, maps: AnchorMaps, u: int) -> Fraction:
    """w(u) - w(N(u,A))/2, the charge u would send to its heaviest anchor."""
    return g.weights[u] - g.weight_of(maps.a_neighbors[u]) / 2


def aux_edge_check(
    u: int,
    y1: Iterable[int],
    y2: Iterable[int],
    g: ConflictGraph,
    a: Solution,
    maps: AnchorMaps,
) -> bool:
    """Exact per-edge inequality certifying that a cycle through this edge improves w^2.

    y1 must be anchored at the heaviest neighbor of u, y2 at the second one;
    disjointness and independence of {u} | y1 | y2 are the caller's promise.
    Both sides are doubled and compared as sums of the integers `g.w2_int`,
    which order exactly as the squared rational weights do.
    """
    v1 = maps.heaviest[u]
    v2 = maps.second[u]
    w2 = g.w2_int
    lhs = 2 * w2[u] + sum(w2[x] for x in y1) + sum(w2[x] for x in y2)
    rhs = w2[v1] + w2[v2]
    rhs += 2 * sum(w2[x] for x in maps.a_neighbors[u] if x != v1 and x != v2)
    for x in y1:
        rhs += sum(w2[z] for z in maps.a_neighbors[x] if z != v1)
    for x in y2:
        rhs += sum(w2[z] for z in maps.a_neighbors[x] if z != v2)
    return lhs > rhs


def trial_success_bound(t: int, m: int) -> Fraction:
    """Lower bound on one random coloring being injective on m fixed elements."""
    if m > t:
        return Fraction(0)
    p = Fraction(1)
    for i in range(m):
        p *= Fraction(t - i, t)
    return p


def repetitions_for(t: int, m: int, failure_prob: Fraction = Fraction(1, 1000)) -> int:
    """Repetitions so that all of them missing has probability <= failure_prob."""
    p = trial_success_bound(t, m)
    if p <= 0:
        raise InputError(f"support size {m} exceeds color count {t}")
    if p == 1:
        return 1
    reps = math.ceil(math.log(1 / float(failure_prob)) / -math.log1p(-float(p)))
    return max(1, reps)


def _claw_bound(g: ConflictGraph, d: Optional[int]) -> int:
    """The claw bound a circular search works with: `d`, else the graph's,
    else n + 1, which no claw in the graph reaches."""
    if d is not None:
        return d
    return g.d if g.d is not None else g.n + 1


def max_cycle_len_for(n: int) -> int:
    """Largest L with 2**L <= n**4, the cycle-length bound at graph size n."""
    if n <= 1:
        return 2
    L = 2
    while 2 ** (L + 1) <= n ** 4:
        L += 1
    return L


@dataclass
class ColorCodingParams:
    """Knobs for the circular search.

    mode "exhaustive" runs the complete DFS (the only option for inputs
    without set structure); mode "rand" draws `repetitions` uniform
    colorings of the universe into `t` colors and runs the colorful-cycle
    dynamic program per coloring.
    """

    t: int
    repetitions: int
    max_cycle_len: int
    mode: str = "exhaustive"
    y_cap: int = 3

    def __post_init__(self):
        if self.t < 1 or self.max_cycle_len < 2 or self.repetitions < 1 or self.y_cap < 0:
            raise InputError("need t >= 1, max_cycle_len >= 2, repetitions >= 1, y_cap >= 0")
        if self.mode not in ("rand", "exhaustive"):
            raise InputError(f"unknown circular-search mode {self.mode!r}")

    @staticmethod
    def defaults(
        g: ConflictGraph,
        inst: Optional[PackingInstance] = None,
        mode: str = "exhaustive",
    ) -> "ColorCodingParams":
        n = max(2, g.n)
        L = max_cycle_len_for(g.n)
        if inst is None:
            return ColorCodingParams(t=1, repetitions=1, max_cycle_len=L, mode="exhaustive")
        k = inst.k
        in_use = len(set().union(*inst.sets)) if inst.sets else 1
        t = 4 * (k + 1) * k * math.ceil(math.log2(n))
        t = max(1, min(t, in_use))
        # Support of a short planted cycle: about six k-sets.
        m = min(t, 6 * k)
        reps = min(10_000, repetitions_for(t, m))
        return ColorCodingParams(t=t, repetitions=reps, max_cycle_len=L, mode=mode)


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
    """Aux vertices and edges; an edge's ends are positions in `vertices`."""

    vertices: list[AuxVertex]
    edges: list[AuxEdge]


def _independent_subsets(g: ConflictGraph, cands: Sequence[int], cap: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]

    def extend(start: int, chosen: list[int]):
        for i in range(start, len(cands)):
            v = cands[i]
            if any(g.has_edge(v, u) for u in chosen):
                continue
            chosen.append(v)
            out.append(tuple(chosen))
            if len(chosen) < cap:
                extend(i + 1, chosen)
            chosen.pop()

    if cap >= 1:
        extend(0, [])
    return out


class _VertexBlock(NamedTuple):
    """The aux vertices at one anchor, in their order: one per independent
    companion set of at most y_cap candidates, with its net."""

    vertices: Sequence[AuxVertex]
    ys: Sequence[tuple[int, ...]]
    nets: Sequence[int]



class _EdgeBlock(NamedTuple):
    """The aux edges one inducer u makes, as (ia, ib) positions in the
    blocks at its heaviest and second anchors, and the checks they took."""

    pairs: list[tuple[int, int]]
    checks: int


class CircularState:
    """What the circular search keeps between calls in one run, for one
    evolving solution A over one graph.

    The anchor maps are kept per vertex: a vertex's entries change only when
    it or one of its neighbors changed membership since the last call, so
    only `changed | N(changed)` is recomputed, `changed` being the symmetric
    difference of A and the members seen at that call. The aux graph is
    kept as blocks: a vertex block per anchor v (its companion sets and
    their nets) and an edge block per inducer u (its edges and its
    edge-check count). A vertex block is dropped when a candidate (an
    outside vertex with v as heaviest anchor and positive charge) joins or
    leaves v or has its solution neighbors changed; an edge block is
    recomputed when u's anchors or solution neighbors change, or when the
    block at either anchor was dropped. Each call reassembles
    the `AuxGraph` from the blocks in the from-scratch order (sorted
    anchors, then sorted inducers), so vertex and edge ids and the
    edge-check count are those of a fresh build.

    The maps the state returns are its own and change at its next call.
    """

    def __init__(self, g: ConflictGraph, maps: Optional[AnchorMaps] = None):
        self.g = g
        self.maps = maps if maps is not None else AnchorMaps({}, {}, {})
        self._members: Optional[set[int]] = None  # None: rebuild all maps next
        self._remapped: set[int] = set(self.maps.heaviest)
        self._anchor: dict[int, int] = {}  # companion-set candidate -> its anchor
        self._vblocks: dict[int, _VertexBlock] = {}
        self._eblocks: dict[int, _EdgeBlock] = {}  # only blocks with checks
        self._dirty_u: set[int] = set()
        self.checks = 0  # edge checks the blocks hold: the last aux graph's count
        self._y_cap: Optional[int] = None  # the y_cap the blocks were built for

    def update_maps(self, a: Solution) -> AnchorMaps:
        """The anchor maps of `a`, recomputed where its membership changed."""
        g = self.g
        members = a.members
        seen = self._members
        self._members = None  # an error below leaves a full rebuild for next time
        if seen is None:
            self.maps = AnchorMaps({}, {}, {})
            touched: Iterable[int] = range(g.n)
        else:
            changed = members ^ seen
            touched = set(changed)
            for v in changed:
                touched.update(g.adj[v])
        self._remapped.update(touched)
        heaviest, second, a_nbrs = self.maps.heaviest, self.maps.second, self.maps.a_neighbors
        w = g.w_int
        for u in touched:
            if u in members:
                if u in a_nbrs:
                    del heaviest[u], a_nbrs[u]
                    second.pop(u, None)
                continue
            nu = tuple(v for v in g.adj[u] if v in members)
            if not nu:
                raise ContractError(f"vertex {u} has no solution neighbor; solution not maximal")
            a_nbrs[u] = nu
            ranked = sorted(nu, key=lambda v: (-w[v], v))
            heaviest[u] = ranked[0]
            if len(ranked) > 1:
                second[u] = ranked[1]
            else:
                second.pop(u, None)
        self._members = set(members)
        return self.maps

    def _reanchor(self, members: set[int]) -> None:
        """Move every remapped vertex to its new anchor, drop the vertex
        blocks at its old and new anchor, and mark its edge block dirty."""
        heaviest, a_nbrs = self.maps.heaviest, self.maps.a_neighbors
        w = self.g.w_int
        anchor, vblocks = self._anchor, self._vblocks
        remapped = self._remapped
        for u in remapped:
            old = anchor.pop(u, None)
            if old in vblocks:
                self._drop_block(old)
            if u in members or u not in heaviest:
                continue
            vblocks.pop(u, None)  # u left A
            if 2 * w[u] > sum(w[x] for x in a_nbrs[u]):
                v1 = anchor[u] = heaviest[u]
                if v1 in vblocks:
                    self._drop_block(v1)
        self._dirty_u |= remapped
        remapped.clear()

    def _drop_block(self, v: int) -> None:
        """Drop the vertex block at anchor v and mark the edge blocks that
        end at v dirty: their inducers are neighbors of v."""
        del self._vblocks[v]
        heaviest, second = self.maps.heaviest, self.maps.second
        self._dirty_u.update(
            u for u in self.g.adj[v] if u in second and (heaviest[u] == v or second[u] == v)
        )

    def _vertex_block(self, v: int, y_cap: int) -> _VertexBlock:
        g = self.g
        anchor = self._anchor
        cands = [u for u in g.adj[v] if anchor.get(u) == v]  # sorted, as g.adj[v] is
        if not cands:
            return _VertexBlock((AuxVertex(v, ()),), ((),), (0,))  # only the empty set
        w2 = g.w2_int
        a_nbrs = self.maps.a_neighbors
        spill = {x: sum(w2[z] for z in a_nbrs[x] if z != v) - w2[x] for x in cands}
        ys = _independent_subsets(g, cands, y_cap)
        ys.sort(key=lambda y: (-len(y), y))
        return _VertexBlock([AuxVertex(v, y) for y in ys], ys, [sum(spill[x] for x in y) for y in ys])

    def _update_edge_blocks(self) -> None:
        """Recompute the edge block of every dirty inducer. Raises
        `SearchIncompleteError` once the checks of all blocks pass
        `_MAX_AUX_EDGE_CHECKS`; the inducers not yet recomputed stay dirty."""
        cap = _MAX_AUX_EDGE_CHECKS
        g = self.g
        w2 = g.w2_int
        adj = g.adj_sets
        heaviest, second, a_nbrs = self.maps.heaviest, self.maps.second, self.maps.a_neighbors
        vblocks, eblocks, dirty = self._vblocks, self._eblocks, self._dirty_u
        for u in dirty.intersection(eblocks):
            self.checks -= eblocks.pop(u).checks
        dirty.intersection_update(second)  # only inducers have edge blocks
        total = self.checks
        while dirty:
            u = dirty.pop()
            v1, v2 = heaviest[u], second[u]
            b1, b2 = vblocks[v1], vblocks[v2]
            nbrs = adj[u]
            ys2, nets2 = b2.ys, b2.nets
            # u is anchored at v1, so no companion set at v2 contains it.
            side_b = [ib for ib, y in enumerate(ys2) if nbrs.isdisjoint(y)]
            if not side_b:
                continue
            base = 2 * w2[u] - w2[v1] - w2[v2]
            base -= 2 * sum(w2[x] for x in a_nbrs[u] if x != v1 and x != v2)
            pairs = []
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
                        pairs.append((ia, ib))
            if checks:
                eblocks[u] = _EdgeBlock(pairs, checks)
                total += checks
        self.checks = total

    def aux_graph(self, a: Solution, params: ColorCodingParams, d: Optional[int] = None) -> AuxGraph:
        """The aux graph over `a` and the state's maps; see `build_aux_graph`."""
        y_cap = min(params.y_cap, _claw_bound(self.g, d) - 1)
        if self._y_cap != y_cap:
            self._y_cap = y_cap
            self._vblocks.clear()
            self._dirty_u.update(self.maps.second)
        members = a.members
        self._reanchor(members)

        vertices: list[AuxVertex] = []
        offset: dict[int, int] = {}
        vblocks = self._vblocks
        for v in sorted(members):
            block = vblocks.get(v)
            if block is None:
                block = vblocks[v] = self._vertex_block(v, y_cap)
            offset[v] = len(vertices)
            vertices.extend(block.vertices)
        # A cap is crossed when a count passes it.
        if len(vertices) > _MAX_AUX_VERTICES:
            raise SearchIncompleteError(f"aux graph exceeded {_MAX_AUX_VERTICES} vertices")
        self._update_edge_blocks()
        if self.checks > _MAX_AUX_EDGE_CHECKS:
            raise SearchIncompleteError(f"aux graph exceeded {_MAX_AUX_EDGE_CHECKS} edge checks")

        edges: list[AuxEdge] = []
        heaviest, second, eblocks = self.maps.heaviest, self.maps.second, self._eblocks
        for u in sorted(eblocks):
            o1, o2 = offset[heaviest[u]], offset[second[u]]
            edges.extend([AuxEdge(o1 + ia, o2 + ib, u) for ia, ib in eblocks[u].pairs])
        return AuxGraph(vertices, edges)


def build_aux_graph(
    g: ConflictGraph,
    a: Solution,
    maps: AnchorMaps,
    params: ColorCodingParams,
    d: Optional[int] = None,
    state: Optional[CircularState] = None,
) -> AuxGraph:
    """Materialize the restricted auxiliary multigraph.

    Companion-set candidates at each anchor are the outside vertices mapped
    there that send strictly positive charge; the full vertex set over all
    independent companion sets is infeasible, and the restriction preserves
    the improvements the fixed-point analysis constructs.

    Only integers are compared. A vertex u sends positive charge iff
    2 w_int(u) > w_int(N(u,A)). The doubled `aux_edge_check` inequality of
    an edge induced by u between companion sets y1 (at v1) and y2 (at v2)
    is split into a per-u base and a per-aux-vertex net, both `w2_int` sums:
    base(u) = 2 w2(u) - w2(v1) - w2(v2) - 2 w2(N(u,A) - {v1, v2}) and
    net(y at v) = sum over x in y of w2(N(x,A) - {v}) - w2(x). The net does
    not depend on u because every x in y has v as its heaviest anchor. The
    edge exists iff base(u) > net(y1) + net(y2).

    With the run's `CircularState`, `maps` must be the maps it returned, and
    only the blocks the last swaps touched are rebuilt; without one, a fresh
    state builds every block from `maps`.
    """
    if state is None:
        state = CircularState(g, maps)
    elif maps is not state.maps:
        raise ContractError("anchor maps were not built with this circular state")
    return state.aux_graph(a, params, d)


def _assemble(
    g: ConflictGraph,
    a: Solution,
    h: AuxGraph,
    vertex_order: Sequence[int],
    edge_order: Sequence[int],
) -> Improvement:
    u_order = tuple(h.edges[e].inducer for e in edge_order)
    anchors = tuple(h.vertices[i].anchor for i in vertex_order)
    ys = tuple((h.vertices[i].anchor, h.vertices[i].y) for i in vertex_order)
    x = set(u_order)
    for _, y in ys:
        x.update(y)
    removed = neighborhood(x, a.members, g)
    return Improvement(
        frozenset(x),
        frozenset(removed),
        Circular(u=u_order, cycle_vertices=anchors, y=ys),
    )


def _two_cycle_candidates(g: ConflictGraph, h: AuxGraph) -> Iterator[tuple[list[int], list[int]]]:
    groups: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(h.edges):
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
    """
    incident: list[list[int]] = [[] for _ in h.vertices]
    for ei, e in enumerate(h.edges):
        incident[e.a].append(ei)
        incident[e.b].append(ei)
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

    for s in range(len(h.vertices)):
        av = h.vertices[s]
        yield from walk(s, s, [s], [], {av.anchor}, set(av.y))


def _supports_compatible_seq(g: ConflictGraph, support: set[int], new: Sequence[int]) -> bool:
    for i, x in enumerate(new):
        if x in support or (g.adj_sets[x] & support):
            return False
        for z in new[i + 1:]:
            if z == x or g.has_edge(x, z):
                return False
    return True


def _color_masks(h: AuxGraph, inst: PackingInstance, coloring: Sequence[int]) -> tuple[list[int], list[int]]:
    """The color masks of the aux vertices and edges under a coloring of the
    universe: a vertex has the colors of the sets in its companion set, an
    edge those of its inducer's set."""
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


def _colorful_candidates(
    h: AuxGraph,
    vmask: Sequence[int],
    emask: Sequence[int],
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

    `state_budget` caps the states built: the state that would pass it
    raises `SearchIncompleteError`, after the candidates of the states
    built before it have been yielded.
    """
    # Per vertex, its alive edges as steps (edge, other end, colors the step
    # adds), in edge order.
    steps: list[list[tuple[int, int, int]]] = [[] for _ in h.vertices]
    for ei, e in enumerate(h.edges):
        a, b, me = e.a, e.b, emask[ei]
        ma, mb = vmask[a], vmask[b]
        if me & ma or me & mb or ma & mb:
            continue
        steps[a].append((ei, b, me | mb))
        steps[b].append((ei, a, me | ma))
    # Per end t, built when a state ending at t is first extended at layer
    # >= 2: the alive edges to each other end s (a self-loop closes no
    # cycle), with their colors.
    closers: dict[int, dict[int, list[tuple[int, int]]]] = {}
    no_closers: dict[int, list[tuple[int, int]]] = {}

    # states[(s, t, mask)] = (edge to next vertex, next vertex, previous mask)
    layer: dict[tuple[int, int, int], tuple[Optional[int], Optional[int], int]] = {}
    for v in range(len(h.vertices)):
        layer[(v, v, vmask[v])] = (None, None, 0)
    states = 0
    all_layers = [layer]

    def recover(s: int, t: int, mask: int, i: int) -> tuple[list[int], list[int]]:
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
        all_layers.append(newlayer)  # before it fills: `recover` reads it
        for (v, t, cmask) in all_layers[i - 1]:
            if i < 2:
                to_t = no_closers  # a 2-cycle: the caller's separate scan
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


def _reduce_to_simple_cycle(
    vseq: list[int], eseq: list[int]
) -> tuple[list[int], list[int]]:
    """Cut a closed walk with distinct edges down to a simple cycle."""
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
        vseq = vseq[p:q]
        eseq = eseq[p:q]


def _colorful_cycles(
    h: AuxGraph,
    vmask: Sequence[int],
    emask: Sequence[int],
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


def run_color_coding(
    g: ConflictGraph,
    a: Solution,
    maps: AnchorMaps,
    params: ColorCodingParams,
    inst: PackingInstance,
    rng: random.Random,
    h: Optional[AuxGraph] = None,
    d: Optional[int] = None,
) -> Optional[Improvement]:
    """Randomized circular search: repeat (color universe, run the cycle DP).

    Sound in every trial; finds an existing improvement with probability at
    least the injectivity bound per trial, amplified over repetitions. `d`
    is the claw bound for the aux graph and for validation, as in
    `find_circular_improvement`.
    """
    if inst is None:
        raise InputError("randomized circular search needs the packing instance")
    if h is None:
        h = build_aux_graph(g, a, maps, params, d=d)
    if not h.edges:
        return None
    max_len = min(params.max_cycle_len, max_cycle_len_for(g.n))
    for _ in range(params.repetitions):
        coloring = [rng.randrange(params.t) for _ in range(inst.universe_size)]
        vmask, emask = _color_masks(h, inst, coloring)
        for cvseq, ceseq in _colorful_cycles(h, vmask, emask, max_len, _MAX_DP_STATES):
            imp = _assemble(g, a, h, cvseq, ceseq)
            if validate_circular(g, a, maps, imp, d=d):
                return imp
    return None


def find_circular_improvement(
    g: ConflictGraph,
    a: Solution,
    maps: AnchorMaps,
    params: ColorCodingParams,
    inst: Optional[PackingInstance] = None,
    rng: Optional[random.Random] = None,
    d: Optional[int] = None,
    state: Optional[CircularState] = None,
) -> Optional[Improvement]:
    """Search for a circular improvement of w^2(A).

    Requires that no claw-shaped improvement exists (the anchor maps are
    then total). Parallel-edge 2-cycles are scanned first; longer cycles go
    through the exhaustive DFS or the color-coding search depending on
    params.mode. Every returned improvement is re-validated field by field.
    `state`, when given, is the run's `CircularState` that built `maps`.
    """
    h = build_aux_graph(g, a, maps, params, d=d, state=state)
    max_len = min(params.max_cycle_len, max_cycle_len_for(g.n))
    for vorder, eorder in _two_cycle_candidates(g, h):
        imp = _assemble(g, a, h, vorder, eorder)
        if validate_circular(g, a, maps, imp, d=d):
            return imp
    if params.mode == "rand":
        return run_color_coding(g, a, maps, params, inst, rng or random.Random(0), h=h, d=d)
    for vorder, eorder in _dfs_cycles(g, h, max_len, _MAX_DFS_NODES):
        imp = _assemble(g, a, h, vorder, eorder)
        if validate_circular(g, a, maps, imp, d=d):
            return imp
    return None


def validate_circular(
    g: ConflictGraph,
    a: Solution,
    maps: AnchorMaps,
    imp: Improvement,
    d: Optional[int] = None,
) -> bool:
    """Re-validate a circular improvement field by field.

    `validate_improvement` checks x, removed = N(x, A) and the strict
    squared-weight gain; this adds the cycle structure over distinct
    solution vertices, the companion-set decomposition and size bounds, and
    the per-edge inequality.
    """
    kind = imp.kind
    if not isinstance(kind, Circular) or not validate_improvement(g, a, imp):
        return False
    x = imp.x
    u_list = list(kind.u)
    if len(u_list) < 2 or len(set(u_list)) != len(u_list):
        return False
    if 2 ** len(u_list) > max(2, g.n) ** 4:
        return False
    if not set(u_list) <= x:
        return False
    for u in u_list:
        if u not in maps.second:
            return False
    # The induced edges must trace the recorded cycle.
    cyc = list(kind.cycle_vertices)
    if len(cyc) != len(u_list) or len(set(cyc)) != len(cyc):
        return False
    deg: dict[int, int] = {}
    for u in u_list:
        for v in (maps.heaviest[u], maps.second[u]):
            deg[v] = deg.get(v, 0) + 1
    if set(deg) != set(cyc) or any(c != 2 for c in deg.values()):
        return False
    for i, u in enumerate(u_list):
        ends = {cyc[i], cyc[(i + 1) % len(cyc)]}
        if {maps.heaviest[u], maps.second[u]} != ends:
            return False
    # Companion decomposition: X = U | union of recorded Y over cycle vertices.
    y_map = kind.y_map()
    if set(y_map) != set(cyc):
        return False
    d_eff = _claw_bound(g, d)
    rest = x - set(u_list)
    for v, ys in y_map.items():
        if len(ys) > d_eff - 1:
            return False
        if any(x_ not in rest or maps.heaviest[x_] != v for x_ in ys):
            return False
    y_union = set().union(*y_map.values()) if y_map else set()
    if y_union != rest:
        return False
    for u in u_list:
        if not aux_edge_check(u, y_map[maps.heaviest[u]], y_map[maps.second[u]], g, a, maps):
            return False
    return True
