"""Cycle-backed local improvements of the squared weight function.

Pipeline: anchors over the current solution, a lazily restricted
auxiliary multigraph whose edges certify a per-edge squared-weight
inequality, then cycle detection. Cycles of length 2 (parallel edges) are
scanned directly; longer cycles are found either by an exhaustive DFS
(complete, deterministic) or by randomized color coding over the packing
universe with a colorful-cycle dynamic program. The aux graph is its
blocks and nothing else: an edge block per admitted inducer holds the
ends of its edges, and a vertex block at each of its two anchors holds
that anchor's companion sets. An inducer is admitted unless the O(1)
bound of `build_aux_graph` shows it has no edge, so no anchor that only
skipped inducers reach has a vertex (see `CircularState`). An
id names its block and its place there, so vertex i is read as anchor
i >> _ID_SHIFT and a companion set of that anchor's block, and edge e as
inducer e >> _ID_SHIFT and a pair of ends in that inducer's block; the
searches read the blocks directly. Two lookups sit over them: the edges
of each vertex that has one, and the edges that can have a parallel twin.
Color coding derives the colors of a vertex or edge from the packing sets
of its companion set or inducer.

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
per anchor an admitted inducer reaches) and the edge blocks (one per
admitted inducer) whose inputs changed are recomputed. The state holds
one aux graph, its blocks and the sorted edge ids of each vertex with an
edge, and changes it only where a block is built or dropped; ids sort in
the from-scratch order, so a call returns that graph as it stands, and
the 2-cycle scan reads only the anchor pairs that two or more inducers
share. The vertices with an edge are also kept sorted, and the DFS and
the DP start only there: the copies of a solution that earlier swaps
improved have no vertex and cost a call nothing, and a call reads no
whole set of the state. The state is built once per run from the run's
solution, which brings its graph, the search parameters, the claw bound,
the packing instance and the random generator, and fixes what they fix:
the companion-set cap, the cycle length bound and whether color coding
can run. Every entry point reads the solution from the state and the
graph from the solution.

The DP works out a vertex's color masks, step table and first layer only
when it first reaches that vertex, and yields each candidate as soon as
the state that closes it is built, so a search that stops at the first
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
# graph, colorful-DP states per coloring, and DFS nodes per call. The aux
# vertices are those of the built blocks, at the anchors of the admitted
# inducers, and the edge checks those of the admitted inducers (see
# `build_aux_graph`).
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
# the from-scratch vertex and edge orders, and vertex i is the companion set
# `vblocks[i >> _ID_SHIFT].ys[i & _ID_MASK]`, edge e the ends
# `eblocks[e >> _ID_SHIFT].ends[e & _ID_MASK]`. No block comes near 2**32
# vertices or edges: the caps above are far lower.
_ID_SHIFT = 32
_ID_MASK = (1 << _ID_SHIFT) - 1


class SearchIncompleteError(BudgetExceededError):
    """The auxiliary-graph or cycle search hit a cap; absence not certified."""


def build_anchor_maps(a: Solution, state: Optional["CircularState"] = None) -> Sequence[Sequence[int]]:
    """`a`'s table of N(u, A), once every vertex outside `a` is checked to
    have a solution neighbor: u's anchor is `a.a_nbrs[u][0]` and its
    second, where it has one, `a.a_nbrs[u][1]`. A vertex without one is a
    `ContractError` (the solution is not maximal).

    With the run's `CircularState`, which must hold `a` itself (else
    `ContractError`), only the vertices next to the swaps since its last
    successful call are checked, and then re-anchored in the state;
    without one, every vertex is checked. A caller that passes a state must
    hand it (`CircularState.update`) every swap applied to `a` since that
    call.
    """
    if state is not None and state.a is not a:
        raise ContractError("the circular state holds another solution")
    members, a_nbrs = a.members, a.a_nbrs
    touched = range(a.g.n) if state is None else state._near_moved()
    for u in touched:
        if not a_nbrs[u] and u not in members:
            raise ContractError(f"vertex {u} has no solution neighbor; solution not maximal")
    if state is not None:
        state._reanchor(touched)
    return a_nbrs


def aux_edge_check(a: Solution, u: int, y1: Iterable[int], y2: Iterable[int]) -> bool:
    """Exact per-edge inequality certifying that a cycle through this edge improves w^2.

    N(u, A) is read from `a`'s table, heaviest first (`Solution.a_nbrs`),
    and u must have two solution neighbors. y1 must be anchored at the
    heaviest, v1 = a_nbrs[u][0], and y2 at the second, v2 = a_nbrs[u][1];
    disjointness and independence of {u} | y1 | y2 are the caller's
    promise. Both sides are doubled and compared as sums of the integers
    `w2_int` of `a`'s graph, which order exactly as the squared rational
    weights do.
    """
    a_nbrs = a.a_nbrs
    v1, v2, *rest = a_nbrs[u]
    w2 = a.g.w2_int
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


class _VertexBlock(NamedTuple):
    """The ids of the aux vertices at one anchor, in their order: one per
    independent companion set of at most y_cap candidates, with its net."""

    ids: range
    ys: Sequence[tuple[int, ...]]
    nets: Sequence[int]


class _EdgeBlock(NamedTuple):
    """The ids of the aux edges one admitted inducer makes, their ends
    (vertex ids: the one in the block at its heaviest anchor, then the one
    in the block at its second), the checks they took, and its two anchors,
    the lower first."""

    ids: range
    ends: Sequence[tuple[int, int]]
    checks: int
    anchors: tuple[int, int]


@dataclass(frozen=True)
class AuxBlocks:
    """The vertices or the edges of an aux graph: their blocks, by anchor or
    by inducer, and how many there are. Sized, and iterates over the ids in
    order."""

    blocks: Mapping[int, _VertexBlock] | Mapping[int, _EdgeBlock]
    count: int

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        return (i for key in sorted(self.blocks) for i in self.blocks[key].ids)


@dataclass
class AuxGraph:
    """Aux vertices and edges as blocks; an edge's ends are vertex ids.

    `edges.blocks` holds a block for each inducer the bound of
    `build_aux_graph` admits, possibly without edges, and `vertices.blocks`
    a block at each of their anchors and at no other vertex. Ids sort in
    the from-scratch order: vertices by anchor, then place in the anchor's
    block, and edges by inducer, then place in its block (see
    `_ID_SHIFT`). `incident` maps the id of every vertex with an edge, and
    no other, to the ids of its edges, sorted; `parallel` lists, sorted,
    every edge that can share both ends with another; and `starts` lists,
    sorted, the keys of `incident`, the only vertices a cycle search starts
    from. The graph a `CircularState` returns holds the state's own dicts
    and lists, valid until its next call.
    """

    vertices: AuxBlocks
    edges: AuxBlocks
    incident: Mapping[int, list[int]]
    parallel: Sequence[int]
    starts: Sequence[int]


class _Memo(dict):
    """A dict that fills a missing key with `fn(key)` on first use."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class CircularState:
    """What the circular search keeps between calls in one run, for its
    evolving solution `a` (A), over A's graph.

    A vertex's anchors, the first two entries of its N(u, A) list, change
    only when it or one of its neighbors changed membership since the last
    call, so only `moved | N(moved)` is checked and re-anchored, `moved`
    being x | removed over every swap handed to `update` since that call
    (every vertex before the first call; a call that raises keeps it for
    the next).

    The aux graph is its blocks: an edge block per admitted inducer u (its
    edges' ends, its edge-check count and its two anchors), and a vertex
    block (its companion sets and their nets) at each anchor of an
    admitted inducer and nowhere else. An inducer is admitted by the bound
    of `build_aux_graph` (proved in `_low_at`); one that fails it has no
    block and takes no check, and an anchor that no admitted inducer
    reaches keeps only low(v), computed when a dirty inducer first reads it.

    low(v) is dropped when a candidate (an outside vertex with v as
    heaviest anchor and positive charge) joins or leaves v or has its
    solution neighbors changed, or when v leaves A; the inducers at v are
    then dirty. An edge block is recomputed when its inducer is dirty: when
    its anchors or solution neighbors change, or when either anchor was
    dropped.

    Each block has one lifecycle. A vertex block is built by the first
    admitted inducer that holds it and leaves with the last (`_release`);
    a vertex enters the incident lists and the starts with its first edge
    and leaves with its last (`_drop_edge_blocks`). When low(v) is dropped,
    every holder of the block at v is dirty: those whose anchors still
    include v are marked then, and the others had N(u, A) change. The
    dirty edge blocks are dropped before any vertex block is held, so a
    stale block leaves before it could be reused. A new edge block enters
    the graph only once it is complete, so a cap crossed part-way leaves no
    trace of it: its inducer and those not yet built stay dirty, and a
    vertex block built for it alone leaves with it.

    A vertex's id comes from its anchor and its position in the block (see
    `_ID_SHIFT`), and an edge's from its inducer and its position in the
    block, so the ids of a block stay fixed while it lives and sort in the
    from-scratch order. Beside the blocks and their vertex and edge counts,
    the state keeps the edge ids, sorted, of each vertex with an edge, and
    the sorted ids of those vertices, where the searches start. Each call
    thus builds no vertex or edge of a block that did not change, and its
    blocks, their ids, the vertex count and the edge-check count are those
    of a fresh build. For the 2-cycle scan the state keeps, per unordered
    anchor pair, the inducers whose blocks have edges between them, and
    the pairs that two or more inducers share: only those can carry
    parallel edges.

    No call walks a whole set of the state: the dirty inducers are the only
    ones looked up among the edge blocks and the N(u, A) table.

    The aux graph the state returns holds its own dicts and lists, which
    change at its next call. A set of the state that empties is cleared,
    so it drops the table it grew to: an emptied set keeps it, and every
    walk over the set walks that table.

    The state is built from what the run fixes: the run's solution, the
    search parameters, the claw bound `d`, the packing instance (None for a
    bare graph) and the random generator color coding draws from. It
    derives its two bounds: companion sets hold at most `y_cap =
    min(_MAX_COMPANION, d - 1)` candidates, and cycles at most `max_len =
    max_cycle_len_for(n)` edges, the bound `validate_circular` checks. It
    rejects rand mode without a packing instance.
    """

    def __init__(
        self,
        a: Solution,
        params: ColorCodingParams,
        d: int,
        inst: Optional[PackingInstance],
        rng: random.Random,
    ):
        if params.mode == "rand" and inst is None:
            raise InputError("randomized circular search needs the packing instance")
        self.a = a
        self.params = params
        self.d = d
        self.inst = inst
        self.rng = rng
        self.y_cap = min(_MAX_COMPANION, d - 1)
        self.max_len = max_cycle_len_for(a.g.n)
        self._moved = set(range(a.g.n))  # re-anchored at the next call
        self._anchor: dict[int, int] = {}  # companion-set candidate -> its anchor
        self._low: dict[int, int] = {}  # anchor -> low(v), once an inducer read it
        self._users: dict[int, int] = {}  # anchor -> admitted inducers there
        self._vblocks: dict[int, _VertexBlock] = {}  # at the anchors in _users
        self._eblocks: dict[int, _EdgeBlock] = {}  # one per admitted inducer
        self._n_vertices = self._n_edges = 0  # in the blocks
        self._incident: dict[int, list[int]] = {}  # vertex id -> its edge ids, sorted; only vertices with one
        self._starts: list[int] = []  # the ids of the vertices with an edge, sorted
        self._pairs: dict[tuple[int, int], set[int]] = {}  # anchor pair -> inducers with edges
        self._shared: set[tuple[int, int]] = set()  # the pairs with two or more inducers
        self._dirty_u: set[int] = set()
        self.checks = 0  # edge checks the blocks hold: the last aux graph's count

    def update(self, imp: Improvement) -> None:
        """Note the vertices that `imp`, applied to A, moved in or out."""
        self._moved.update(imp.x, imp.removed)

    def _near_moved(self) -> set[int]:
        """The vertices moved since the last `_reanchor`, and their neighbors."""
        adj, moved = self.a.g.adj, self._moved
        return set(moved).union(*(adj[v] for v in moved))

    def _reanchor(self, touched: set[int]) -> None:
        """Move every vertex of `touched`, `_near_moved()`, to its new
        anchor, drop its old and new anchor, and mark its edge block dirty;
        then clear the moved vertices. Every vertex of `touched` outside A
        has a solution neighbor. `touched` becomes the set of dirty
        inducers, so the first call, where it holds every vertex, keeps one
        such table and not two."""
        members, a_nbrs = self.a.members, self.a.a_nbrs
        w = self.a.g.w_int
        anchor, low = self._anchor, self._low
        for u in touched:
            old = anchor.pop(u, None)
            if old in low:
                self._drop_anchor(old)
            if u in members:
                continue
            if u in low:  # u left A
                self._drop_anchor(u)
            nu = a_nbrs[u]
            if 2 * w[u] > sum(w[x] for x in nu):
                v1 = anchor[u] = nu[0]
                if v1 in low:
                    self._drop_anchor(v1)
        touched |= self._dirty_u
        self._dirty_u = touched
        self._moved.clear()

    def _drop_anchor(self, v: int) -> None:
        """Drop low(v) and mark the inducers at anchor v dirty: they are
        neighbors of v. They are the holders of the vertex block at v whose
        anchors still include v; every other holder had its N(u, A) change,
        so `_reanchor` marks it too, and the block leaves with the last of
        them (`_release`). An anchor without low(v) has no inducer that read
        it since it last changed."""
        del self._low[v]
        a_nbrs = self.a.a_nbrs
        self._dirty_u.update(u for u in self.a.g.adj[v] if v in a_nbrs[u][:2])

    def _spills(self, v: int) -> dict[int, int]:
        """Each candidate x at anchor v, in id order, with its spill
        w2(N(x, A) - v) - w2(x), the net of the companion set (x,)."""
        g, a_nbrs, anchor = self.a.g, self.a.a_nbrs, self._anchor
        w2 = g.w2_int
        return {x: sum(w2[z] for z in a_nbrs[x] if z != v) - w2[x] for x in g.adj[v] if anchor.get(x) == v}

    def _low_at(self, v: int) -> int:
        """low(v), a lower bound on the net of every companion set at anchor
        v: the sum of its candidates' spills, every one of them negative. A
        candidate x has 2 w(x) > w(v) + S, S = w(N(x, A) - v), and v is its
        heaviest solution neighbor, so 4 w2(x) > (w(v) + S)^2 >= 4 w(v) S
        >= 4 w2(N(x, A) - v)."""
        low = self._low.get(v)
        if low is None:
            low = self._low[v] = sum(self._spills(v).values())
        return low

    def _hold(self, v: int) -> _VertexBlock:
        """Count one more admitted inducer at anchor v, and return the
        vertex block at v, built if it is the first: one aux vertex per
        companion set, largest first, then in id order, each with its net;
        an anchor with no candidate has the one vertex y = (), net 0."""
        held = self._users.get(v, 0)
        self._users[v] = held + 1
        if held:
            return self._vblocks[v]
        spill = self._spills(v)
        ys = [(), *independent_subsets(self.a.g, list(spill), self.y_cap)]
        ys.sort(key=lambda y: (-len(y), y))
        nets = [sum(spill[x] for x in y) for y in ys]
        base = v << _ID_SHIFT
        block = self._vblocks[v] = _VertexBlock(range(base, base + len(ys)), ys, nets)
        self._n_vertices += len(ys)
        return block

    def _release(self, v: int) -> None:
        """Count one admitted inducer less at anchor v, and drop the vertex
        block at v with the last: the only way a vertex block leaves."""
        held = self._users.pop(v) - 1
        if held:
            self._users[v] = held
        else:
            self._n_vertices -= len(self._vblocks.pop(v).ids)

    def _drop_edge_blocks(self) -> None:
        """Drop the edge block of every dirty inducer, with its hold on the
        vertex blocks at its anchors and its edges, each unlinked from the
        incident lists of both its ends; an end left without an edge leaves
        `incident` and the starts. This is the only way out of either."""
        eblocks, incident, starts = self._eblocks, self._incident, self._starts
        pairs, shared = self._pairs, self._shared
        for u in [u for u in self._dirty_u if u in eblocks]:
            block = eblocks.pop(u)
            self.checks -= block.checks
            for v in block.anchors:
                self._release(v)
            if not block.ends:
                continue
            self._n_edges -= len(block.ends)
            for ei, ends in zip(block.ids, block.ends):
                for end in ends:
                    at_end = incident[end]
                    at_end.remove(ei)
                    if not at_end:
                        del incident[end], starts[bisect_left(starts, end)]
            group = pairs[block.anchors]
            group.remove(u)
            if len(group) < 2:
                shared.discard(block.anchors)
                if not shared:
                    shared.clear()
            if not group:
                del pairs[block.anchors]

    def _update_edge_blocks(self) -> None:
        """Build the edge block of every dirty inducer the bound admits, the
        vertex blocks at its anchors that it is the first to hold, the
        incident lists and starts of the vertices it gives a first edge,
        and the inducers per anchor pair with it. Raises
        `SearchIncompleteError` once the held vertex blocks pass
        `_MAX_AUX_VERTICES` vertices or the checks of all blocks pass
        `_MAX_AUX_EDGE_CHECKS`; the inducer at hand lets go of its anchors,
        and it and the inducers not yet built stay dirty."""
        w2, a_nbrs = self.a.g.w2_int, self.a.a_nbrs
        eblocks, dirty = self._eblocks, self._dirty_u
        incident, starts = self._incident, self._starts
        pairs, shared = self._pairs, self._shared
        # Only inducers have edge blocks. The set is cleared before any is
        # built, so the table it grew to (every vertex's, at the first call)
        # is freed before the blocks grow.
        todo = [u for u in dirty if len(a_nbrs[u]) >= 2]
        dirty.clear()
        total = self.checks
        for i, u in enumerate(todo):
            v1, v2, *rest = a_nbrs[u]
            base = 2 * w2[u] - w2[v1] - w2[v2] - 2 * sum(w2[x] for x in rest)
            if base <= self._low_at(v1) + self._low_at(v2):
                continue  # no edge (see `build_aux_graph`)
            b1, b2 = self._hold(v1), self._hold(v2)
            try:
                if self._n_vertices > _MAX_AUX_VERTICES:
                    raise SearchIncompleteError(f"aux graph exceeded {_MAX_AUX_VERTICES} vertices")
                ends, checks = self._edge_ends(u, b1, b2, base, _MAX_AUX_EDGE_CHECKS - total)
            except SearchIncompleteError:
                self._release(v1)
                self._release(v2)
                dirty.update(todo[i:])
                self.checks = total
                raise
            first = u << _ID_SHIFT
            ids = range(first, first + len(ends))
            key = (v1, v2) if v1 < v2 else (v2, v1)
            eblocks[u] = _EdgeBlock(ids, ends, checks, key)
            total += checks
            if ends:
                self._n_edges += len(ends)
                for ei, pair in zip(ids, ends):
                    for end in pair:
                        if end not in incident:
                            insort(starts, end)
                        insort(incident.setdefault(end, []), ei)
                group = pairs.setdefault(key, set())
                group.add(u)
                if len(group) == 2:
                    shared.add(key)
        self.checks = total

    def _edge_ends(self, u: int, b1: _VertexBlock, b2: _VertexBlock, base: int,
                   budget: int) -> tuple[list[tuple[int, int]], int]:
        """The ends of u's aux edges, from b1, the vertex block at u's
        heaviest anchor, to b2, the one at its second, and the checks they
        took; the check past `budget` raises `SearchIncompleteError`. The
        graph keeps its adjacency as tuples only, so u's neighbors become
        one set, and each companion set in b1 the union of its members'
        neighbors, once, for all its pairings in b2."""
        adj = self.a.g.adj
        nbrs = set(adj[u])
        ys2, nets2 = b2.ys, b2.nets
        # u is anchored at v1, so no companion set at v2 contains it.
        side_b = [ib for ib, y in enumerate(ys2) if nbrs.isdisjoint(y)]
        ends: list[tuple[int, int]] = []
        checks = 0
        if not side_b:
            return ends, checks
        for ia, y1 in enumerate(b1.ys):
            if u in y1 or not nbrs.isdisjoint(y1):
                continue
            bound = base - b1.nets[ia]
            near = {z for x in y1 for z in adj[x]}  # y1's neighbors
            for ib in side_b:
                if not near.isdisjoint(ys2[ib]):
                    continue
                checks += 1
                if checks > budget:
                    raise SearchIncompleteError(f"aux graph exceeded {_MAX_AUX_EDGE_CHECKS} edge checks")
                if bound > nets2[ib]:
                    ends.append((b1.ids[ia], b2.ids[ib]))
        return ends, checks


def build_aux_graph(state: CircularState) -> AuxGraph:
    """Materialize the restricted auxiliary multigraph over the state's
    solution and its anchors.

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

    So no edge exists unless base(u) > low(v1) + low(v2), low(v) being the
    sum of the nets of v's candidates, which no net at v goes below (proof
    in `CircularState._low_at`). Only the inducers that pass this bound are
    paired, and vertices exist only at the anchors such an inducer reaches:
    the vertex count and the edge-check count, which the caps
    `_MAX_AUX_VERTICES` and `_MAX_AUX_EDGE_CHECKS` bound, are those of the
    admitted inducers and their anchors. The edges, their ids, `incident`, `starts` and
    `parallel` are those of the graph with a vertex block at every member.

    The graph is built over the state's anchors, which must be current:
    `build_anchor_maps(state.a, state)` after the last swap handed to the
    state, else `ContractError`. Only the blocks the swaps since the last
    call touched are rebuilt.
    """
    if state._moved:
        raise ContractError("anchor maps are stale: build_anchor_maps after every swap")
    state._drop_edge_blocks()
    # A cap is crossed when a count passes it: the counts of the blocks kept
    # from the last call are checked here, and each block as it is built.
    if state._n_vertices > _MAX_AUX_VERTICES:
        raise SearchIncompleteError(f"aux graph exceeded {_MAX_AUX_VERTICES} vertices")
    if state.checks > _MAX_AUX_EDGE_CHECKS:
        raise SearchIncompleteError(f"aux graph exceeded {_MAX_AUX_EDGE_CHECKS} edge checks")
    state._update_edge_blocks()
    eblocks, pairs = state._eblocks, state._pairs
    sharing = sorted({u for key in state._shared for u in pairs[key]})
    parallel = [ei for u in sharing for ei in eblocks[u].ids]
    return AuxGraph(AuxBlocks(state._vblocks, state._n_vertices), AuxBlocks(eblocks, state._n_edges),
                    state._incident, parallel, state._starts)


def _assemble(
    a: Solution,
    h: AuxGraph,
    vertex_order: Sequence[int],
    edge_order: Sequence[int],
) -> Improvement:
    """The improvement a cycle of `h` stands for, with N(x, A) read from
    `a`'s table."""
    u_order = tuple(e >> _ID_SHIFT for e in edge_order)
    anchors = tuple(i >> _ID_SHIFT for i in vertex_order)
    blocks = h.vertices.blocks
    ys = tuple(blocks[v].ys[i & _ID_MASK] for v, i in zip(anchors, vertex_order))
    x = set(u_order).union(*ys)
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
    vblocks, eblocks = h.vertices.blocks, h.edges.blocks
    groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for e in h.parallel:
        a, b = eblocks[e >> _ID_SHIFT].ends[e & _ID_MASK]
        groups.setdefault((a, b) if a < b else (b, a), []).append((e, a, b))
    for pair in groups.values():
        for i, (e1, a, b) in enumerate(pair):
            ya, yb = vblocks[a >> _ID_SHIFT].ys[a & _ID_MASK], vblocks[b >> _ID_SHIFT].ys[b & _ID_MASK]
            support = {*ya, *yb, e1 >> _ID_SHIFT}
            for e2, _, _ in pair[i + 1:]:
                if _supports_compatible_seq(g, support, [e2 >> _ID_SHIFT]):
                    yield [a, b], [e1, e2]


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
    incident, vblocks, eblocks = h.incident, h.vertices.blocks, h.edges.blocks
    S, M = _ID_SHIFT, _ID_MASK
    nodes = 0

    def walk(start: int, current: int, vseq: list[int], eseq: list[int],
             anchors: set[int], support: set[int]) -> Iterator[tuple[list[int], list[int]]]:
        nonlocal nodes
        for ei in incident[current]:
            nodes += 1
            if nodes > budget:
                raise SearchIncompleteError(f"cycle DFS exceeded {budget} nodes")
            if ei in eseq:
                continue
            a, b = eblocks[ei >> S].ends[ei & M]
            nxt = b if a == current else a
            if nxt == start:
                if len(eseq) >= 2 and _supports_compatible_seq(g, support, [ei >> S]):
                    yield vseq[:], eseq + [ei]
                continue
            if nxt < start or nxt in vseq:
                continue
            v = nxt >> S
            if v in anchors:
                continue
            new = [ei >> S, *vblocks[v].ys[nxt & M]]
            if not _supports_compatible_seq(g, support, new):
                continue
            if len(eseq) + 1 >= max_len:
                continue
            anchors.add(v)
            support.update(new)
            yield from walk(start, nxt, vseq + [nxt], eseq + [ei], anchors, support)
            anchors.remove(v)
            support.difference_update(new)

    try:
        for s in h.starts:
            yield from walk(s, s, [s], [], {s >> S}, set(vblocks[s >> S].ys[s & M]))
    finally:
        # `walk` refers to itself, so without this the cycle would keep `h`
        # and its dicts alive until the next cyclic garbage collection
        del walk


def _supports_compatible_seq(g: ConflictGraph, support: set[int], new: Sequence[int]) -> bool:
    for i, x in enumerate(new):
        nbrs = g.adj[x]
        if x in support or not support.isdisjoint(nbrs):
            return False
        for z in new[i + 1:]:
            if z == x or z in nbrs:
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
        for x in h.vertices.blocks[i >> _ID_SHIFT].ys[i & _ID_MASK]:
            mask |= set_masks[x]
        return mask

    return _Memo(vertex_mask), _Memo(lambda ei: set_masks[ei >> _ID_SHIFT])


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
    incident, eblocks = h.incident, h.edges.blocks

    def alive_steps(v: int) -> list[tuple[int, int, int]]:
        # v's alive edges as steps (edge, other end, colors the step adds),
        # in edge order
        mv = vmask[v]
        out = []
        for ei in incident[v]:
            a, b = eblocks[ei >> _ID_SHIFT].ends[ei & _ID_MASK]
            s = b if a == v else a
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


def _first_valid(state: CircularState, h: AuxGraph,
                 candidates: Iterable[tuple[list[int], list[int]]]) -> Optional[Improvement]:
    """The first candidate cycle of `h` that assembles into an improvement
    of the state's solution `validate_circular` accepts, or None."""
    a = state.a
    for vorder, eorder in candidates:
        imp = _assemble(a, h, vorder, eorder)
        if validate_circular(a, imp, d=state.d):
            return imp
    return None


def run_color_coding(state: CircularState, h: AuxGraph) -> Optional[Improvement]:
    """Randomized circular search over `h`, the aux graph of the state's
    solution: repeat (color the universe, run the cycle DP).

    Sound in every trial; finds an existing improvement with probability at
    least the injectivity bound per trial, amplified over repetitions.
    """
    if not h.edges:
        return None
    params, inst = state.params, state.inst
    for _ in range(params.repetitions):
        coloring = _draw_coloring(state.rng, params.t, inst.universe_size)
        vmask, emask = _color_masks(h, inst, coloring)
        imp = _first_valid(state, h, _colorful_cycles(h, vmask, emask, state.max_len, _MAX_DP_STATES))
        if imp is not None:
            return imp
    return None


def find_circular_improvement(state: CircularState) -> Optional[Improvement]:
    """Search for a circular improvement of w^2(A), A the state's solution.

    Requires that no claw-shaped improvement exists (every vertex outside
    A then has an anchor) and that the state's anchors are current
    (`build_anchor_maps(state.a, state)` after its last swap). Parallel-edge
    2-cycles are scanned first; longer cycles go through the exhaustive DFS
    or the color-coding search depending on the state's mode. Every
    returned improvement is re-validated field by field.
    """
    g = state.a.g
    h = build_aux_graph(state)
    imp = _first_valid(state, h, _two_cycle_candidates(g, h))
    if imp is not None:
        return imp
    if state.params.mode == "rand":
        return run_color_coding(state, h)
    return _first_valid(state, h, _dfs_cycles(g, h, state.max_len, _MAX_DFS_NODES))


def validate_circular(a: Solution, imp: Improvement, d: int) -> bool:
    """Re-validate a circular improvement of `a` field by field.

    `validate_improvement` checks x, removed = N(x, A) and the strict
    squared-weight gain over `a`'s graph; this adds the cycle structure
    over distinct solution vertices, the companion-set decomposition and
    size bounds, and the per-edge inequality. Each vertex's anchors are the
    first two entries of its list in `a.a_nbrs`, which is heaviest first.
    Each fact is checked once: anchors {cyc[i], cyc[i + 1]} for each
    inducer u[i], over two or more inducers and distinct cycle vertices,
    imply that u[i] has two anchors and that each cycle vertex, and no
    other, is an anchor of exactly two inducers; companion sets that
    together are x - u lie in x - u, so that check runs first and the
    anchor loop indexes only vertices of x.
    """
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
    # The induced edges must trace the recorded cycle.
    cyc = list(kind.cycle_vertices)
    if len(cyc) != len(u_list) or len(set(cyc)) != len(cyc):
        return False
    a_nbrs = a.a_nbrs
    for i, u in enumerate(u_list):
        if set(a_nbrs[u][:2]) != {cyc[i], cyc[(i + 1) % len(cyc)]}:
            return False
    # Companion decomposition: X = U | the companion sets, y[i] anchored at cyc[i].
    ys = [frozenset(y) for y in kind.y]
    if len(ys) != len(cyc):
        return False
    if set().union(*ys) != x - set(u_list):
        return False
    for v, y in zip(cyc, ys):
        if len(y) > d - 1:
            return False
        if any(a_nbrs[x_][:1] != [v] for x_ in y):
            return False
    y_of = dict(zip(cyc, ys))
    for u in u_list:
        v1, v2 = a_nbrs[u][:2]
        if not aux_edge_check(a, u, y_of[v1], y_of[v2]):
            return False
    return True
