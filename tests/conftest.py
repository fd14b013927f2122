"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the package's search code paths: plain
subset enumeration over bitmasks or recursive walks, so that expected values
are computed by a second route.
"""

import random
from fractions import Fraction
from itertools import combinations, count
from types import SimpleNamespace
from typing import NamedTuple, Optional

import pytest
from hypothesis import strategies as st

from clawpack.circular import (
    _ID_SHIFT,
    AuxBlocks,
    AuxGraph,
    CircularState,
    ColorCodingParams,
    _EdgeBlock,
    _VertexBlock,
    build_anchor_maps,
)
from clawpack.generators import berman_tight_instance
from clawpack.instances import (
    BudgetExceededError,
    ClawShaped,
    ConflictGraph,
    InputError,
    PackingInstance,
    Solution,
    build_conflict_graph,
    independent_subsets,
)
from clawpack.solvers import ClawSearchState, _resolve_d, find_claw_improvement


def nbr_set(g: ConflictGraph, v: int) -> frozenset[int]:
    """The neighbors of v as a set. The graph keeps its adjacency as sorted
    tuples only, so the tests' set algebra builds the set here."""
    return frozenset(g.adj[v])


def graph_with_edge_set(data, max_n: int = 12):
    """(g, edges, independent): a graph of 1..max_n vertices drawn with
    hypothesis's `data`, its edges as a set of vertex pairs built here, and
    a brute-force independence test over that set, so a check against it
    reads nothing of the graph's adjacency."""
    n = data.draw(st.integers(1, max_n))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    edges = {frozenset(e) for e in pairs if e[0] != e[1]}

    def independent(vs) -> bool:
        return len(set(vs)) == len(vs) and not any(frozenset(c) in edges for c in combinations(vs, 2))

    return ConflictGraph.from_edges(n, [tuple(e) for e in edges], [1] * n), edges, independent


def gen_berman_tight(d: int) -> tuple[ConflictGraph, Solution, Solution]:
    """The tight instance's conflict graph with both sides as solutions."""
    g = build_conflict_graph(berman_tight_instance(d))
    return g, Solution.of(g, range(d - 1)), Solution.of(g, range(d - 1, g.n))


def circular_state(a: Solution, params=None, inst=None, d=None, rng=None) -> CircularState:
    """A new `CircularState` holding `a` and its anchors, for a circular
    search outside a run. `params` default to `ColorCodingParams.defaults(g,
    inst)`, `d` to the claw bound of `a`'s graph g, else n + 1, which no
    claw reaches, and the generator to `random.Random(0)`."""
    g = a.g
    if params is None:
        params = ColorCodingParams.defaults(g, inst)
    if d is None:
        d = g.d if g.d is not None else g.n + 1
    state = CircularState(a, params, d, inst, rng if rng is not None else random.Random(0))
    build_anchor_maps(a, state)
    return state


def claw_search(a: Solution, d=None):
    """`find_claw_improvement` on a new `ClawSearchState` for `a`: a claw
    search outside a run. `d` defaults to the claw bound of `a`'s graph."""
    return find_claw_improvement(ClawSearchState(a, _resolve_d(a.g, d)))


def expand_steps(swaps) -> list[tuple[str, int]]:
    """The (kind, size) records a run writes for the swaps it applied: one
    size-1 claw-shaped record per vertex of a step of free vertices
    (claw-shaped with center None), and one record for any other swap."""
    records = []
    for imp in swaps:
        if isinstance(imp.kind, ClawShaped) and imp.kind.center is None:
            records += [("claw-shaped", 1)] * len(imp.x)
        else:
            records.append((imp.kind_name(), imp.size))
    return records


def ref_a_nbrs(g: ConflictGraph, members) -> list[list[int]]:
    """N(u, A) for every vertex u, built from the adjacency sets and sorted
    by (-w_int, id): the reference for `Solution.a_nbrs`, whose lists are
    kept heaviest first, ties to the lowest id."""
    w = g.w_int
    return [sorted(nbr_set(g, u) & members, key=lambda v: (-w[v], v)) for u in range(g.n)]


def ref_anchors(g: ConflictGraph, a: Solution) -> SimpleNamespace:
    """The anchors of every vertex outside `a`, by a second route to the
    first two entries of `a.a_nbrs`: `heaviest[u]` and, where u has two
    solution neighbors, `second[u]` are picked by rational weight, ties to
    the lowest id, and `a_neighbors[u]` is N(u, A) in id order."""
    heaviest, second, a_neighbors = {}, {}, {}
    for u in range(g.n):
        if u in a.members:
            continue
        nu = tuple(v for v in g.adj[u] if v in a.members)
        a_neighbors[u] = nu
        best = max(nu, key=lambda v: (g.weights[v], -v))
        heaviest[u] = best
        rest = [v for v in nu if v != best]
        if rest:
            second[u] = max(rest, key=lambda v: (g.weights[v], -v))
    return SimpleNamespace(heaviest=heaviest, second=second, a_neighbors=a_neighbors)


def w_of(g: ConflictGraph, vertices) -> Fraction:
    """w of a vertex set, summed as Fractions."""
    return sum((g.weights[v] for v in vertices), Fraction(0))


def w2_of(g: ConflictGraph, vertices) -> Fraction:
    """w^2 of a vertex set, summed as Fractions."""
    return sum((g.weights[v] ** 2 for v in vertices), Fraction(0))


def anchors_of(a_nbrs, members) -> tuple[dict[int, int], dict[int, int]]:
    """The first two entries of every outside vertex's list in an N(u, A)
    table, as the `heaviest` and `second` dicts of `ref_anchors`."""
    outside = [(u, nu) for u, nu in enumerate(a_nbrs) if u not in members]
    return {u: nu[0] for u, nu in outside}, {u: nu[1] for u, nu in outside if len(nu) > 1}


def charge_to_anchor(g: ConflictGraph, a: Solution, u: int) -> Fraction:
    """w(u) - w(N(u,A))/2, the charge u would send to its heaviest anchor."""
    return g.weights[u] - w_of(g, nbr_set(g, u) & a.members) / 2


def verify_claw_free(g: ConflictGraph, d: int, budget: int = 10_000_000) -> tuple[bool, Optional[tuple[int, tuple[int, ...]]]]:
    """Check that no vertex has d pairwise non-adjacent neighbors.

    Exponential in d; `budget` caps the independent neighbor subsets
    walked, counted across centers. Returns (True, None) or
    (False, (center, talons)), the lowest center and its lexicographically
    first d talons.
    """
    if d < 1:
        raise InputError("claw bound d must be >= 1")
    nodes = count(1)
    for c in range(g.n):
        if g.degree(c) < d:
            continue
        for talons in independent_subsets(g, g.adj[c], d):
            if next(nodes) > budget:
                raise BudgetExceededError(f"claw-free check exceeded {budget} nodes")
            if len(talons) == d:
                return False, (c, talons)
    return True, None


def brute_force_mwis(g: ConflictGraph) -> tuple[Fraction, frozenset[int]]:
    """Best independent set by full subset enumeration (n <= 20)."""
    assert g.n <= 20
    best_w, best = Fraction(0), frozenset()
    adj_masks = [0] * g.n
    for u in range(g.n):
        for v in g.adj[u]:
            adj_masks[u] |= 1 << v
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj_masks[v] & mask:
                ok = False
                break
            m &= m - 1
        if not ok:
            continue
        w = sum((g.weights[v] for v in range(g.n) if mask >> v & 1), Fraction(0))
        if w > best_w:
            best_w = w
            best = frozenset(v for v in range(g.n) if mask >> v & 1)
    return best_w, best


def brute_force_improvement_exists(g: ConflictGraph, members: set[int], alpha: int, cap: int) -> bool:
    """Any independent X outside `members`, |X| <= cap, with
    w^alpha(X) > w^alpha(N(X, members))? Exact integer-exponent arithmetic."""
    outside = [v for v in range(g.n) if v not in members]

    def power(v):
        return g.weights[v] ** alpha

    for size in range(1, cap + 1):
        for combo in combinations(outside, size):
            if not g.is_independent(combo):
                continue
            removed = set()
            for x in combo:
                removed |= nbr_set(g, x) & members
            if sum(map(power, combo), Fraction(0)) > sum(map(power, removed), Fraction(0)):
                return True
    return False


class Vertex(NamedTuple):
    """An aux vertex as a value: its anchor and its companion set."""

    anchor: int
    y: tuple[int, ...]


class Edge(NamedTuple):
    """An aux edge as a value: its ends (ids or positions) and its inducer."""

    a: int
    b: int
    inducer: int


def aux_vertices(h) -> list[tuple[int, Vertex]]:
    """Every vertex of an `AuxGraph` with its id, in id order, read from its
    vertex blocks."""
    blocks = h.vertices.blocks
    return [(i, Vertex(v, y)) for v in sorted(blocks) for i, y in zip(blocks[v].ids, blocks[v].ys)]


def aux_edges(h) -> list[tuple[int, Edge]]:
    """Every edge of an `AuxGraph` with its id, in id order, read from its
    edge blocks; the ends are vertex ids."""
    blocks = h.edges.blocks
    return [(e, Edge(a, b, u)) for u in sorted(blocks) for e, (a, b) in zip(blocks[u].ids, blocks[u].ends)]


def aux_graph_of(vertices, edges):
    """An `AuxGraph` in block form over lists of `Vertex` and `Edge` whose
    edge ends are positions in `vertices`: a vertex block per anchor and an
    edge block per inducer, each in list order, with the anchors of its
    first edge. The lists must run by anchor and by inducer, so positions
    and ids sort alike. Every edge may
    have a parallel twin, and the searches start at every vertex with an
    edge."""
    assert [v.anchor for v in vertices] == sorted(v.anchor for v in vertices)
    assert [e.inducer for e in edges] == sorted(e.inducer for e in edges)
    ys: dict[int, list] = {}
    ids = []  # vertex id by position
    for v in vertices:
        block = ys.setdefault(v.anchor, [])
        ids.append((v.anchor << _ID_SHIFT) + len(block))
        block.append(v.y)
    vblocks = {v: _VertexBlock(range(v << _ID_SHIFT, (v << _ID_SHIFT) + len(y)), y, [0] * len(y))
               for v, y in ys.items()}
    ends: dict[int, list] = {}
    incident: dict[int, list[int]] = {}
    for e in edges:
        block = ends.setdefault(e.inducer, [])
        ei = (e.inducer << _ID_SHIFT) + len(block)
        block.append((ids[e.a], ids[e.b]))
        incident.setdefault(ids[e.a], []).append(ei)
        incident.setdefault(ids[e.b], []).append(ei)
    eblocks = {u: _EdgeBlock(range(u << _ID_SHIFT, (u << _ID_SHIFT) + len(pairs)), pairs, len(pairs),
                             tuple(sorted(end >> _ID_SHIFT for end in pairs[0])))
               for u, pairs in ends.items()}
    h_edges = AuxBlocks(eblocks, len(edges))
    return AuxGraph(AuxBlocks(vblocks, len(vertices)), h_edges, incident, list(h_edges), sorted(incident))


def positional_candidates(h, candidates):
    """Cycle candidates over the ids of `h`, one by one, with every vertex
    and edge id replaced by its position in `h`'s order."""
    vrank = {v: i for i, v in enumerate(h.vertices)}
    erank = {e: i for i, e in enumerate(h.edges)}
    for vs, es in candidates:
        yield [vrank[v] for v in vs], [erank[e] for e in es]


def synthetic_search(search, h, vmask, emask, *args):
    """`search(h, vmask, emask, *args)`, a colorful-cycle search, with the
    vertex and edge masks listed in id order, yielding its candidates by
    position."""
    vm, em = dict(zip(h.vertices, vmask)), dict(zip(h.edges, emask))
    return positional_candidates(h, search(h, vm, em, *args))


def positional(h):
    """An `AuxGraph` as the lists it once was: vertices and edges in order,
    an edge's ends being positions in the vertex list."""
    vertices = aux_vertices(h)
    rank = {i: p for p, (i, _) in enumerate(vertices)}
    return SimpleNamespace(
        vertices=[v for _, v in vertices],
        edges=[Edge(rank[e.a], rank[e.b], e.inducer) for _, e in aux_edges(h)],
    )


def enumerate_colorful_cycles(h, vmask, emask, max_len):
    """All simple cycles of length 2..max_len in an aux graph whose vertex and
    edge color masks are pairwise disjoint. Returns a list of edge-index tuples."""
    found = []
    n = len(h.vertices)
    incident = [[] for _ in range(n)]
    for ei, e in enumerate(h.edges):
        incident[e.a].append(ei)
        incident[e.b].append(ei)

    def ok_to_add(used_mask, add):
        return not (used_mask & add)

    def walk(start, current, vseq, eseq, used_mask):
        for ei in incident[current]:
            if ei in eseq:
                continue
            e = h.edges[ei]
            nxt = e.b if e.a == current else e.a
            if nxt == start:
                if len(eseq) >= 1 and ok_to_add(used_mask, emask[ei]):
                    cyc = tuple(eseq + [ei])
                    if 2 <= len(cyc) <= max_len:
                        found.append(cyc)
                continue
            if nxt < start or nxt in vseq:
                continue
            add_e, add_v = emask[ei], vmask[nxt]
            # pairwise disjointness, not just union-disjointness
            if (used_mask & add_e) or (used_mask & add_v) or (add_e & add_v):
                continue
            if len(eseq) + 1 >= max_len:
                continue
            walk(start, nxt, vseq + [nxt], eseq + [ei], used_mask | add_e | add_v)

    for s in range(n):
        walk(s, s, [s], [], vmask[s])
    return found


def circular_improvement_exists_bruteforce(g, a, d, positive_only=False, y_cap=None) -> bool:
    """Decide by full enumeration whether any cycle-decomposable improvement
    exists: try every independent X outside the solution and every subset U
    of X as the cycle-inducing set, checking the decomposition directly,
    with the anchors of `ref_anchors`.

    positive_only/y_cap mirror the solver's companion-candidate restriction,
    for exact completeness comparisons against the restricted search."""
    from clawpack.circular import aux_edge_check, max_cycle_len_for

    members = a.members
    maps = ref_anchors(g, a)
    outside = [v for v in range(g.n) if v not in members]
    max_u = max_cycle_len_for(g.n)
    y_limit = d - 1 if y_cap is None else min(d - 1, y_cap)

    def is_cycle(u_set):
        deg = {}
        for u in u_set:
            for v in (maps.heaviest[u], maps.second[u]):
                deg[v] = deg.get(v, 0) + 1
        if any(c != 2 for c in deg.values()):
            return None
        # connectivity of the edge multiset
        verts = sorted(deg)
        adj = {v: [] for v in verts}
        for u in u_set:
            a1, a2 = maps.heaviest[u], maps.second[u]
            adj[a1].append(a2)
            adj[a2].append(a1)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return verts if len(seen) == len(verts) else None

    for size in range(2, len(outside) + 1):
        for x_tuple in combinations(outside, size):
            if not g.is_independent(x_tuple):
                continue
            x = set(x_tuple)
            if w2_of(g, x) <= w2_of(g, set().union(*(nbr_set(g, v) & members for v in x))):
                continue
            cands = [u for u in x_tuple if u in maps.second]
            for u_size in range(2, min(len(cands), max_u) + 1):
                for u_set in combinations(cands, u_size):
                    cyc = is_cycle(u_set)
                    if cyc is None:
                        continue
                    y_map = {v: frozenset() for v in cyc}
                    ok = True
                    for v in x - set(u_set):
                        anchor = maps.heaviest[v]
                        if anchor not in y_map:
                            ok = False
                            break
                        if positive_only and charge_to_anchor(g, a, v) <= 0:
                            ok = False
                            break
                        y_map[anchor] |= {v}
                    if not ok or any(len(ys) > y_limit for ys in y_map.values()):
                        continue
                    if all(
                        aux_edge_check(a, u, y_map[maps.heaviest[u]], y_map[maps.second[u]])
                        for u in u_set
                    ):
                        return True
    return False


def ref_aux_sides(u, y1, y2, g: ConflictGraph, maps) -> tuple[Fraction, Fraction]:
    """Both sides of the per-edge inequality in Fraction arithmetic, with
    the anchors `maps` of `ref_anchors`."""
    v1 = maps.heaviest[u]
    v2 = maps.second[u]
    w = g.weights
    lhs = w[u] ** 2 + Fraction(1, 2) * (w2_of(g, y1) + w2_of(g, y2))
    rhs = (w[v1] ** 2 + w[v2] ** 2) / 2
    rhs += sum((w[x] ** 2 for x in maps.a_neighbors[u] if x != v1 and x != v2), Fraction(0))
    for x in y1:
        rhs += Fraction(1, 2) * sum((w[z] ** 2 for z in maps.a_neighbors[x] if z != v1), Fraction(0))
    for x in y2:
        rhs += Fraction(1, 2) * sum((w[z] ** 2 for z in maps.a_neighbors[x] if z != v2), Fraction(0))
    return lhs, rhs


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24,
    a probable-prime test above."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    r, m = 0, n - 1
    while m % 2 == 0:
        r, m = r + 1, m // 2
    for b in bases:
        x = pow(b, m, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeWeights:
    """Rational weights whose denominators are pairwise distinct primes."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[int] = set()

    def prime_above(self, bits: int) -> int:
        p = self.rng.randrange(1 << bits, 1 << (bits + 1))
        while not is_prime(p) or p in self.used:
            p += 1
        self.used.add(p)
        return p

    def magnitude(self, e: int) -> Fraction:
        """A weight in [2**e, 2**(e+1)), e in -60..60."""
        p = self.prime_above(max(2, 2 - e) + self.rng.randrange(8))
        scaled = p * self.rng.randrange(1 << 20, 1 << 21)
        num = scaled << e >> 20 if e >= 0 else scaled >> (20 - e)
        if num % p == 0:
            num += 1
        return Fraction(num, p)

    def near_root(self, target: Fraction, k: int, above: bool) -> Fraction:
        """A weight whose k-th power (k != 0) is within about 2**-60
        relative of target, on the requested side (or equal)."""
        if k < 0:
            return 1 / self.near_root(1 / target, -k, not above)
        log2_root = (target.numerator.bit_length() - target.denominator.bit_length()) // k
        q = self.prime_above(max(61, 61 - log2_root) + self.rng.randrange(8))
        root = iroot(target.numerator * q ** k // target.denominator, k)
        return Fraction(root + (1 if above else 0), q)


@pytest.fixture
def unit_path3():
    # path a-b-c with unit weights
    return ConflictGraph.from_edges(3, [(0, 1), (1, 2)], [1, 1, 1], d=3)


def tight_copies(d: int, copies: int, seed: int, scales=None) -> tuple[PackingInstance, list[int]]:
    """Disjoint copies of the tight instance with shuffled ids, copy c's
    weights times scales[c] (1 by default); returns the instance and the
    copies' small sides."""
    base = berman_tight_instance(d)
    n = len(base.sets)
    perm = list(range(n * copies))
    random.Random(seed).shuffle(perm)
    sets: list = [None] * len(perm)
    weights: list = [None] * len(perm)
    for c in range(copies):
        for i, s in enumerate(base.sets):
            sets[perm[c * n + i]] = sorted(e + c * base.universe_size for e in s)
            weights[perm[c * n + i]] = base.weights[i] * (scales[c] if scales else 1)
    small = sorted(perm[c * n + i] for c in range(copies) for i in range(d - 1))
    return PackingInstance.build(copies * base.universe_size, sets, weights, base.k), small
