"""Instance families: the tight bipartite example, alternating cycles, the
incidence lower-bound construction over high-girth regular graphs, and
seeded random packing instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactnum import root_floor
from .instances import ConflictGraph, InputError, PackingInstance, Solution


def berman_tight_instance(d: int) -> PackingInstance:
    """Packing form of the tight example: one set per element of the small
    side, one per singleton/pair on the big side, with fresh tag elements so
    the conflict graph is exactly the bipartite incidence pattern.

    Ids: 0..d-2 are the small side (elements 1..d-1), then the singletons in
    element order, then the pairs in lexicographic order. Unit weights.
    """
    if d < 3:
        raise InputError("need d >= 3")
    elems = list(range(1, d))
    b_labels: list[tuple[int, ...]] = [(i,) for i in elems]
    b_labels += [(i, j) for i in elems for j in elems if i < j]
    tags: dict[tuple[int, int], int] = {}
    for b_idx, label in enumerate(b_labels):
        for a in label:
            tags[(a, b_idx)] = len(tags)
    a_sets = [[tags[(a, b_idx)] for b_idx, label in enumerate(b_labels) if a in label] for a in elems]
    b_sets = [[tags[(a, b_idx)] for a in label] for b_idx, label in enumerate(b_labels)]
    sets = a_sets + b_sets
    return PackingInstance.build(len(tags), sets, [Fraction(1)] * len(sets), k=d - 1)


def gen_alternating_cycle(n_pairs: int, d: int, eps: Fraction) -> tuple[ConflictGraph, Solution, Solution]:
    """Even cycle with weights alternating between 2/(d-1-eps) and 1.

    Returns (graph, light side, heavy side); the weight ratio between the
    sides is exactly (d-1-eps)/2.
    """
    eps = Fraction(eps)
    if n_pairs < 2 or d < 4 or not 0 < eps < 1:
        raise InputError("need n_pairs >= 2, d >= 4, 0 < eps < 1")
    n = 2 * n_pairs
    light = Fraction(2) / (d - 1 - eps)
    weights = [light if v % 2 == 0 else Fraction(1) for v in range(n)]
    edges = [(v, (v + 1) % n) for v in range(n)]
    g = ConflictGraph.from_edges(n, edges, weights, d=d)
    a = Solution.of(g, range(0, n, 2))
    astar = Solution.of(g, range(1, n, 2))
    return g, a, astar


def girth(g: ConflictGraph) -> float:
    """Length of a shortest cycle via per-root breadth-first search;
    math.inf for forests."""
    best = math.inf
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            if 2 * dist[x] + 1 >= best:
                break
            for y in g.adj[x]:
                if y == parent[x]:
                    continue
                if y in dist:
                    best = min(best, dist[x] + dist[y] + 1)
                else:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
    return best


def _unit_graph(n: int, edges) -> ConflictGraph:
    return ConflictGraph.from_edges(n, edges, [Fraction(1)] * n)


def petersen_graph() -> ConflictGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return _unit_graph(10, edges)


def complete_graph(n: int) -> ConflictGraph:
    return _unit_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(k: int) -> ConflictGraph:
    return _unit_graph(2 * k, [(i, k + j) for i in range(k) for j in range(k)])


def projective_plane_incidence(q: int) -> ConflictGraph:
    """Point-line incidence graph of the projective plane of prime order q:
    (q+1)-regular, girth 6, 2(q^2+q+1) vertices. q=2 gives the Heawood graph."""
    if not _is_prime(q):
        raise InputError(f"order {q} is not prime")
    reps = [(1, y, z) for y in range(q) for z in range(q)]
    reps += [(0, 1, z) for z in range(q)]
    reps += [(0, 0, 1)]
    npts = len(reps)
    edges = []
    for i, pt in enumerate(reps):
        for j, ln in enumerate(reps):
            if sum(a * b for a, b in zip(pt, ln)) % q == 0:
                edges.append((i, npts + j))
    return _unit_graph(2 * npts, edges)


def _is_regular(g: ConflictGraph, k: int) -> bool:
    return all(g.degree(v) == k for v in range(g.n))


def gen_high_girth_regular(k: int, l: int) -> ConflictGraph:
    """A simple k-regular graph of girth at least l, from a catalog: the
    complete graph K_{k+1} for l <= 3, the complete bipartite K_{k,k} for
    l = 4, the Petersen graph for k = 3 and l = 5, and the projective-plane
    incidence graph of order k-1 for l <= 6 when k-1 is prime. Any other
    (k, l) is an InputError. The result is re-verified for regularity and
    girth before returning.
    """
    if k < 3:
        raise InputError("need k >= 3")
    if l <= 3:
        g = complete_graph(k + 1)
    elif l == 4:
        g = complete_bipartite(k)
    elif l == 5 and k == 3:
        g = petersen_graph()
    elif l <= 6 and _is_prime(k - 1):
        g = projective_plane_incidence(k - 1)
    else:
        raise InputError(
            f"no catalog {k}-regular graph of girth >= {l}: the catalog covers girth <= 4, "
            "the Petersen graph (k = 3, girth 5) and girth <= 6 for prime k - 1"
        )
    if not _is_regular(g, k) or girth(g) < l:
        raise RuntimeError("generator postcondition failed")
    return g


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    return all(x % p for p in range(2, int(math.isqrt(x)) + 1))


@dataclass(frozen=True)
class LowerBoundParams:
    """Parameters of the incidence lower-bound family.

    eps_d, when omitted, becomes the largest value at most
    1 - (1 - eps/(d-1))**alpha whose reciprocal is an integer.
    """

    d: int
    alpha: Fraction
    eps: Fraction
    target_girth: int
    eps_d: Optional[Fraction] = None

    def __post_init__(self):
        if self.d < 3:
            raise InputError("need d >= 3")
        if not 0 < self.eps < 1:
            raise InputError("need 0 < eps < 1")
        if Fraction(self.alpha) <= 0:
            raise InputError("the incidence construction needs alpha > 0")

    def eps_prime_d(self) -> Fraction:
        """1 - (1 - eps/(d-1))**alpha: exact for integer alpha, otherwise its
        exact floor on the 2**-80 grid."""
        base = 1 - self.eps / (self.d - 1)
        alpha = Fraction(self.alpha)
        if alpha.denominator == 1:
            return 1 - base ** alpha.numerator
        # base**alpha rounded up onto the grid, so 1 minus it rounds down
        c = root_floor(base ** alpha.numerator, alpha.denominator, 80)
        if Fraction(c, 1 << 80) ** alpha.denominator != base ** alpha.numerator:
            c += 1
        return Fraction((1 << 80) - c, 1 << 80)

    def eps_d_value(self) -> Fraction:
        if self.eps_d is not None:
            e = Fraction(self.eps_d)
            if e <= 0 or (Fraction(1) / e).denominator != 1:
                raise InputError("1/eps_d must be a positive integer")
            if e > self.eps_prime_d():
                raise InputError("eps_d exceeds 1 - (1 - eps/(d-1))**alpha")
            return e
        ep = self.eps_prime_d()
        if ep <= 0:
            raise InputError("derived eps'_d is non-positive")
        return Fraction(1, math.ceil(Fraction(1) / ep))


def edge_side_weight(params: LowerBoundParams) -> Fraction:
    """(1 - eps_d)**(1/alpha): exact when 1/alpha is an integer, otherwise its
    exact floor on the 2**-60 grid."""
    base = 1 - params.eps_d_value()
    inv = Fraction(1) / Fraction(params.alpha)
    if inv.denominator == 1:
        return base ** inv.numerator
    return Fraction(root_floor(base ** inv.numerator, inv.denominator, 60), 1 << 60)


def gen_incidence_lowerbound(
    params: LowerBoundParams, h: ConflictGraph
) -> tuple[ConflictGraph, Solution, Solution]:
    """Incidence conflict graph of a (d-1)-regular graph of girth >= target.

    Vertices 0..n-1 mirror the vertices of h (weight 1); vertices n.. mirror
    its edges (weight (1-eps_d)**(1/alpha)); each edge vertex joins its two
    endpoints. Returns (graph, vertex side, edge side).
    """
    k = params.d - 1
    if not _is_regular(h, k):
        raise InputError(f"base graph is not {k}-regular")
    if girth(h) < params.target_girth:
        raise InputError(f"base graph has girth below {params.target_girth}")
    w_edge = edge_side_weight(params)
    h_edges = h.edges()
    n = h.n
    edges = []
    for idx, (u, v) in enumerate(h_edges):
        edges.append((u, n + idx))
        edges.append((v, n + idx))
    weights = [Fraction(1)] * n + [w_edge] * len(h_edges)
    g = ConflictGraph.from_edges(n + len(h_edges), edges, weights, d=params.d)
    a = Solution.of(g, range(n))
    astar = Solution.of(g, range(n, n + len(h_edges)))
    return g, a, astar


def gen_random_packing(
    n_sets: int,
    k: int,
    universe: int,
    weight_dist: tuple[str, object] = ("uniform", 10),
    seed: int = 0,
) -> PackingInstance:
    """Seeded random instance; sets are sampled without internal duplicates,
    each kept as the sorted tuple it is drawn as.

    weight_dist: ("uniform", W) draws integers 1..W; ("near-unit", eta)
    draws 1 + eta*j/100 for j in -100..100 with eta in (0,1). Each distinct
    weight is built once.
    """
    if n_sets < 1 or k < 1 or universe < k:
        raise InputError("need n_sets >= 1 and universe >= k >= 1")
    kind, param = weight_dist
    # the weight of the j-th of `top` values is first + step * j
    if kind == "uniform":
        top, first, step = int(param), Fraction(1), Fraction(1)
        if top < 1:
            raise InputError(f"uniform weights need W >= 1, got {top}")
    elif kind == "near-unit":
        eta = Fraction(param)
        if not 0 < eta < 1:
            raise InputError("near-unit eta must lie in (0,1)")
        top, first, step = 201, 1 - eta, eta / 100
    else:
        raise InputError(f"unknown weight distribution {kind!r}")
    sets, picks = _draw_packing(random.Random(seed), n_sets, k, universe, top)
    table = {j: first + step * j for j in set(picks)}
    # drawn sorted, distinct, of 1..k elements in range, with positive weights
    return PackingInstance._of_parts(universe, tuple(map(tuple, sets)), tuple(map(table.__getitem__, picks)), k)


def _draw_packing(rng: random.Random, n_sets: int, k: int, universe: int, top: int) -> tuple[list[list[int]], list[int]]:
    """Per set, `sorted(rng.sample(range(universe), rng.randint(1, k)))` and
    then `rng.randrange(top)`, with the draws inlined as the `getrandbits`
    rejection loops CPython 3.11 runs for them, so the stream and the
    generator's state afterwards are the same. Returns the sets and the
    drawn indices."""
    getrandbits = rng.getrandbits
    k_bits, u_bits, top_bits = k.bit_length(), universe.bit_length(), top.bit_length()
    # `sample` keeps a pool list when the population is at most this size
    pool_max = [21 + 4 ** math.ceil(math.log(size * 3, 4)) if size > 5 else 21 for size in range(k + 1)]
    sets, picks = [], []
    for _ in range(n_sets):
        size = getrandbits(k_bits)
        while size >= k:
            size = getrandbits(k_bits)
        size += 1
        s = []
        if universe <= pool_max[size]:
            pool = list(range(universe))
            for left in range(universe, universe - size, -1):
                bits = left.bit_length()
                j = getrandbits(bits)
                while j >= left:
                    j = getrandbits(bits)
                s.append(pool[j])
                pool[j] = pool[left - 1]
        else:
            for _ in range(size):
                j = getrandbits(u_bits)
                while j >= universe or j in s:
                    j = getrandbits(u_bits)
                s.append(j)
        s.sort()
        sets.append(s)
        j = getrandbits(top_bits)
        while j >= top:
            j = getrandbits(top_bits)
        picks.append(j)
    return sets, picks
