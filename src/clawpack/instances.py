"""Core data model: packing instances, conflict graphs, solutions, improvements.

Weights are exact rationals throughout, and every comparison the solvers make
is exact: either between Fractions or between the integer-scaled squared
weights `ConflictGraph.w2_int`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence


class InputError(ValueError):
    """Invalid instance, graph, or parameter data."""


class ContractError(RuntimeError):
    """An operation was called with its stated precondition violated."""


class BudgetExceededError(RuntimeError):
    """A guarded search exceeded its configured work budget."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise InputError(f"weights must be exact rationals, got float {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class PackingInstance:
    """A family of <=k-element sets over a universe 0..universe_size-1.

    Set ids are dense 0..n-1 in list order. All weights are strictly
    positive rationals; duplicate elements within a set are rejected.
    """

    universe_size: int
    sets: tuple[frozenset[int], ...]
    weights: tuple[Fraction, ...]
    k: int

    def __post_init__(self):
        if self.universe_size < 0:
            raise InputError("universe_size must be non-negative")
        if self.k < 1:
            raise InputError("k must be >= 1")
        if len(self.sets) != len(self.weights):
            raise InputError("sets and weights must have equal length")
        for i, s in enumerate(self.sets):
            if not 1 <= len(s) <= self.k:
                raise InputError(f"set {i} has {len(s)} elements, want 1..{self.k}")
            for e in s:
                if not 0 <= e < self.universe_size:
                    raise InputError(f"set {i} contains out-of-range element {e}")
        for i, w in enumerate(self.weights):
            if w <= 0:
                raise InputError(f"set {i} has non-positive weight {w}")

    @staticmethod
    def build(universe_size: int, sets: Iterable[Sequence[int]], weights, k: int) -> "PackingInstance":
        frozen = []
        for i, s in enumerate(sets):
            fs = frozenset(s)
            if len(fs) != len(s):
                raise InputError(f"set {i} repeats an element")
            frozen.append(fs)
        return PackingInstance(
            universe_size=universe_size,
            sets=tuple(frozen),
            weights=tuple(as_fraction(w) for w in weights),
            k=k,
        )

    @property
    def n(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class ConflictGraph:
    """Weighted, simple, undirected graph with sorted adjacency lists.

    `d` is the claimed claw bound carried as metadata; the solvers treat it
    as a promise and never verify it unless asked.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    d: Optional[int] = None

    def __post_init__(self):
        if len(self.adj) != self.n or len(self.weights) != self.n:
            raise InputError("adjacency/weights length must equal n")
        for w in self.weights:
            if w <= 0:
                raise InputError("weights must be strictly positive")
        for u, nbrs in enumerate(self.adj):
            last = -1
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise InputError(f"vertex {u} has out-of-range neighbor {v}")
                if v == u:
                    raise InputError(f"loop at vertex {u}")
                if v <= last:
                    raise InputError(f"adjacency of {u} not sorted/duplicate-free")
                last = v
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u not in self.adj[v]:
                    raise InputError(f"edge {{{u},{v}}} not symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], weights, d: Optional[int] = None) -> "ConflictGraph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return ConflictGraph(
            n=n,
            adj=tuple(tuple(sorted(s)) for s in nbrs),
            weights=tuple(as_fraction(w) for w in weights),
            d=d,
        )

    @cached_property
    def adj_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adj)

    @cached_property
    def w2_int(self) -> tuple[int, ...]:
        """Squared weights times L**2, L the lcm of the weight denominators.

        Every entry is an integer, and sums of them order exactly as the
        Fraction sums of the squared weights do. Built on first use.
        """
        lcm = math.lcm(*(w.denominator for w in self.weights))
        return tuple((w.numerator * (lcm // w.denominator)) ** 2 for w in self.weights)

    @cached_property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj_sets[u]

    def is_independent(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        seen = set()
        for v in vs:
            if v in seen:
                return False
            seen.add(v)
        for v in vs:
            if self.adj_sets[v] & seen:
                return False
        return True

    def weight_of(self, vertices: Iterable[int]) -> Fraction:
        return sum((self.weights[v] for v in vertices), Fraction(0))

    def squared_weight_of(self, vertices: Iterable[int]) -> Fraction:
        return sum((self.weights[v] ** 2 for v in vertices), Fraction(0))

    def reweighted(self, weights) -> "ConflictGraph":
        return ConflictGraph(self.n, self.adj, tuple(as_fraction(w) for w in weights), self.d)


class Solution:
    """An independent vertex set with cached total weight and squared weight.

    Mutable and confined to a single solver run; the owning graph is shared
    read-only.
    """

    __slots__ = ("members", "total_w", "total_w2")

    def __init__(self, members: set[int], total_w: Fraction, total_w2: Fraction):
        self.members = members
        self.total_w = total_w
        self.total_w2 = total_w2

    @staticmethod
    def empty() -> "Solution":
        return Solution(set(), Fraction(0), Fraction(0))

    @staticmethod
    def of(g: ConflictGraph, members: Iterable[int]) -> "Solution":
        ms = set(members)
        for v in ms:
            if not 0 <= v < g.n:
                raise InputError(f"member id {v} out of range")
        if not g.is_independent(ms):
            raise InputError("members are not independent")
        return Solution(ms, g.weight_of(ms), g.squared_weight_of(ms))

    def copy(self) -> "Solution":
        return Solution(set(self.members), self.total_w, self.total_w2)

    def apply(self, g: ConflictGraph, imp: "Improvement") -> None:
        """Swap imp.x in and imp.removed out, keeping the caches coherent."""
        for v in imp.removed:
            self.members.discard(v)
        self.members |= imp.x
        self.total_w += g.weight_of(imp.x) - g.weight_of(imp.removed)
        self.total_w2 += g.squared_weight_of(imp.x) - g.squared_weight_of(imp.removed)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Solution({sorted(self.members)}, w={self.total_w})"


@dataclass(frozen=True)
class ClawShaped:
    """Talon set of a claw centered in the current solution.

    center is None exactly for a single free vertex (a 0-claw talon).
    """

    center: Optional[int]


@dataclass(frozen=True)
class Circular:
    """Evidence for a cycle-backed improvement.

    u: the cycle-inducing vertices, in cycle order.
    cycle_vertices: the solution vertices the cycle runs through, in order.
    y: per cycle vertex, the anchored companion set swapped in alongside.
    """

    u: tuple[int, ...]
    cycle_vertices: tuple[int, ...]
    y: tuple[tuple[int, tuple[int, ...]], ...]

    def y_map(self) -> dict[int, frozenset[int]]:
        return {v: frozenset(ys) for v, ys in self.y}


@dataclass(frozen=True)
class Generic:
    """An improvement found by exhaustive search for w**alpha."""

    alpha: Fraction = Fraction(2)


@dataclass(frozen=True)
class Improvement:
    """An independent set x to swap in, with removed = N(x, A)."""

    x: frozenset[int]
    removed: frozenset[int]
    kind: object = field(default_factory=Generic)

    @property
    def size(self) -> int:
        return len(self.x)

    def delta_w2(self, g: ConflictGraph) -> Fraction:
        return g.squared_weight_of(self.x) - g.squared_weight_of(self.removed)

    def kind_name(self) -> str:
        if isinstance(self.kind, ClawShaped):
            return "claw-shaped"
        if isinstance(self.kind, Circular):
            return "circular"
        return "generic"


def neighborhood(u_set: Iterable[int], w_set: Iterable[int], g: ConflictGraph) -> set[int]:
    """Closed neighborhood of u_set inside w_set.

    Returns {w in w_set : some u in u_set is adjacent to w or equal to w};
    membership alone suffices, so a vertex of u_set lying in w_set is its
    own neighbor.
    """
    us = set(u_set)
    ws = set(w_set)
    for x in us | ws:
        if not 0 <= x < g.n:
            raise InputError(f"vertex id {x} out of range")
    reach = set(us)
    for u in us:
        reach.update(g.adj[u])
    return reach & ws


def build_conflict_graph(inst: PackingInstance) -> ConflictGraph:
    """Conflict graph: vertex i per set i, edges between intersecting sets."""
    buckets: dict[int, list[int]] = {}
    for i, s in enumerate(inst.sets):
        for e in sorted(s):
            buckets.setdefault(e, []).append(i)
    edges = set()
    for members in buckets.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                edges.add((members[a], members[b]))
    return ConflictGraph.from_edges(inst.n, sorted(edges), inst.weights, d=inst.k + 1)


def verify_claw_free(g: ConflictGraph, d: int, budget: int = 10_000_000) -> tuple[bool, Optional[tuple[int, tuple[int, ...]]]]:
    """Check that no vertex has d pairwise non-adjacent neighbors.

    Opt-in and exponential in d; `budget` caps the number of search nodes.
    Returns (True, None) or (False, (center, talons)).
    """
    if d < 1:
        raise InputError("claw bound d must be >= 1")
    nodes = 0

    def extend(center: int, cands: list[int], chosen: list[int]):
        nonlocal nodes
        if len(chosen) == d:
            return tuple(chosen)
        if len(chosen) + len(cands) < d:
            return None
        for i, v in enumerate(cands):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"claw search exceeded {budget} nodes")
            chosen.append(v)
            rest = [x for x in cands[i + 1:] if not g.has_edge(x, v)]
            found = extend(center, rest, chosen)
            if found is not None:
                return found
            chosen.pop()
        return None

    for c in range(g.n):
        if g.degree(c) < d:
            continue
        witness = extend(c, list(g.adj[c]), [])
        if witness is not None:
            return False, (c, witness)
    return True, None


def verify_solution(g: ConflictGraph, s: Solution) -> bool:
    """True iff members are pairwise non-adjacent and the caches are coherent."""
    for v in s.members:
        if not 0 <= v < g.n:
            return False
    if not g.is_independent(s.members):
        return False
    return s.total_w == g.weight_of(s.members) and s.total_w2 == g.squared_weight_of(s.members)


def validate_improvement(g: ConflictGraph, a: Solution, imp: Improvement) -> bool:
    """Re-check an Improvement against the solution it was found for.

    Requires x independent and disjoint from A, removed = N(x, A), and the
    exponent criterion attached to the improvement's kind (alpha defaults
    to 2 for claw-shaped and circular kinds).
    """
    if not imp.x or (imp.x & a.members):
        return False
    if not g.is_independent(imp.x):
        return False
    if set(imp.removed) != neighborhood(imp.x, a.members, g):
        return False
    if isinstance(imp.kind, Generic):
        from .oracle import power_weight_improves

        return power_weight_improves(g, imp.kind.alpha, imp.x, imp.removed)
    if isinstance(imp.kind, ClawShaped):
        c = imp.kind.center
        if c is None:
            if len(imp.x) != 1 or imp.removed:
                return False
        else:
            if c not in a.members:
                return False
            if any(not g.has_edge(c, x) for x in imp.x):
                return False
    return g.squared_weight_of(imp.x) > g.squared_weight_of(imp.removed)
