"""Core data model: packing instances, conflict graphs, solutions, improvements.

Weights are exact rationals throughout, and every comparison the solvers make
is exact: either between Fractions or between sums of the integer-scaled
weights `ConflictGraph.w_int` or of their powers, one table per exponent
(`ConflictGraph.int_powers`), and ordered by one weight order per graph.
A solution is a member set over one graph; its weight is summed from the
graph when read, and it keeps the package's one table of N(u, A), heaviest
first, built on first read and updated by each swap. `independent_subsets`
is the package's one walk over the bounded independent subsets of a
candidate list.

Each input check is made once, at one layer. `PackingInstance.build` checks
that no set repeats an element and coerces the weights (`as_fraction`).
`PackingInstance` checks each set's size and range, the range by the set's
min and max (its elements are walked only to name the one out of range),
and its weights. `ConflictGraph` checks its weights and, in one O(n + m)
pass, that every adjacency list is in range, loop-free, sorted and
duplicate-free; the same pass collects the transposed lists, and the graph
is symmetric iff they equal the adjacency. A weight must be a positive int
or Fraction (not a bool); positivity is read from its numerator.
`build_conflict_graph` builds each sorted adjacency list straight from the
sets' element buckets, and the graph's own checks run on the result.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Generator, Iterable, Mapping, Optional, Sequence


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
    """Coerce ints, strings like '3/4', and Fractions to Fraction; a float
    or a bool is an InputError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise InputError(_not_rational(x))
    return Fraction(x)


def _not_rational(x) -> str:
    return f"weights must be exact rationals, got {type(x).__name__} {x!r}"


def _first_non_positive(weights: Sequence) -> Optional[int]:
    """The index of the first weight <= 0, or None. A weight that is not an
    int or a Fraction, or is a bool, is an InputError in `as_fraction`'s
    words."""
    for i, w in enumerate(weights):
        if type(w) is not Fraction and (isinstance(w, bool) or not isinstance(w, (int, Fraction))):
            raise InputError(_not_rational(w))
        if w.numerator <= 0:
            return i
    return None


def fmt_fraction(x: Fraction) -> str:
    """The wire form of an exact rational: "num/den", also for integers."""
    return f"{x.numerator}/{x.denominator}"


def fmt_ratio(num: int, den: int) -> str:
    """`fmt_fraction(Fraction(num, den))` for den > 0, with one gcd and no
    Fraction."""
    c = math.gcd(num, den)
    return f"{num // c}/{den // c}"


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
        k, universe = self.k, self.universe_size
        for i, s in enumerate(self.sets):
            if not 1 <= len(s) <= k:
                raise InputError(f"set {i} has {len(s)} elements, want 1..{k}")
            if min(s) < 0 or max(s) >= universe:
                e = next(e for e in s if not 0 <= e < universe)
                raise InputError(f"set {i} contains out-of-range element {e}")
        i = _first_non_positive(self.weights)
        if i is not None:
            raise InputError(f"set {i} has non-positive weight {self.weights[i]}")

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
    _power_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n, adj = self.n, self.adj
        if len(adj) != n or len(self.weights) != n:
            raise InputError("adjacency/weights length must equal n")
        if _first_non_positive(self.weights) is not None:
            raise InputError("weights must be strictly positive")
        # one pass checks range, loops and order, and collects the transpose
        transposed: list[list[int]] = [[] for _ in range(n)]
        for u, nbrs in enumerate(adj):
            last = -1
            for v in nbrs:
                if not 0 <= v < n:
                    raise InputError(f"vertex {u} has out-of-range neighbor {v}")
                if v == u:
                    raise InputError(f"loop at vertex {u}")
                if v <= last:
                    raise InputError(f"adjacency of {u} not sorted/duplicate-free")
                last = v
                transposed[v].append(u)
        if list(map(tuple, transposed)) != list(map(tuple, adj)):
            u, v = next((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u not in adj[v])
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
    def w_lcm(self) -> int:
        """L, the lcm of the weight denominators (1 for an empty graph)."""
        return math.lcm(*(w.denominator for w in self.weights))

    @cached_property
    def w_int(self) -> tuple[int, ...]:
        """Weights times `w_lcm`.

        Every entry is an integer, and sums of them order exactly as the
        Fraction sums of the weights do; a sum over L is the Fraction sum.
        Built on first use.
        """
        lcm = self.w_lcm
        return tuple(w.numerator * (lcm // w.denominator) for w in self.weights)

    def int_powers(self, k: int) -> tuple[tuple[int, ...], int]:
        """(p, den) with w(v)**k = p[v] / den for every vertex v, for a
        non-zero integer k; every entry is a positive integer, so sums of
        `p` order exactly as the sums of the k-th powers of the weights do.
        For k > 0, p is `w_int`**k and den is L**k; for k < 0, den is M,
        the lcm of the `w_int`**-k, and p[v] = L**-k * M // w_int[v]**-k.
        Built once per exponent, on first use."""
        table = self._power_tables.get(k)
        if table is None:
            if k == 0:
                raise InputError("alpha=0 is rejected; use unit weights explicitly instead")
            if Fraction(k).denominator != 1:
                raise InputError(f"no integer power table for the exponent {k}")
            k = int(k)
            if k > 0:
                table = tuple(x ** k for x in self.w_int), self.w_lcm ** k
            else:
                q = [x ** -k for x in self.w_int]
                den = math.lcm(*q)
                scale = self.w_lcm ** -k * den
                table = tuple(scale // y for y in q), den
            self._power_tables[k] = table
        return table

    @cached_property
    def w2_int(self) -> tuple[int, ...]:
        """The squares of `w_int`: the k = 2 table of `int_powers`."""
        return self.int_powers(2)[0]

    @cached_property
    def weight_order(self) -> tuple[int, ...]:
        """The vertices by (-w, id): heaviest first, ties to the lowest id,
        as a reverse sort is stable. The greedy pick order, the oracle's
        labels and the order of every `Solution.a_nbrs` list."""
        return tuple(sorted(range(self.n), key=self.w_int.__getitem__, reverse=True))

    @cached_property
    def weight_rank(self) -> tuple[int, ...]:
        """The position of every vertex in `weight_order`: its inverse,
        whose entries are the order's own ints, so the two share them."""
        order = self.weight_order
        return tuple(sorted(order, key=order.__getitem__))

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

    def reweighted(self, weights) -> "ConflictGraph":
        return ConflictGraph(self.n, self.adj, tuple(as_fraction(w) for w in weights), self.d)


class Solution:
    """An independent vertex set of one graph: the graph, the member set
    and, once read, the table `a_nbrs` of N(u, A).

    Mutable and confined to a single solver run; the graph is shared
    read-only. The weight is read from the graph, not kept. `a_nbrs[u]` is
    N(u, A) for every vertex u (empty for a member, as A is independent),
    as a list in the graph's `weight_order`: u's anchor, its heaviest
    solution neighbor, is `a_nbrs[u][0]`, and its second `a_nbrs[u][1]`.
    Built on first read and kept current by `apply`, it is the package's
    one N(u, A): every search and the certificate read it.
    """

    __slots__ = ("g", "members", "_a_nbrs")

    def __init__(self, g: ConflictGraph, members: set[int]):
        self.g = g
        self.members = members
        self._a_nbrs: Optional[list[list[int]]] = None

    @staticmethod
    def of(g: ConflictGraph, members: Iterable[int]) -> "Solution":
        ms = set(members)
        for v in ms:
            if not 0 <= v < g.n:
                raise InputError(f"member id {v} out of range")
        if not g.is_independent(ms):
            raise InputError("members are not independent")
        return Solution(g, ms)

    @property
    def total_w(self) -> Fraction:
        """w(A), summed as the integers `g.w_int` over L."""
        w = self.g.w_int
        return Fraction(sum(w[v] for v in self.members), self.g.w_lcm)

    @property
    def a_nbrs(self) -> list[list[int]]:
        """N(u, A) by vertex u; see the class docstring."""
        table = self._a_nbrs
        if table is None:
            g, members = self.g, self.members
            table = self._a_nbrs = [[] for _ in range(g.n)]
            for v in g.weight_order:
                if v in members:
                    for u in g.adj[v]:
                        table[u].append(v)
        return table

    def apply(self, imp: "Improvement") -> None:
        """Swap imp.x in and imp.removed = N(x, A) out. A built `a_nbrs`
        changes only at N(x), which gains x at its rank, and at N(removed),
        which loses removed; so x's own entries empty out, and a removed
        vertex's fill with its neighbors in x, its only ones in the new A."""
        self.members -= imp.removed
        self.members |= imp.x
        table = self._a_nbrs
        if table is not None:
            adj, rank = self.g.adj, self.g.weight_rank.__getitem__
            for v in imp.x:
                for u in adj[v]:
                    insort(table[u], v, key=rank)
            for r in imp.removed:
                for v in adj[r]:
                    table[v].remove(r)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Solution({sorted(self.members)}, w={self.total_w})"


@dataclass(frozen=True)
class ClawShaped:
    """Talon set of a claw centered in the current solution.

    center is None exactly for free vertices, each the talon of a 0-claw:
    the claw search inserts an independent set of them in one step.
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

    def gain(self, g: ConflictGraph) -> tuple[int, int]:
        """w^k(x) - w^k(removed) as (num, den), den > 0, summed from the
        table `g.int_powers(k)`; k is 2 for claw-shaped and circular swaps
        and `Generic.alpha`, which must be an integer, otherwise."""
        p, den = g.int_powers(self.kind.alpha if isinstance(self.kind, Generic) else 2)
        return sum(p[v] for v in self.x) - sum(p[v] for v in self.removed), den

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
    own neighbor. Only u_set indexes the graph, so only it is range-checked.
    """
    us = set(u_set)
    if us:
        lo, hi = min(us), max(us)
        if lo < 0 or hi >= g.n:
            raise InputError(f"vertex id {lo if lo < 0 else hi} out of range")
    reach = set(us)
    for u in us:
        reach.update(g.adj[u])
    return reach.intersection(w_set)


def build_conflict_graph(inst: PackingInstance) -> ConflictGraph:
    """Conflict graph: vertex i per set i, edges between intersecting sets."""
    buckets: dict[int, list[int]] = {}
    for i, s in enumerate(inst.sets):
        for e in s:
            if e in buckets:
                buckets[e].append(i)
            else:
                buckets[e] = [i]
    adj = []
    for i, s in enumerate(inst.sets):
        nbrs = set().union(*map(buckets.__getitem__, s))
        nbrs.discard(i)
        adj.append(tuple(sorted(nbrs)))
    return ConflictGraph(inst.n, tuple(adj), inst.weights, d=inst.k + 1)


def independent_subsets(
    g: ConflictGraph,
    cands: Sequence[int],
    cap: int,
    p: Optional[Mapping[int, int] | Sequence[int]] = None,
) -> Generator[tuple[int, ...], Optional[int], None]:
    """Each independent subset of 1..`cap` vertices of `cands`, in
    lexicographic order of positions in `cands`, except the extensions a
    reader refuses.

    The one subset walk of the package: the claw search and the w**alpha
    search (`oracle._first_improvement`) and the aux graph's companion
    sets read it, as does the tests' claw-freeness check. A subset's
    extensions come from the candidates after its last pick that are
    adjacent to none of its picks; they are listed when the walk resumes
    past that subset, so a reader that stops there pays for no more.

    A reader holding non-negative integers `p` (by vertex) may send back,
    after a subset X, a deficit D that p(Y - X) must exceed for any
    superset Y of X it would stop at. With one pick left (|X| = cap - 1)
    the walk lists only the extension candidates u with p(u) > D, since
    Y = X + {u} has p(Y - X) = p(u); with more room it skips every
    extension of X when the cap - |X| largest `p` among X's extension
    candidates sum to at most D. Either way the first subset a reader
    stops at stays the same. The empty subset's extensions, all of
    `cands`, are listed in full; a reader that sends nothing (a plain
    `for` loop, or `send(None)`) walks every subset.
    """
    adj_sets = g.adj_sets
    stack = [(cands, 0, ())] if cap >= 1 and cands else []
    while stack:
        level, i, chosen = stack[-1]
        if i == len(level):
            stack.pop()
            continue
        stack[-1] = (level, i + 1, chosen)
        v = level[i]
        y = chosen + (v,)
        deficit = yield y
        room = cap - len(y)
        if room:
            nbrs = adj_sets[v]
            if room == 1 and deficit is not None:
                # one pick left: only a u whose p alone exceeds D, in one pass
                ext = [u for u in level[i + 1:] if u not in nbrs and p[u] > deficit]
            else:
                ext = [u for u in level[i + 1:] if u not in nbrs]
                if deficit is not None:
                    # more room: the `room` largest p among them must exceed D
                    top = [p[u] for u in ext]
                    if len(top) > room:
                        top = sorted(top)[-room:]
                    if sum(top) <= deficit:
                        ext = ()
            if ext:
                stack.append((ext, 0, y))


def verify_solution(g: ConflictGraph, s: Solution) -> bool:
    """True iff every member is a vertex of g and no two are adjacent."""
    for v in s.members:
        if not 0 <= v < g.n:
            return False
    return g.is_independent(s.members)


def validate_improvement(g: ConflictGraph, a: Solution, imp: Improvement) -> bool:
    """Re-check an Improvement against the solution it was found for.

    Requires x independent and disjoint from A, removed = N(x, A), and a
    positive gain in the exponent of the improvement's kind (2 for
    claw-shaped and circular kinds): `Improvement.gain` for an integer
    exponent, `power_weight_improves` for a non-integer alpha.
    `circular.validate_circular` calls it for every circular candidate and
    adds the cycle checks.
    """
    if not imp.x or (imp.x & a.members):
        return False
    if not g.is_independent(imp.x):
        return False
    if set(imp.removed) != neighborhood(imp.x, a.members, g):
        return False
    if isinstance(imp.kind, Generic) and imp.kind.alpha.denominator != 1:
        from .oracle import power_weight_improves

        return power_weight_improves(g, imp.kind.alpha, imp.x, imp.removed)
    if isinstance(imp.kind, ClawShaped):
        c = imp.kind.center
        if c is None:
            if imp.removed:
                return False
        else:
            if c not in a.members:
                return False
            if any(not g.has_edge(c, x) for x in imp.x):
                return False
    return imp.gain(g)[0] > 0
