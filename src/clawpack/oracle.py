"""Exact maximum-weight independent set and exhaustive improvement search.

Ground truth for approximation ratios on desk-scale instances. Both searches
are complete within their explicit node budgets and deterministic under the
documented tie-breaking. The branch and bound for the maximum-weight
independent set prunes with a clique cover of the remaining vertices,
rebuilt at every node from bitmasks: an independent set takes at most one
vertex of each clique, so the sum of each clique's heaviest weight bounds
what a subtree can add (the colouring bound of bit-parallel maximum-clique
solvers, San Segundo et al. 2011, applied to the complement). A known
independent set can seed its incumbent, which prunes more and returns the
same set. The improvement search, `_first_improvement`, reads
the subsets from `instances.independent_subsets` and N(u, A) from the
solution's one table `Solution.a_nbrs`; it is also the claw search of
`solvers`, run at one center with alpha = 2 and at most d-1 talons. For
an integer alpha every comparison and gain here sums the graph's one
table `ConflictGraph.int_powers(alpha)`, and the search sends
each subset's deficit back into the walk, which then skips the extensions
that cannot gain enough to improve; only a non-integer alpha goes through
mpmath. The claw search charges each talon with its share of the other
members it removes, which also settles most centers before any walk. The
improvement found is the same, only the node count drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .instances import (
    BudgetExceededError,
    ConflictGraph,
    Generic,
    Improvement,
    InputError,
    Solution,
    independent_subsets,
)

DEFAULT_SIZE_LIMIT = 40
DEFAULT_NODE_BUDGET = 100_000_000

# Relative tolerance for w**alpha comparisons with non-integer alpha; ties
# within tolerance count as non-improving.
ALPHA_REL_TOL = Fraction(1, 2 ** 40)
_MP_PREC = 140


@dataclass
class OracleResult:
    best: Solution
    optimum_w: Fraction
    nodes_explored: int
    optimal: bool = True


def exact_mwis(
    g: ConflictGraph,
    budget: int = DEFAULT_NODE_BUDGET,
    size_limit: int = DEFAULT_SIZE_LIMIT,
    incumbent: Optional[Solution] = None,
) -> OracleResult:
    """Branch and bound for the maximum-weight independent set.

    Branches on a remaining vertex of maximum degree (ties to the lowest
    id), include-branch first. At each node the remaining vertices are
    covered by cliques: the heaviest one left (ties to the lowest id) seeds
    a clique, which takes every vertex, heaviest first, that is adjacent to
    all its members so far; the clique leaves, and the next one grows. The
    node is pruned when the current weight plus the seeds' weights does not
    beat the incumbent; since an independent set meets each clique at most
    once, a pruned subtree holds nothing strictly better. Only strict
    improvements replace the incumbent, so the returned set is
    deterministic: the first optimum in DFS order, whatever valid bound
    prunes. Vertex sets are int bitmasks over the vertices relabelled
    heaviest first, so a mask's lowest bit is its heaviest vertex. Weights
    are compared as sums of the integers `g.w_int`, which order exactly as
    the rational weights do; the result reports the optimum as a Fraction.

    `incumbent`, an independent set of `g` (say a local-search final),
    starts the search at its members and at one `w_int` unit below its
    weight. The branch rule reads only the remaining candidates, so the
    tree does not depend on the incumbent, and a subtree holding an
    optimum bounds at OPT, above that floor, so it is never pruned: the
    set returned is the one the unseeded search returns, in no more nodes.
    A budget partial that found nothing above the floor carries the
    incumbent's members. A non-independent incumbent, or a graph of more
    than `size_limit` vertices, is an InputError.
    """
    if g.n > size_limit:
        raise InputError(f"n={g.n} exceeds oracle size limit {size_limit}")

    # the vertices relabelled in `g.weight_order`, so a mask's lowest bit
    # is its heaviest vertex: label r is vertex order[r]
    order, rank = g.weight_order, g.weight_rank
    adj = [sum(1 << rank[u] for u in g.adj[v]) for v in order]
    w = [g.w_int[v] for v in order]
    nodes = 0
    best = 0
    best_w = 0
    if incumbent is not None:
        members = Solution.of(g, incumbent.members).members
        best = sum(1 << rank[v] for v in members)
        best_w = sum(g.w_int[v] for v in members) - 1

    def search(cands: int, cur: int, cur_w: int):
        nonlocal nodes, best, best_w
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"oracle exceeded {budget} nodes",
                partial=_oracle_result(g, order, best, nodes, optimal=False),
            )
        if cur_w > best_w:
            best_w = cur_w
            best = cur
        # cover the candidates with cliques, each grown greedily from the
        # heaviest vertex left; prune unless their heaviest weights beat
        # the incumbent
        bound = cur_w
        m = cands
        while m:
            low = m & -m
            r = low.bit_length() - 1
            bound += w[r]
            if bound > best_w:
                break
            m ^= low
            q = m & adj[r]
            while q:
                low = q & -q
                m ^= low
                q &= adj[low.bit_length() - 1]
        else:
            return
        pick, pick_deg = -1, -1
        m = cands
        while m:
            low = m & -m
            r = low.bit_length() - 1
            deg = (adj[r] & cands).bit_count()
            if deg > pick_deg or deg == pick_deg and order[r] < order[pick]:
                pick, pick_deg = r, deg
            m ^= low
        rest = cands & ~(1 << pick)
        # include pick, then exclude it
        search(rest & ~adj[pick], cur | (1 << pick), cur_w + w[pick])
        search(rest, cur, cur_w)

    search((1 << g.n) - 1, 0, 0)
    return _oracle_result(g, order, best, nodes)


def _oracle_result(g: ConflictGraph, order: Sequence[int], mask: int, nodes: int,
                   optimal: bool = True) -> OracleResult:
    """The result for `mask`, a vertex set in the labelling `order`."""
    best = Solution.of(g, (v for r, v in enumerate(order) if mask >> r & 1))
    return OracleResult(best, best.total_w, nodes, optimal)


def _mp_power_sums(g: ConflictGraph, alpha: Fraction, x: Iterable[int], nx: Iterable[int]):
    """w^alpha(x) and w^alpha(nx) as mpmath floats; call inside
    mpmath.workprec(_MP_PREC)."""
    import mpmath

    af = mpmath.mpf(alpha.numerator) / alpha.denominator

    def term(v):
        w = g.weights[v]
        return mpmath.power(mpmath.mpf(w.numerator) / w.denominator, af)

    return mpmath.fsum(term(v) for v in x), mpmath.fsum(term(v) for v in nx)


def power_weight_improves(g: ConflictGraph, alpha: Fraction, x: Iterable[int], nx: Iterable[int]) -> bool:
    """Decide w^alpha(x) > w^alpha(nx) for a non-integer rational alpha, in
    high-precision floating point with ALPHA_REL_TOL slack, counting ties as
    non-improving. Integer exponents compare sums of `g.int_powers(alpha)`.
    """
    import mpmath  # only non-integer alpha needs it

    with mpmath.workprec(_MP_PREC):
        lhs, rhs = _mp_power_sums(g, Fraction(alpha), x, nx)
        tol = mpmath.mpf(ALPHA_REL_TOL.numerator) / ALPHA_REL_TOL.denominator
        return lhs - rhs > tol * max(abs(lhs), abs(rhs))


def power_weight_gain(g: ConflictGraph, alpha: Fraction, x: Iterable[int], nx: Iterable[int]) -> Fraction:
    """A high-precision rational rendering of w^alpha(x) - w^alpha(nx) for
    a non-integer rational alpha. Integer exponents take the exact gain
    from `Improvement.gain`."""
    import mpmath  # only non-integer alpha needs it

    with mpmath.workprec(_MP_PREC):
        lhs, rhs = _mp_power_sums(g, Fraction(alpha), x, nx)
        return Fraction(lhs - rhs)


def exhaustive_improvement_search(
    a: Solution,
    alpha: Fraction,
    size_cap: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[Improvement]:
    """Complete search for an independent X outside A with w^alpha(X) > w^alpha(N(X,A)).

    Enumerates independent subsets of V minus A of size at most size_cap in
    lexicographic id order and returns the first improving one, or None.
    An improving X containing solution vertices always shrinks to an
    improving X outside A, so restricting the enumeration loses nothing.
    For integer alpha the two sides are compared as sums of the table
    `int_powers(alpha)` of `a`'s graph; other exponents go through
    `power_weight_improves`.
    """
    g = a.g
    alpha = Fraction(alpha)
    p = g.int_powers(alpha)[0] if alpha.denominator == 1 else None
    if size_cap < 1:
        return None
    members = a.members
    outside = [v for v in range(g.n) if v not in members]
    got = _first_improvement(g, a.a_nbrs, outside, size_cap, p, budget, count(1), "improvement search", alpha)
    return None if got is None else Improvement(*got, Generic(alpha))


def _first_improvement(
    g: ConflictGraph, a_nbrs: Sequence[Collection[int]], cands: Sequence[int], cap: int, p: Optional[Sequence[int]],
    budget: int, nodes: Iterator[int], what: str, alpha: Optional[Fraction] = None, center: Optional[int] = None,
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """The first independent X of at most `cap` of the outside vertices
    `cands` (in id order), in lexicographic order, that beats N(X, A), as
    (X, N(X, A)); or None.

    `a_nbrs[u]` is N(u, A) for every vertex u: the solution's table
    `Solution.a_nbrs`. X beats N(X, A) in sums of the integers `p`, all
    positive, or, with `p` None, by `power_weight_improves` at `alpha`.
    The subsets come from `independent_subsets`; each one draws from
    `nodes`, a counter from 1 that calls under one budget share; a draw
    past `budget` raises "<what> exceeded <budget> nodes". Per depth k the
    walk keeps the sums of X and of N(X, A) and N(X, A) itself, each
    extending depth k-1's.

    With `p`, each non-improving X sends a deficit back into the walk,
    which lists only the extensions that could still cover it (with one
    pick left, only the candidates whose weight alone exceeds it). Without
    `center` (the w**alpha search, where no member is next to every
    candidate) the weights are `p` and the deficit is p(N(X, A)) - p(X):
    every vertex added only grows N(X, A). With `center` c, a member of A
    next to every candidate (the claw search), each candidate u is charged
    its share of the members it would remove besides c: with m(a) the
    smaller of `cap` and the number of candidates next to a,

        q(u) = p(u) - sum of p(a) // m(a) over a in N(u, A) - {c}.

    A set Y of at most `cap` candidates meets each such a at most m(a)
    times, so p(Y) - p(N(Y, A)) <= q(Y) - p(c), and Y improves only if
    q(Y) > p(c). The walk's weights are then max(q, 0) and the deficit
    sent after X is p(c) - q(X). The center is settled before any walk
    starts when the `cap` largest positive q sum to at most p(c). Either
    way no skipped subset improves, so the X returned is the one an
    unbounded walk returns; only the node count, and so where `budget`
    fires, is smaller. The float path sends nothing and walks every
    subset.
    """
    walk_p, q, base = p, None, None
    if center is not None:
        delta: dict[int, int] = {}  # a -> the number of candidates next to a
        for u in cands:
            for a in a_nbrs[u]:
                delta[a] = delta.get(a, 0) + 1
        q, walk_p, base = {}, {}, p[center]
        for u in cands:
            x = p[u]
            for a in a_nbrs[u]:
                if a != center:
                    m = delta[a]
                    x -= p[a] if m == 1 else p[a] // min(m, cap)
            q[u] = x
            walk_p[u] = x if x > 0 else 0
        if sum(sorted(walk_p.values())[-cap:]) <= base:
            return None
    x_p = [0] * (cap + 1)
    x_q = [0] * (cap + 1)
    r_p = [0] * (cap + 1)
    removed: list[frozenset[int]] = [frozenset()] * (cap + 1)
    walk = independent_subsets(g, cands, cap, walk_p)
    deficit = None
    while True:
        try:
            x = walk.send(deficit)
        except StopIteration:
            return None
        if next(nodes) > budget:
            raise BudgetExceededError(f"{what} exceeded {budget} nodes")
        k = len(x)
        v = x[-1]
        nv = a_nbrs[v]
        prev = removed[k - 1]
        removed[k] = nx = prev.union(nv)
        if p is not None:
            x_p[k] = x_p[k - 1] + p[v]
            r = r_p[k - 1]
            if len(nx) > len(prev):
                for u in nv:
                    if u not in prev:
                        r += p[u]
            r_p[k] = r
            improves = r < x_p[k]
            if q is None:
                deficit = r - x_p[k]
            else:
                x_q[k] = x_q[k - 1] + q[v]
                deficit = base - x_q[k]
        else:
            improves = power_weight_improves(g, alpha, x, nx)
        if improves:
            return frozenset(x), nx
