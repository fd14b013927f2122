"""Exact maximum-weight independent set and exhaustive improvement search.

Ground truth for approximation ratios on desk-scale instances. Both searches
are complete within their explicit node budgets and deterministic under the
documented tie-breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import mpmath

from .instances import (
    BudgetExceededError,
    ConflictGraph,
    Generic,
    Improvement,
    InputError,
    Solution,
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
) -> OracleResult:
    """Branch and bound for the maximum-weight independent set.

    Branches on a remaining vertex of maximum degree (ties to the lowest
    id), include-branch first; the bound adds all remaining weights. Only
    strict improvements replace the incumbent, so the returned set is
    deterministic. Vertex sets are int bitmasks and weights are compared as
    sums of the integers `g.w_int`, which order exactly as the rational
    weights do; the result reports the optimum as a Fraction.
    """
    if g.n > size_limit:
        raise InputError(f"n={g.n} exceeds oracle size limit {size_limit}; pass a larger size_limit")

    w = g.w_int
    adj = [sum(1 << u for u in nbrs) for nbrs in g.adj]
    nodes = 0
    best = 0
    best_w = 0

    def search(cands: int, cand_w: int, cur: int, cur_w: int):
        nonlocal nodes, best, best_w
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"oracle exceeded {budget} nodes",
                partial=_oracle_result(g, best, nodes, optimal=False),
            )
        if cur_w > best_w:
            best_w = cur_w
            best = cur
        if not cands or cur_w + cand_w <= best_w:
            return
        pick, pick_deg = -1, -1
        m = cands
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = (adj[v] & cands).bit_count()
            if deg > pick_deg:
                pick, pick_deg = v, deg
            m ^= low
        rest = cands & ~(1 << pick)
        nbrs = adj[pick] & rest
        nbrs_w = 0
        while nbrs:
            low = nbrs & -nbrs
            nbrs_w += w[low.bit_length() - 1]
            nbrs ^= low
        # include pick, then exclude it
        search(rest & ~adj[pick], cand_w - w[pick] - nbrs_w, cur | (1 << pick), cur_w + w[pick])
        search(rest, cand_w - w[pick], cur, cur_w)

    search((1 << g.n) - 1, sum(w), 0, 0)
    return _oracle_result(g, best, nodes)


def _oracle_result(g: ConflictGraph, mask: int, nodes: int, optimal: bool = True) -> OracleResult:
    best = Solution.of(g, (v for v in range(g.n) if mask >> v & 1))
    return OracleResult(best, best.total_w, nodes, optimal)


def _int_powers(w_int: Sequence[int], k: int) -> list[int]:
    """x**k for each x, scaled by one positive constant to integers.

    For k < 0 that constant is M, the lcm of the x**-k, and the entries are
    M // x**-k. Sums of the entries order exactly as the sums of the
    rational powers of the weights do when w_int is the weights times one
    positive constant.
    """
    if k > 0:
        return [x ** k for x in w_int]
    q = [x ** -k for x in w_int]
    big = math.lcm(*q)
    return [big // y for y in q]


def _mp_power_sums(g: ConflictGraph, alpha: Fraction, x: Iterable[int], nx: Iterable[int]):
    """w^alpha(x) and w^alpha(nx) as mpmath floats; call inside
    mpmath.workprec(_MP_PREC)."""
    af = mpmath.mpf(alpha.numerator) / alpha.denominator

    def term(v):
        w = g.weights[v]
        return mpmath.power(mpmath.mpf(w.numerator) / w.denominator, af)

    return mpmath.fsum(term(v) for v in x), mpmath.fsum(term(v) for v in nx)


def power_weight_improves(g: ConflictGraph, alpha: Fraction, x: Iterable[int], nx: Iterable[int]) -> bool:
    """Decide w^alpha(x) > w^alpha(nx).

    Exact for integer alpha; non-integer rational exponents are compared in
    high-precision floating point with ALPHA_REL_TOL slack, counting ties as
    non-improving.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise InputError("alpha=0 is rejected; use unit weights explicitly instead")
    if alpha.denominator == 1:
        xs, nxs = list(x), list(nx)
        p = _int_powers([g.w_int[v] for v in xs + nxs], alpha.numerator)
        return sum(p[: len(xs)]) > sum(p[len(xs):])
    with mpmath.workprec(_MP_PREC):
        lhs, rhs = _mp_power_sums(g, alpha, x, nx)
        tol = mpmath.mpf(ALPHA_REL_TOL.numerator) / ALPHA_REL_TOL.denominator
        return lhs - rhs > tol * max(abs(lhs), abs(rhs))


def power_weight_gain(g: ConflictGraph, alpha: Fraction, x: Iterable[int], nx: Iterable[int]) -> Fraction:
    """w^alpha(x) - w^alpha(nx) as an exact rational for integer alpha, or a
    high-precision rational rendering of the difference otherwise."""
    alpha = Fraction(alpha)
    if alpha.denominator == 1:
        a = alpha.numerator
        return sum((g.weights[v] ** a for v in x), Fraction(0)) - sum(
            (g.weights[v] ** a for v in nx), Fraction(0)
        )
    with mpmath.workprec(_MP_PREC):
        lhs, rhs = _mp_power_sums(g, alpha, x, nx)
        return Fraction(lhs - rhs)


def exhaustive_improvement_search(
    g: ConflictGraph,
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
    For integer alpha the two sides are compared as sums of integer powers
    of `g.w_int` (see `_int_powers`); other exponents go through
    `power_weight_improves`.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise InputError("alpha=0 is rejected; use unit weights explicitly instead")
    if size_cap < 1:
        return None
    members = a.members
    p = _int_powers(g.w_int, alpha.numerator) if alpha.denominator == 1 else None
    nodes = 0

    def extend(cands: list[int], chosen: list[int], removed: set[int], x_p: int, r_p: int) -> Optional[Improvement]:
        # cands: the outside vertices after the last chosen one that are
        # adjacent to none of the chosen, in id order
        nonlocal nodes
        for i, v in enumerate(cands):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"improvement search exceeded {budget} nodes")
            nbrs = g.adj_sets[v]
            new_removed = (nbrs & members) - removed
            chosen.append(v)
            removed |= new_removed
            if p is not None:
                nx_p = x_p + p[v]
                nr_p = r_p + sum(p[u] for u in new_removed)
                improves = nx_p > nr_p
            else:
                nx_p = nr_p = 0
                improves = power_weight_improves(g, alpha, chosen, removed)
            if improves:
                return Improvement(frozenset(chosen), frozenset(removed), Generic(alpha))
            if len(chosen) < size_cap:
                found = extend([u for u in cands[i + 1:] if u not in nbrs], chosen, removed, nx_p, nr_p)
                if found is not None:
                    return found
            removed -= new_removed
            chosen.pop()
        return None

    return extend([v for v in range(g.n) if v not in members], [], set(), 0, 0)
