"""Local-search solvers: greedy, squared-weight claw search, the cycle-extended
variant, the parametrized w**alpha search, and the scaling/truncation wrapper.

Every applied improvement strictly increases w^2(A) (or w^alpha(A) in
parametrized mode) in exact arithmetic; fixed points certify that no
improvement of the searched shape remains. The claw search and the w**alpha
search run the same improvement search from `oracle` over the subsets of
`instances.independent_subsets`: the claw search at one center at a time,
over its outside neighbors, with alpha = 2 and at most d-1 talons.

A 0-claw, one free vertex joining A, frees nothing and reopens no center,
so the claw search takes every free vertex at once: one step inserts them
lowest id first, skipping those an earlier pick blocked, which is the
sequence one 0-claw per step applies. The run still records one size-1
claw-shaped swap per vertex, and each search state sees the step as one
swap with nothing removed. The run's solution keeps N(u, A) for every
vertex (`Solution.a_nbrs`), each list heaviest first, and changes it only
around each swap; the claw search, the circular search's anchors (each
list's first two entries) and the w**alpha search all read that one table.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Iterable, Optional, Sequence

from .circular import (
    CircularState,
    ColorCodingParams,
    build_anchor_maps,
    find_circular_improvement,
)
from .instances import (
    BudgetExceededError,
    ClawShaped,
    ConflictGraph,
    ContractError,
    Generic,
    Improvement,
    InputError,
    PackingInstance,
    Solution,
    fmt_fraction,
    fmt_ratio,
)
from .oracle import _first_improvement, exhaustive_improvement_search, power_weight_gain

MODES = ("greedy", "squareimp", "logimp", "parametrized")


@dataclass
class SolverConfig:
    mode: str = "squareimp"
    alpha: Optional[Fraction] = None
    size_cap_factor: Fraction = Fraction(4)
    scaling_n: Optional[Fraction] = None
    rng_seed: int = 0
    circular: Optional[ColorCodingParams] = None
    d: Optional[int] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.scaling_n is not None:
            self.scaling_n = Fraction(self.scaling_n)
            if self.scaling_n <= 1:
                raise InputError("scaling constant must exceed 1")
        self.size_cap_factor = Fraction(self.size_cap_factor)
        if self.size_cap_factor <= 0:
            raise InputError("size cap factor must be positive")
        if self.alpha is not None:
            self.alpha = Fraction(self.alpha)
        if self.mode == "parametrized":
            if self.alpha is None:
                raise InputError("parametrized mode needs alpha")
            if self.alpha == 0:
                raise InputError("alpha=0 is rejected; use unit weights explicitly instead")


@dataclass(slots=True)
class ImprovementRecord:
    """One applied swap: its shape, |X|, and the gain in the objective the
    run optimizes (w^2 for claw-shaped/circular swaps, w^alpha for the
    parametrized search; the wire field name stays delta_w2).

    The gain is the exact rational delta_w2 / den, kept as two integers
    with den > 0, not necessarily in lowest terms: `Improvement.gain` for
    an integer exponent, so such a swap builds no Fraction, and the
    `power_weight_gain` Fraction for a non-integer alpha. delta_w2 has the
    gain's sign; the trace writes the reduced ratio. Slotted, as a run
    keeps one record per free vertex it inserts."""

    kind: str
    size: int
    delta_w2: int
    den: int


@dataclass
class RunTrace:
    improvements: list[ImprovementRecord]
    final: Solution
    notes: tuple[str, ...] = ()
    iteration_bound: Optional[Fraction] = None

    @property
    def iterations(self) -> int:
        return len(self.improvements)

    @property
    def scaled(self) -> bool:
        return self.iteration_bound is not None

    def to_json_obj(self) -> dict:
        return {
            "iterations": self.iterations,
            "improvements": [
                {"kind": r.kind, "size": r.size, "delta_w2": fmt_ratio(r.delta_w2, r.den)}
                for r in self.improvements
            ],
            "final_members": sorted(self.final.members),
            "final_weight": fmt_fraction(self.final.total_w),
        }


def _resolve_d(g: ConflictGraph, cfg_d: Optional[int]) -> int:
    d = cfg_d if cfg_d is not None else g.d
    if d is None:
        raise InputError("claw bound d is needed; set it on the graph or the config")
    if d < 2:
        raise InputError("claw bound d must be >= 2")
    return d


def _greedy_pass(g: ConflictGraph, order: Iterable[int]) -> list[int]:
    """The vertices of `order`, in order, that no earlier pick is next to:
    each one taken blocks its neighbors. The picks are independent."""
    picked: list[int] = []
    blocked: set[int] = set()
    for v in order:
        if v not in blocked:
            picked.append(v)
            blocked.update(g.adj[v])
    return picked


def greedy(g: ConflictGraph) -> Solution:
    """Pick the maximum-weight remaining vertex (ties to the lowest id) and
    delete its closed neighborhood, until nothing remains.

    One pass over `g.weight_order` takes each vertex none of whose
    neighbors was taken before it, which picks the same set.
    """
    return Solution(g, set(_greedy_pass(g, g.weight_order)))


# Talon-search nodes per claw call, counted across its centers.
_MAX_CLAW_NODES = 50_000_000


class ClawSearchState:
    """The claw search's inputs and what it keeps between calls, for one run
    at claw bound `d` and its evolving solution `a` (A).

    `max_talons` is d - 1. The search reads N(u, A) from `a.a_nbrs`, which
    `Solution.apply` keeps current. `free` is the set of vertices outside A
    with no neighbor in A, those with an empty `a_nbrs` entry: each is the
    talon of an improving 0-claw. `settled` holds centers in A known to
    have no improving talon set. The search reads both and adds to
    `settled`; `update` keeps them valid after each applied swap, touching
    only N(x) and N(removed). A heap holds every unsettled center (and
    stale entries, dropped when they surface), so the lowest id is found
    without a scan or a sort. A state built `at_fixed_point`, for an A the
    claw search has finished on, starts with every member settled and no
    vertex free, as the finished search left them.
    """

    __slots__ = ("a", "max_talons", "free", "settled", "_center_heap")

    def __init__(self, a: Solution, d: int, at_fixed_point: bool = False):
        self.a = a
        self.max_talons = d - 1
        members = a.members
        if at_fixed_point:
            self.free, self.settled, self._center_heap = set(), set(members), []
        else:
            a_nbrs = a.a_nbrs
            self.free = {v for v in range(a.g.n) if not a_nbrs[v] and v not in members}
            self.settled = set()
            self._center_heap = sorted(members)

    def lowest_open_center(self) -> Optional[int]:
        """The lowest-id center in A that is not settled, or None."""
        heap, settled, members = self._center_heap, self.settled, self.a.members
        while heap and (heap[0] in settled or heap[0] not in members):
            heapq.heappop(heap)
        return heap[0] if heap else None

    def update(self, imp: Improvement) -> None:
        """Account for `imp`, already applied to A and so to `a.a_nbrs`.

        Every vertex of x | N(x) is now in A or next to it. A vertex becomes
        free only when its last solution neighbor left, so only N(removed)
        is re-tested. A vertex joining A only enlarges N(T, A) for every
        talon set T, and takes no candidate talon N(c) - A from a center c
        that stays in A; so only a removed vertex within two steps of c (a
        new candidate, or a member that left N(T, A)) can open c. Settled
        centers lie in A, which is independent, so none is a neighbor of a
        removed vertex: the removed vertices leave `settled`, one walk over
        N(removed) re-tests each vertex for freedom and reopens every
        settled center next to it, and the new members x start unsettled.
        """
        members, a_nbrs = self.a.members, self.a.a_nbrs
        free, adj = self.free, self.a.g.adj
        for v in imp.x:
            free.discard(v)
            free.difference_update(adj[v])
        if not free:
            free.clear()  # drop the table it grew to, which `sorted` would walk
        settled, heap = self.settled, self._center_heap
        settled.difference_update(imp.removed)
        for c in imp.x:
            heapq.heappush(heap, c)
        for s in imp.removed:
            for v in adj[s]:
                if not a_nbrs[v] and v not in members:
                    free.add(v)
                if not settled.isdisjoint(adj[v]):
                    for c in settled.intersection(adj[v]):
                        settled.remove(c)
                        heapq.heappush(heap, c)


def find_claw_improvement(state: ClawSearchState) -> Optional[Improvement]:
    """First claw-shaped improvement of w^2(A) under deterministic order, or
    None, for the run whose `ClawSearchState` is `state`.

    Free vertices come first: every one is the talon of an improving 0-claw,
    and a step inserts all of them, lowest id first, skipping any vertex an
    earlier pick is next to (center None, nothing removed). Inserting a free
    vertex frees nothing and opens no center, so this is the sequence of
    lowest-id 0-claws that one swap per call would apply. With no free
    vertex, for each unsettled center in A in ascending id order, the
    shared improvement search of `oracle` over the center's neighbors, all
    outside A: independent sets of at most `state.max_talons` talons in
    lexicographic order, squared weights compared as the integers
    `w2_int` of A's graph, which order exactly as the rationals do, and
    N(u, A) read from the solution's table `a.a_nbrs`. A center searched
    without success is settled. The result is that of a search from
    scratch.

    The talon walk is bounded by charged weights (see
    `_first_improvement`), all in the integers `g.w2_int`. At center c,
    each member a != c next to some candidate talon is shared out among
    the m(a) = min(delta(a), d-1) talons that can meet it, delta(a) being
    the number of candidates next to a, and each talon u is charged
    q(u) = w2(u) minus its shares floor(w2(a) / m(a)). A set Y of at most
    d-1 talons meets a at most m(a) times, so
    w2(Y) - w2(N(Y, A)) <= q(Y) - w2(c): Y improves only if q(Y) > w2(c).
    A center whose d-1 largest positive q sum to at most w2(c) is settled
    without a walk; otherwise the walk skips a talon set X's extensions
    once the largest positive q that could still join X sum to at most
    w2(c) - q(X), and with one talon left tries only the talons whose
    positive q alone exceeds it. No skipped set improves, so this changes
    node counts only. `_MAX_CLAW_NODES` caps the talon-search nodes of
    this call, counted across its centers. For a hit, removed =
    N(talons) & A.
    """
    g = state.a.g
    if state.free:
        return Improvement(frozenset(_greedy_pass(g, sorted(state.free))), frozenset(), ClawShaped(center=None))

    cap, a_nbrs = state.max_talons, state.a.a_nbrs
    nodes = count(1)
    while (c := state.lowest_open_center()) is not None:
        got = _first_improvement(g, a_nbrs, g.adj[c], cap, g.w2_int, _MAX_CLAW_NODES, nodes, "claw search", center=c)
        if got is not None:
            return Improvement(*got, ClawShaped(center=c))
        state.settled.add(c)
    return None


def _loop(
    a: Solution,
    step: Callable[[], Optional[Improvement]],
    states: Sequence[ClawSearchState | CircularState] = (),
    keep_partial_on_budget: bool = False,
) -> RunTrace:
    """Apply step's improvements to `a` until it returns None.

    The loop applies each swap once, which also updates A's N(u, A)
    table, and then hands it to every search state in `states`
    (`update(imp)`), so what a search keeps between calls follows A
    without looking at A again. Each swap's gain is checked and
    recorded as an integer over a denominator (see `ImprovementRecord`). A
    step of free vertices (claw-shaped, center None) is recorded as one
    size-1 swap per vertex, in id order, gaining its `w2_int` over L^2;
    weights are positive, so each gains.
    """
    g = a.g
    records: list[ImprovementRecord] = []
    notes: tuple[str, ...] = ()
    while True:
        try:
            imp = step()
        except BudgetExceededError as exc:
            if not keep_partial_on_budget:
                raise
            notes = (f"aborted on budget: {exc}",)
            break
        if imp is None:
            break
        if isinstance(imp.kind, ClawShaped) and imp.kind.center is None:
            w2, den = g.int_powers(2)
            new = [ImprovementRecord("claw-shaped", 1, w2[v], den) for v in sorted(imp.x)]
        else:
            if isinstance(imp.kind, Generic) and imp.kind.alpha.denominator != 1:
                delta, den = power_weight_gain(g, imp.kind.alpha, imp.x, imp.removed).as_integer_ratio()
            else:
                delta, den = imp.gain(g)
            if delta <= 0:
                raise RuntimeError(f"non-improving step {imp!r}")
            new = [ImprovementRecord(imp.kind_name(), imp.size, delta, den)]
        a.apply(imp)
        for state in states:
            state.update(imp)
        records += new
    return RunTrace(records, a, notes=notes)


def squareimp(g: ConflictGraph, cfg: SolverConfig, start: Optional[Solution] = None) -> RunTrace:
    """Iterate the claw search to a fixed point, starting from the empty set
    (or an injected start solution, used to reproduce tight instances; the
    run's solution is its members over `g`)."""
    d = _resolve_d(g, cfg.d)
    a = Solution.of(g, start.members if start else ())
    claw = ClawSearchState(a, d)
    return _loop(a, lambda: find_claw_improvement(claw), [claw])


def logimp(
    g: ConflictGraph,
    cfg: SolverConfig,
    start: Optional[Solution] = None,
    inst: Optional[PackingInstance] = None,
    claw_run: Optional[RunTrace] = None,
) -> RunTrace:
    """The squareimp run, then, from its claw fixed point, circular
    improvements and claw improvements until neither kind exists.

    `claw_run` is that squareimp run (from `start`, which is then not
    read), made by the caller; without it, it is made here. The cycle phase
    continues on a copy of its final, so the run it continues keeps its
    final and its records, which come first in the trace. At a claw fixed
    point every member is settled and no vertex is free, so the claw state
    starts so, and the phase's first step goes straight to the circular
    search. The phase keeps one `ClawSearchState` and one `CircularState`,
    and the loop hands each applied swap, of either kind, to both; the
    circular state re-anchors every vertex at its first call, and each later
    fixed point recomputes only the anchor maps and aux-graph blocks that
    the swaps since the last one touched."""
    d = _resolve_d(g, cfg.d)
    params = cfg.circular if cfg.circular is not None else ColorCodingParams.defaults(g, inst)
    if claw_run is None:
        claw_run = squareimp(g, cfg, start)
    records = claw_run.improvements
    a = Solution(g, set(claw_run.final.members))
    del claw_run  # a run made here goes, with its N(u, A) table, before the copy builds its own
    circ = CircularState(a, params, d, inst, random.Random(cfg.rng_seed))
    claw = ClawSearchState(a, d, at_fixed_point=True)
    after_swap = False  # the claw run ended with a claw search that found nothing

    def step() -> Optional[Improvement]:
        nonlocal after_swap
        if after_swap and (imp := find_claw_improvement(claw)) is not None:
            return imp
        after_swap = True  # the circular search ends the run or makes a swap
        build_anchor_maps(a, circ)
        return find_circular_improvement(circ)

    trace = _loop(a, step, [claw, circ])
    trace.improvements[:0] = records
    if circ.y_cap < d - 1:
        trace.notes = (f"aux companion sets capped at {circ.y_cap} (claw bound allows {d - 1})",)
    return trace


def parametrized_local_search(
    g: ConflictGraph,
    cfg: SolverConfig,
    start: Optional[Solution] = None,
) -> RunTrace:
    """Iterate the exhaustive w**alpha improvement search to a fixed point.

    The size cap is floor(C * log2(n)), floored at 1 so singleton
    insertions stay available on tiny instances.
    """
    cap = max(1, math.floor(cfg.size_cap_factor * math.log(max(2, g.n), 2)))
    a = Solution.of(g, start.members if start else ())
    return _loop(a, lambda: exhaustive_improvement_search(a, cfg.alpha, cap), keep_partial_on_budget=True)


def scale_truncate_run(g: ConflictGraph, cfg: SolverConfig, inst: Optional[PackingInstance] = None) -> RunTrace:
    """Rescale weights so the greedy solution weighs N*|V|, truncate to
    integers, drop floor-zero vertices, run cfg.mode on the rest, map back.

    The integer squared weight of any solution is then at most
    (d-1)^2 * N^2 * |V|^2, which bounds the iteration count. The rest is
    the subgraph induced by the kept vertices in id order, so its lists
    stay sorted and symmetric, and it is built unchecked, as are the kept
    sets of a packing instance, passed through so the randomized circular
    search stays available.
    """
    if cfg.scaling_n is None:
        raise InputError("scale_truncate_run needs cfg.scaling_n > 1")
    d = _resolve_d(g, cfg.d)
    bound = (d - 1) ** 2 * cfg.scaling_n ** 2 * g.n ** 2
    if g.n == 0:
        return RunTrace([], Solution(g, set()), iteration_bound=bound)
    factor = cfg.scaling_n * g.n / greedy(g).total_w
    floored = [math.floor(w * factor) for w in g.weights]
    keep = [v for v in range(g.n) if floored[v] >= 1]
    fwd = {v: i for i, v in enumerate(keep)}
    weights = tuple(Fraction(floored[v]) for v in keep)
    adj = tuple(tuple(fwd[u] for u in g.adj[v] if u in fwd) for v in keep)
    sub = ConflictGraph._of_parts(len(keep), adj, weights, g.d)
    sub_inst = None
    if inst is not None:
        sub_inst = PackingInstance._of_parts(inst.universe_size, tuple(inst.sets[v] for v in keep), weights, inst.k)
    trace = _run(sub, cfg, sub_inst, None)
    if trace.iterations > bound:
        raise RuntimeError(f"iteration count {trace.iterations} exceeds scaling bound {bound}")
    return RunTrace(
        improvements=trace.improvements,
        final=Solution(g, {keep[i] for i in trace.final.members}),
        notes=trace.notes + (f"scaled by {factor} and truncated; {g.n - len(keep)} vertices dropped",),
        iteration_bound=bound,
    )


def _run(
    g: ConflictGraph,
    cfg: SolverConfig,
    inst: Optional[PackingInstance],
    start: Optional[Solution],
    claw_run: Optional[RunTrace] = None,
) -> RunTrace:
    """The unscaled run of cfg.mode on `g`. Greedy ignores the start."""
    if cfg.mode == "greedy":
        return RunTrace([], greedy(g))
    if cfg.mode == "squareimp":
        return squareimp(g, cfg, start)
    if cfg.mode == "logimp":
        return logimp(g, cfg, start, inst, claw_run=claw_run)
    return parametrized_local_search(g, cfg, start)


def solve(
    g: ConflictGraph,
    cfg: SolverConfig,
    inst: Optional[PackingInstance] = None,
    start: Optional[Solution] = None,
    claw_run: Optional[RunTrace] = None,
) -> RunTrace:
    """Dispatch on cfg.mode, wrapping in scaling/truncation when configured.

    Start-solution injection is a test hook for unscaled runs only: a
    local search given both a start and cfg.scaling_n is an InputError.
    Greedy ignores the start.

    `claw_run` is an unscaled squareimp run over `g`, from the same start
    and at the same claw bound, that an unscaled logimp run continues
    instead of running it again (see `logimp`); the caller vouches for its
    start and bound. Given with another graph, another mode or scaling, it
    is a `ContractError`.
    """
    if claw_run is not None and (
        cfg.mode != "logimp" or cfg.scaling_n is not None or claw_run.scaled or claw_run.final.g is not g
    ):
        raise ContractError("only an unscaled logimp run over the claw run's graph continues it")
    if cfg.scaling_n is not None and cfg.mode != "greedy":
        if start is not None:
            raise InputError("a start solution cannot be combined with scaling")
        return scale_truncate_run(g, cfg, inst)
    return _run(g, cfg, inst, start, claw_run)
