import random
from fractions import Fraction
from unittest import mock

import pytest
from conftest import claw_search, gen_berman_tight, nbr_set, tight_copies, w_of

from clawpack import solvers
from clawpack.generators import (
    gen_alternating_cycle,
    gen_random_packing,
)
from clawpack.instances import (
    ClawShaped,
    ConflictGraph,
    ContractError,
    Improvement,
    InputError,
    PackingInstance,
    Solution,
    build_conflict_graph,
    fmt_fraction,
    verify_solution,
)
from clawpack.oracle import exact_mwis
from clawpack.solvers import (
    SolverConfig,
    greedy,
    logimp,
    parametrized_local_search,
    scale_truncate_run,
    solve,
    squareimp,
)


def test_greedy_path(unit_path3):
    g = ConflictGraph.from_edges(3, [(0, 1), (1, 2)], [1, 3, 1], d=3)
    assert greedy(g).members == {1}


def test_greedy_edgeless():
    g = ConflictGraph.from_edges(4, [], [1, 2, 3, 4])
    assert greedy(g).members == {0, 1, 2, 3}


def test_greedy_berman_tie_breaking():
    g, _, _ = gen_berman_tight(4)
    got = greedy(g)
    # unit weights: lowest ids picked first, closed neighborhoods removed
    assert 0 in got.members
    assert got.total_w >= 3
    assert all(nbr_set(g, u) & got.members for u in range(g.n) if u not in got.members)


def test_greedy_scaling_invariance():
    inst = gen_random_packing(12, 3, 9, weight_dist=("uniform", 9), seed=11)
    g = build_conflict_graph(inst)
    base = greedy(g).members
    for factor in (Fraction(3), Fraction(2, 7)):
        scaled = g.reweighted([w * factor for w in g.weights])
        assert greedy(scaled).members == base


def test_free_vertex_zero_claw():
    g = ConflictGraph.from_edges(3, [(0, 1)], [1, 1, 1], d=3)
    a = Solution.of(g, {0})
    imp = claw_search(a)
    assert imp is not None and imp.size == 1 and not imp.removed
    assert imp.kind.center is None


@pytest.mark.parametrize("d", [4, 5, 6])
def test_berman_tight_no_claw_improvement(d):
    g, a, _ = gen_berman_tight(d)
    assert claw_search(a) is None


def test_claw_improvement_weighted_star():
    # center weight 2 in solution, two independent talons weight 3/2:
    # w2 gain 2*(9/4) = 4.5 against removing 4
    g = ConflictGraph.from_edges(3, [(0, 1), (0, 2)], [2, Fraction(3, 2), Fraction(3, 2)], d=4)
    a = Solution.of(g, {0})
    imp = claw_search(a)
    assert imp is not None
    assert imp.kind.center == 0
    assert imp.x == {1, 2} and imp.removed == {0}


def test_squareimp_edgeless_collects_everything():
    g = ConflictGraph.from_edges(5, [], [1, 2, 3, 4, 5], d=3)
    tr = squareimp(g, SolverConfig(mode="squareimp"))
    assert tr.final.members == set(range(5))
    assert tr.iterations == 5


@pytest.mark.parametrize("d", [4, 5, 6])
def test_squareimp_fixed_at_tight_instance(d):
    g, a, _ = gen_berman_tight(d)
    tr = squareimp(g, SolverConfig(mode="squareimp"), start=a)
    assert tr.iterations == 0
    assert tr.final.members == a.members


def test_squareimp_ratio_bound_random():
    for seed in range(12):
        inst = gen_random_packing(12, 3, 9, seed=seed)
        g = build_conflict_graph(inst)
        tr = squareimp(g, SolverConfig(mode="squareimp"))
        opt = exact_mwis(g)
        assert opt.optimum_w <= Fraction(g.d, 2) * tr.final.total_w
        assert claw_search(tr.final) is None


def test_strict_progress_and_traces():
    inst = gen_random_packing(12, 3, 9, weight_dist=("uniform", 6), seed=3)
    g = build_conflict_graph(inst)
    tr = squareimp(g, SolverConfig(mode="squareimp"))
    assert tr.iterations == len(tr.improvements)
    assert all(r.delta_w2 > 0 for r in tr.improvements)
    assert verify_final_maximal(g, tr.final)


def verify_final_maximal(g, sol):
    return all((nbr_set(g, u) & sol.members) for u in range(g.n) if u not in sol.members)


def test_logimp_equals_squareimp_on_forest():
    # a forest conflict graph has no cycles in any auxiliary structure
    g = ConflictGraph.from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)], [2, 3, 1, 1, 5, 2, 2], d=3)
    t1 = squareimp(g, SolverConfig(mode="squareimp"))
    t2 = logimp(g, SolverConfig(mode="logimp"))
    assert t1.final.members == t2.final.members


@pytest.mark.parametrize("d", [4, 5, 6])
def test_logimp_beats_tight_instance(d):
    g, a, _ = gen_berman_tight(d)
    tr = logimp(g, SolverConfig(mode="logimp"), start=a)
    opt = exact_mwis(g)
    assert opt.optimum_w / tr.final.total_w < Fraction(d, 2)
    if d == 4:
        assert tr.final.total_w == 6


def test_logimp_continues_a_claw_run_as_it_would_run_it():
    """Given the squareimp run from its start, logimp gives the trace it
    gives without it, and leaves that run's final and records as they
    were."""
    inst, small = tight_copies(5, 3, seed=1)
    g = build_conflict_graph(inst)
    start = Solution.of(g, small)
    cfg = SolverConfig(mode="logimp")
    claw_run = squareimp(g, SolverConfig(mode="squareimp"), start)
    members, records = set(claw_run.final.members), list(claw_run.improvements)
    got = solve(g, cfg, inst=inst, claw_run=claw_run)
    assert got.to_json_obj() == solve(g, cfg, inst=inst, start=start).to_json_obj()
    assert got.iterations > claw_run.iterations and got.final.members != members
    assert claw_run.final.members == members and claw_run.improvements == records


@pytest.mark.parametrize("case", ["another graph", "squareimp", "greedy", "parametrized", "scaled config", "scaled run"])
def test_solve_refuses_a_claw_run_it_cannot_continue(case):
    inst = gen_random_packing(12, 3, 9, seed=3)
    g = build_conflict_graph(inst)
    claw_run = squareimp(g, SolverConfig(mode="squareimp"))
    cfg = SolverConfig(mode="logimp")
    if case == "another graph":
        g = build_conflict_graph(inst)  # equal, but not the run's graph
    elif case in ("squareimp", "greedy"):
        cfg = SolverConfig(mode=case)
    elif case == "parametrized":
        cfg = SolverConfig(mode=case, alpha=Fraction(2))
    elif case == "scaled config":
        cfg = SolverConfig(mode="logimp", scaling_n=Fraction(2))
    else:
        claw_run = solve(g, SolverConfig(mode="squareimp", scaling_n=Fraction(2)))
    with pytest.raises(ContractError, match="continues it"):
        solve(g, cfg, inst=inst, claw_run=claw_run)


def test_logimp_ratio_bound_random():
    for seed in range(12):
        inst = gen_random_packing(11, 3, 8, weight_dist=("near-unit", Fraction(1, 8)), seed=seed)
        g = build_conflict_graph(inst)
        tr = logimp(g, SolverConfig(mode="logimp"), inst=inst)
        opt = exact_mwis(g)
        assert opt.optimum_w <= Fraction(g.d, 2) * tr.final.total_w
        assert claw_search(tr.final) is None


def test_parametrized_alpha_one_edge():
    g = ConflictGraph.from_edges(2, [(0, 1)], [3, 5], d=3)
    tr = parametrized_local_search(g, SolverConfig(mode="parametrized", alpha=Fraction(1)))
    assert tr.final.members == {1}


def test_parametrized_alpha_two_matches_oracle_class():
    inst = gen_random_packing(10, 3, 8, seed=21)
    g = build_conflict_graph(inst)
    tr = parametrized_local_search(
        g, SolverConfig(mode="parametrized", alpha=Fraction(2), size_cap_factor=Fraction(3))
    )
    opt = exact_mwis(g)
    assert opt.optimum_w <= Fraction(g.d, 2) * tr.final.total_w


def test_parametrized_cycle_alpha_negative_fixed_point():
    g, a, _ = gen_alternating_cycle(4, 4, Fraction(1, 2))
    tr = parametrized_local_search(
        g, SolverConfig(mode="parametrized", alpha=Fraction(-1)), start=a
    )
    assert tr.iterations == 0
    assert tr.final.members == a.members


def test_parametrized_alpha_negative_from_empty():
    # applied swaps may lower w^2 while raising w^-1; the recorded gains are
    # in the run's own objective and must stay positive
    g, a, _ = gen_alternating_cycle(4, 5, Fraction(1, 2))
    tr = parametrized_local_search(g, SolverConfig(mode="parametrized", alpha=Fraction(-1)))
    assert tr.final.members == a.members  # converges to the light side
    assert all(r.delta_w2 > 0 for r in tr.improvements)


def test_alpha_zero_rejected_in_config():
    with pytest.raises(InputError):
        SolverConfig(mode="parametrized", alpha=Fraction(0))


def test_parametrized_budget_aborts_with_best_so_far(monkeypatch):
    inst = gen_random_packing(12, 3, 9, seed=8)
    g = build_conflict_graph(inst)
    search = solvers.exhaustive_improvement_search
    monkeypatch.setattr(solvers, "exhaustive_improvement_search", lambda *args: search(*args, budget=3))
    cfg = SolverConfig(mode="parametrized", alpha=Fraction(2))
    tr = parametrized_local_search(g, cfg)
    assert tr.notes and "budget" in tr.notes[0]
    # partial result is still a valid independent set
    assert g.is_independent(tr.final.members)


def scaled_squareimp(g, scaling_n, inst=None):
    """The scaled squareimp run on `g`, and the restricted graph and
    instance its inner run got."""
    with mock.patch.object(solvers, "squareimp", wraps=solvers.squareimp) as inner:
        tr = scale_truncate_run(g, SolverConfig(mode="squareimp", scaling_n=scaling_n), inst)
    (sub, cfg, start), _ = inner.call_args
    assert inner.call_count == 1 and start is None
    return tr, sub


def test_scale_truncate_arithmetic_example():
    g = ConflictGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)], [5, 3, 2, 1], d=4)
    tr, sub = scaled_squareimp(g, Fraction(2))
    assert sub.weights == (8, 4, 3, 1)
    assert tr.scaled
    assert tr.iteration_bound == (4 - 1) ** 2 * 4 * 16


def test_scale_truncate_uniform_weights_lossless():
    g = ConflictGraph.from_edges(4, [(0, 1), (2, 3)], [3, 3, 3, 3], d=3)
    tr, sub = scaled_squareimp(g, Fraction(2))
    assert len(set(sub.weights)) == 1
    assert tr.final.total_w == 6


def test_scale_truncate_restricts_to_the_induced_subgraph():
    """The kept vertices, renumbered in id order, with the edges of `g`
    between them and their sets: what the checked constructors build from
    the kept edges and sets. The final maps back to the ids of `g`."""
    inst = gen_random_packing(60, 3, 40, weight_dist=("uniform", 50), seed=3)
    g = build_conflict_graph(inst)
    with mock.patch.object(solvers, "logimp", wraps=solvers.logimp) as inner:
        tr = scale_truncate_run(g, SolverConfig(mode="logimp", scaling_n=Fraction(3, 2)), inst)
    sub, _, _, sub_inst = inner.call_args.args
    factor = Fraction(3, 2) * g.n / greedy(g).total_w
    keep = [v for v in range(g.n) if g.weights[v] * factor >= 1]
    assert 0 < len(keep) < g.n
    fwd = {v: i for i, v in enumerate(keep)}
    edges = [(fwd[u], fwd[v]) for u, v in g.edges() if u in fwd and v in fwd]
    assert sub == ConflictGraph.from_edges(len(keep), edges, sub.weights, d=g.d)
    assert sub_inst == PackingInstance.build(inst.universe_size, [inst.sets[v] for v in keep], sub.weights, inst.k)
    assert build_conflict_graph(sub_inst) == sub
    assert tr.final.g is g and verify_solution(g, tr.final)
    inner_final = solvers.logimp(sub, SolverConfig(mode="logimp"), None, sub_inst).final
    assert tr.final.members == {keep[i] for i in inner_final.members}


def test_scaled_run_on_the_empty_graph_records_a_zero_bound():
    tr = solve(ConflictGraph(0, (), (), d=3), SolverConfig(mode="squareimp", scaling_n=Fraction(2)))
    assert tr.scaled and tr.iteration_bound == 0 and tr.iterations == 0 and not tr.final.members


def test_scaled_ratio_within_factor():
    for seed in range(10):
        inst = gen_random_packing(12, 3, 9, weight_dist=("uniform", 10), seed=60 + seed)
        g = build_conflict_graph(inst)
        opt = exact_mwis(g)
        un = solve(g, SolverConfig(mode="squareimp"), inst=inst)
        sc = solve(g, SolverConfig(mode="squareimp", scaling_n=Fraction(2)), inst=inst)
        assert sc.iterations <= sc.iteration_bound
        assert opt.optimum_w / sc.final.total_w <= 2 * (opt.optimum_w / un.final.total_w)


def test_run_trace_json_fields():
    g, a, _ = gen_berman_tight(4)
    tr = logimp(g, SolverConfig(mode="logimp"), start=a)
    doc = tr.to_json_obj()
    assert set(doc) == {"iterations", "improvements", "final_members", "final_weight"}
    assert doc["final_weight"] == "6/1"
    assert doc["improvements"][0]["kind"] == "circular"


def test_start_over_another_graph_weighs_in_the_run_graph():
    g1 = build_conflict_graph(gen_random_packing(40, 3, 30, seed=1))
    g2 = g1.reweighted([1] * g1.n)
    tr = solve(g2, SolverConfig(mode="squareimp"), start=greedy(g1))
    assert verify_solution(g2, tr.final)
    assert tr.final.total_w == w_of(g2, tr.final.members) == len(tr.final)
    assert tr.to_json_obj()["final_weight"] == f"{len(tr.final)}/1"


@pytest.mark.parametrize("mode", ["squareimp", "logimp", "parametrized"])
def test_start_with_scaling_is_an_input_error(mode):
    g, a, _ = gen_berman_tight(4)
    cfg = SolverConfig(mode=mode, alpha=Fraction(2), scaling_n=Fraction(2))
    with pytest.raises(InputError, match="start solution cannot be combined with scaling"):
        solve(g, cfg, start=a)
    assert solve(g, cfg).scaled


def wire_gains(run, alpha: int = 2) -> tuple[list[str], list[str], list[str]]:
    """The `delta_w2` strings of run()'s trace, `fmt_fraction` of each
    applied swap's gain in w**alpha summed in Fractions, and the kinds. A
    step of free vertices (claw-shaped, center None) removes nothing and
    expects one gain per vertex, in id order."""
    applied = []
    original = Solution.apply

    def apply(self, imp):
        if isinstance(imp.kind, ClawShaped) and imp.kind.center is None:
            assert not imp.removed
            applied.extend((self.g, frozenset({v}), frozenset(), imp.kind_name()) for v in sorted(imp.x))
        else:
            applied.append((self.g, imp.x, imp.removed, imp.kind_name()))
        original(self, imp)

    with mock.patch.object(Solution, "apply", apply):
        trace = run()
    want = [
        fmt_fraction(sum((g.weights[v] ** alpha for v in x), Fraction(0))
                     - sum((g.weights[v] ** alpha for v in removed), Fraction(0)))
        for g, x, removed, _ in applied
    ]
    records = trace.to_json_obj()["improvements"]
    assert [(r["kind"], r["size"]) for r in records] == [(kind, len(x)) for _, x, _, kind in applied]
    return [r["delta_w2"] for r in records], want, [kind for *_, kind in applied]


def test_wire_gains_are_the_exact_fractions_with_a_weight_lcm_above_one():
    rng = random.Random(5)
    inst = PackingInstance.build(
        24, [rng.sample(range(24), rng.randint(1, 3)) for _ in range(30)],
        [Fraction(rng.randint(1, 40), rng.choice([3, 7, 11, 13])) for _ in range(30)], 3,
    )
    g = build_conflict_graph(inst)
    assert g.w_lcm > 1
    got, want, _ = wire_gains(lambda: squareimp(g, SolverConfig()))
    assert got == want and got
    assert any(Fraction(s).denominator > 1 for s in got)


def test_wire_gains_are_the_exact_fractions_of_w_cubed():
    inst = gen_random_packing(14, 3, 10, weight_dist=("near-unit", Fraction(1, 10)), seed=2)
    g = build_conflict_graph(inst)
    cfg = SolverConfig(mode="parametrized", alpha=Fraction(3), size_cap_factor=Fraction(1, 2))
    got, want, _ = wire_gains(lambda: parametrized_local_search(g, cfg), alpha=3)
    assert got == want and got


def test_wire_gains_are_the_exact_fractions_of_circular_swaps():
    inst, small = tight_copies(5, 2, seed=1, scales=[Fraction(2, 3), Fraction(5, 7)])
    g = build_conflict_graph(inst)
    got, want, kinds = wire_gains(lambda: logimp(g, SolverConfig(mode="logimp"), start=Solution.of(g, small), inst=inst))
    assert got == want
    assert "circular" in kinds


def test_loop_refuses_a_step_that_does_not_improve():
    """`_loop` checks each swap's gain before it applies it: a step that
    returns a swap of equal squared weight is a RuntimeError, and the
    solution is left as it was."""
    g = ConflictGraph.from_edges(3, [(0, 1), (1, 2)], [1, 1, 1], d=3)
    a = Solution.of(g, {1})
    imp = Improvement(frozenset({0}), frozenset({1}), ClawShaped(center=1))
    with pytest.raises(RuntimeError, match="non-improving step"):
        solvers._loop(a, lambda: imp)
    assert a.members == {1}
