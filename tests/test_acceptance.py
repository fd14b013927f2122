"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from click.testing import CliRunner

from conftest import (
    Edge,
    Vertex,
    aux_graph_of,
    circular_state,
    claw_search,
    enumerate_colorful_cycles,
    gen_berman_tight,
    nbr_set,
    positional,
    synthetic_search,
)

from clawpack.certify import AnalysisParams, certify_local_optimum
from clawpack.circular import (
    ColorCodingParams,
    _colorful_cycles,
    build_aux_graph,
    find_circular_improvement,
    repetitions_for,
    run_color_coding,
    trial_success_bound,
    validate_circular,
)
from clawpack.cli import main as cli_main
from clawpack.constants import check_constants
from clawpack.generators import (
    LowerBoundParams,
    berman_tight_instance,
    gen_alternating_cycle,
    gen_incidence_lowerbound,
    gen_random_packing,
    girth,
    petersen_graph,
    projective_plane_incidence,
)
from clawpack.instances import Solution, build_conflict_graph
from clawpack.oracle import exact_mwis, exhaustive_improvement_search
from clawpack.solvers import SolverConfig, solve, squareimp

DELTA = Fraction(1, 2)
PARAMS = AnalysisParams.from_delta(DELTA)

DP_BUDGET = 2_000_000  # colorful DP states per coloring


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


@pytest.fixture(scope="module")
def random_sweep():
    """200 seeded random 3-set instances (n <= 14, both weight models) with
    oracle optima and both solvers' fixed points. Shared by criteria 3 and 4."""
    t0 = time.perf_counter()
    runs = []
    for i in range(200):
        dist = ("uniform", 10) if i < 100 else ("near-unit", Fraction(1, 10))
        n_sets = 10 + (i % 5)
        inst = gen_random_packing(n_sets, 3, 9, weight_dist=dist, seed=i)
        g = build_conflict_graph(inst)
        opt = exact_mwis(g)
        finals = {}
        for mode in ("squareimp", "logimp"):
            tr = solve(g, SolverConfig(mode=mode), inst=inst)
            finals[mode] = tr.final
        runs.append((inst, g, opt, finals))
    return runs, time.perf_counter() - t0


def test_criterion_1_squareimp_tightness():
    t0 = time.perf_counter()
    for d in (4, 5, 6):
        g, a, b = gen_berman_tight(d)
        assert claw_search(a) is None
        opt = exact_mwis(g)
        assert opt.best.members == b.members
        assert opt.optimum_w / a.total_w == Fraction(d, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"d=4,5,6 tight at d/2 exactly, oracle agrees with the big side ({elapsed:.2f}s)")


def test_criterion_2_logimp_beats_tight():
    t0 = time.perf_counter()
    finals = {}
    for d in (4, 5, 6):
        g, a, _ = gen_berman_tight(d)
        imp = find_circular_improvement(circular_state(a))
        assert imp is not None
        assert validate_circular(a, imp, d=d)
        tr = solve(g, SolverConfig(mode="logimp"), start=a)
        opt = exact_mwis(g)
        assert opt.optimum_w / tr.final.total_w < Fraction(d, 2)
        finals[d] = tr.final.total_w
    assert finals[4] == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"circular improvements validated, ratios below d/2, final(4)=6 ({elapsed:.2f}s)")


def test_criterion_3_universal_bound(random_sweep):
    runs, build_time = random_sweep
    assert len(runs) == 200
    violations = 0
    for inst, g, opt, finals in runs:
        for mode in ("squareimp", "logimp"):
            if opt.optimum_w > Fraction(4, 2) * finals[mode].total_w:
                violations += 1
    assert violations == 0
    assert build_time < 300.0
    _report(3, f"200 instances x 2 solvers, zero d/2 violations ({build_time:.1f}s sweep)")


def test_criterion_4_certificates(random_sweep):
    runs, _ = random_sweep
    t0 = time.perf_counter()
    failures = 0
    for inst, g, opt, finals in runs:
        for mode in ("squareimp", "logimp"):
            rep = certify_local_optimum(finals[mode], opt.best, PARAMS)
            ok = (
                rep.charge_bound_ok
                and rep.contribution_bound_ok
                and rep.pointwise_ok
                and rep.identity_ok
            )
            if not ok:
                failures += 1
    assert failures == 0
    _report(4, f"charge/contribution/pointwise/identity exact at 400 fixed points ({time.perf_counter()-t0:.1f}s)")


def _planted_aux(rng: random.Random):
    """A synthetic aux graph with a planted cycle, its number of elements,
    the planted edges, and the element sets of its vertices and edges."""
    n = rng.randint(4, 12)
    next_el = 0
    vertices, edges = [], []
    v_elems, e_elems = [], []
    for i in range(n):
        els = frozenset(range(next_el, next_el + rng.randint(0, 2)))
        next_el += len(els)
        vertices.append(Vertex(anchor=i, y=()))
        v_elems.append(els)
    cyc = rng.sample(range(n), rng.randint(3, min(6, n)))
    planted = []
    for i in range(len(cyc)):
        els = frozenset(range(next_el, next_el + rng.randint(1, 2)))
        next_el += len(els)
        planted.append(len(edges))
        edges.append(Edge(cyc[i], cyc[(i + 1) % len(cyc)], inducer=1000 + i))
        e_elems.append(els)
    for extra in range(rng.randint(0, 4)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        els = frozenset(range(next_el, next_el + rng.randint(1, 2)))
        next_el += len(els)
        edges.append(Edge(a, b, inducer=2000 + extra))
        e_elems.append(els)
    return aux_graph_of(vertices, edges), next_el, planted, v_elems, e_elems


def _mask(coloring, els):
    m = 0
    for e in els:
        m |= 1 << coloring[e]
    return m


def test_criterion_5_color_coding():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    graphs = 0
    while graphs < 50:
        h, n_elems, planted, v_elems, e_elems = _planted_aux(rng)
        colorings = [list(range(max(1, n_elems)))]  # injective: planted cycle colorful
        colorings += [
            [rng.randrange(max(2, n_elems)) for _ in range(max(1, n_elems))] for _ in range(2)
        ]
        for coloring in colorings:
            vmask = [_mask(coloring, e) for e in v_elems]
            emask = [_mask(coloring, e) for e in e_elems]
            expect = [c for c in enumerate_colorful_cycles(positional(h), vmask, emask, 8) if len(c) >= 3]
            got = next(synthetic_search(_colorful_cycles, h, vmask, emask, 8, DP_BUDGET), None)
            assert (got is not None) == bool(expect)
            if got is not None:
                vs, es = got
                assert 3 <= len(es) <= 8
                used = 0
                for v in vs:
                    assert used & vmask[v] == 0
                    used |= vmask[v]
                for e in es:
                    assert used & emask[e] == 0
                    used |= emask[e]
        graphs += 1

    # randomized search on a planted circular improvement touching 8 elements
    p_bound = trial_success_bound(32, 8)
    assert p_bound == Fraction(828316125, 2 ** 31)
    run_fail = (1 - p_bound) ** 64
    assert run_fail < Fraction(1, 100)  # per-run failure far below 1%
    assert repetitions_for(32, 8, Fraction(1, 1000)) <= 64
    inst = berman_tight_instance(4)
    g = build_conflict_graph(inst)
    a = Solution.of(g, range(3))
    params = ColorCodingParams(t=32, repetitions=64, mode="rand")
    wins = 0
    for trial in range(100):
        state = circular_state(a, params, inst, rng=random.Random(5000 + trial))
        imp = run_color_coding(state, build_aux_graph(state))
        if imp is not None and validate_circular(a, imp, d=4):
            wins += 1
    assert wins >= 99
    _report(
        5,
        f"50 aux graphs x3 colorings DP==enumeration; randomized search {wins}/100 "
        f"(bound {float(p_bound):.4f}/trial) ({time.perf_counter()-t0:.1f}s)",
    )


def test_criterion_6_scaling_wrapper():
    t0 = time.perf_counter()
    n_const = Fraction(2)
    iter_viol = ratio_viol = 0
    for i in range(100):
        inst = gen_random_packing(10 + (i % 5), 3, 9, weight_dist=("uniform", 10), seed=7000 + i)
        g = build_conflict_graph(inst)
        opt = exact_mwis(g)
        unscaled = solve(g, SolverConfig(mode="squareimp"), inst=inst)
        scaled = solve(g, SolverConfig(mode="squareimp", scaling_n=n_const), inst=inst)
        bound = (g.d - 1) ** 2 * n_const ** 2 * g.n ** 2
        if scaled.iterations > bound:
            iter_viol += 1
        r_un = opt.optimum_w / unscaled.final.total_w
        r_sc = opt.optimum_w / scaled.final.total_w
        if r_sc > (n_const / (n_const - 1)) * r_un:
            ratio_viol += 1
    assert iter_viol == 0 and ratio_viol == 0
    _report(6, f"100 scaled runs: iteration bound and N/(N-1) ratio factor hold ({time.perf_counter()-t0:.1f}s)")


def test_criterion_7_incidence_lower_bound():
    t0 = time.perf_counter()
    for base, l in ((petersen_graph(), 5), (projective_plane_incidence(2), 6)):
        params = LowerBoundParams(d=4, alpha=Fraction(1), eps=Fraction(1, 2), target_girth=l)
        g, a, astar = gen_incidence_lowerbound(params, base)
        degs = [g.degree(v) for v in range(g.n)]
        assert min(degs) >= 2 and max(degs) <= 3
        # forest property up to min(5, girth-1); the paper's hypothesis is
        # strictly below the girth, and it is sharp at |X| = girth (ledgered
        # spec defect: a pentagon's edges cover exactly five vertices).
        cap = min(5, int(girth(base)) - 1)
        estar = sorted(astar.members)
        for size in range(1, cap + 1):
            for combo in combinations(estar, size):
                nb = set()
                for e in combo:
                    nb |= nbr_set(g, e)
                assert len(nb) > len(combo)
        if l == 5:
            tight = any(
                len(set().union(*(nbr_set(g, e) for e in combo))) == 5
                for combo in combinations(estar, 5)
            )
            assert tight
        ratio = astar.total_w / a.total_w
        assert ratio >= (4 - 1 - Fraction(1, 2)) / 2
        assert ratio == Fraction(5, 4)
        assert params.eps_d_value() == Fraction(1, 6)
        assert exhaustive_improvement_search(a, Fraction(1), 4) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(7, f"Petersen/Heawood incidence: degrees, forest property, ratio 5/4, no size-4 gain ({elapsed:.1f}s)")


def test_criterion_8_alternating_cycles():
    t0 = time.perf_counter()
    for d in (4, 5):
        for pairs in (3, 4, 5):
            eps = Fraction(1, 2)
            g, a, astar = gen_alternating_cycle(pairs, d, eps)
            assert astar.total_w / a.total_w == (d - 1 - eps) / 2
            assert exhaustive_improvement_search(a, Fraction(-1), 4) is None
    _report(8, f"6 alternating cycles: exact ratios, no w^-1 improvement at cap 4 ({time.perf_counter()-t0:.1f}s)")


def test_criterion_9_constants_grid():
    t0 = time.perf_counter()
    for i in range(1, 20):
        rep = check_constants(Fraction(i, 20))
        assert rep.all_ok, (i, rep.results)
        assert len(rep.results) == 14
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(9, f"const0..const13 hold on delta = 0.05..0.95 ({elapsed:.2f}s)")


def test_criterion_10_byte_identical_outputs(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()
    inst_path = tmp_path / "inst.ksp"
    suite_path = tmp_path / "suite.json"

    def run_twice(args, out_name):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{out_name}.{tag}"
            res = runner.invoke(cli_main, args + ["--out", str(out)])
            assert res.exit_code == 0, res.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    run_twice(["gen", "random", "--sets", "12", "--k", "3", "--universe", "9", "--seed", "3"], "gen")
    runner.invoke(cli_main, ["gen", "random", "--sets", "12", "--k", "3", "--universe", "9", "--seed", "3", "--out", str(inst_path)])
    run_twice(["solve", "--algo", "logimp", "--seed", "5", "--in", str(inst_path)], "solve")
    run_twice(["solve", "--algo", "param", "--alpha", "2", "--in", str(inst_path)], "param")
    suite_path.write_text(
        json.dumps(
            {
                "instances": [
                    {"id": "b4", "gen": {"family": "berman", "d": 4}},
                    {"id": "r", "gen": {"family": "random", "sets": 10, "k": 3, "universe": 8, "seed": 1}},
                ],
                "algorithms": [{"algo": "squareimp"}, {"algo": "logimp"}],
                "seeds": [0, 1],
            }
        )
    )
    run_twice(["bench", "--suite", str(suite_path)], "bench.csv")
    _report(10, f"gen/solve/bench outputs byte-identical across reruns ({time.perf_counter()-t0:.1f}s)")
