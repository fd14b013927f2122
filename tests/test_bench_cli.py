import hashlib
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from clawpack import formats
from clawpack.bench import emit_report, instance_from_gen_spec, run_bench
from clawpack.cli import main
from clawpack.generators import berman_tight_instance, gen_random_packing
from clawpack.instances import build_conflict_graph
from clawpack.oracle import exact_mwis


@pytest.fixture
def runner():
    return CliRunner()


def suite_doc():
    return {
        "instances": [
            {"id": "berman4", "gen": {"family": "berman", "d": 4}},
            {"id": "rand0", "gen": {"family": "random", "sets": 10, "k": 3, "universe": 8, "seed": 0}},
        ],
        "algorithms": [{"algo": "squareimp"}, {"algo": "logimp"}],
        "seeds": [0],
    }


def test_run_bench_rows_and_ratios():
    report = run_bench(suite_doc())
    assert len(report.rows) == 4
    for row in report.rows:
        assert not row.error
        assert row.ratio is not None and row.ratio >= 1
        assert row.cert == "pass"


def test_bench_tight_start_rows():
    config = {
        "instances": [
            {"id": f"berman{d}", "gen": {"family": "berman", "d": d}, "start": list(range(d - 1))}
            for d in (4, 5, 6)
        ],
        "algorithms": [{"algo": "squareimp"}, {"algo": "logimp"}],
        "seeds": [0],
        "oracle_limit": 25,
    }
    report = run_bench(config)
    by_key = {(r.instance, r.algo): r for r in report.rows}
    for d in (4, 5, 6):
        sq = by_key[(f"berman{d}", "squareimp")]
        lg = by_key[(f"berman{d}", "logimp")]
        assert sq.ratio == Fraction(d, 2)
        assert lg.ratio < Fraction(d, 2)


def test_bench_start_in_algorithm_spec():
    # per-algorithm start overrides the instance-level one
    config = {
        "instances": [{"id": "b4", "gen": {"family": "berman", "d": 4}}],
        "algorithms": [
            {"algo": "squareimp", "start": [0, 1, 2]},
            {"algo": "squareimp"},
        ],
        "seeds": [0],
    }
    report = run_bench(config)
    pinned, free = report.rows
    assert pinned.ratio == Fraction(2)  # stuck at the tight incumbent
    assert free.final_w >= 3 and free.iters > 0


def test_empty_suite():
    report = run_bench({"instances": [], "algorithms": [], "seeds": []})
    assert report.rows == []
    assert emit_report(report) == ",".join(
        ["instance", "algo", "seed", "final_w", "opt_w", "ratio", "iters", "time_ms", "cert"]
    ) + "\n"


def test_emit_csv_shape_and_rationals():
    report = run_bench(suite_doc())
    csv = emit_report(report, fmt="csv")
    lines = csv.strip().split("\n")
    assert lines[0] == "instance,algo,seed,final_w,opt_w,ratio,iters,time_ms,cert"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert "/" in first[3] and "/" in first[5]
    assert first[7] == "0"  # timings zeroed by default


def test_bench_deterministic_rerun():
    a = emit_report(run_bench(suite_doc()), fmt="csv")
    b = emit_report(run_bench(suite_doc()), fmt="csv")
    assert a == b


def test_bench_jobs_matches_serial():
    a = emit_report(run_bench(suite_doc(), jobs=1))
    b = emit_report(run_bench(suite_doc(), jobs=4))
    assert a == b


@pytest.mark.parametrize("oracle_limit, oracled", [(40, False), (45, True)])
def test_bench_oracle_limit_above_default(oracle_limit, oracled):
    # a 42-vertex cycle: above the oracle's default size limit of 40
    config = {
        "instances": [{"id": "cycle21", "gen": {"family": "cycle", "pairs": 21, "d": 5, "eps": "1/2"}}],
        "algorithms": [{"algo": "greedy"}, {"algo": "squareimp"}, {"algo": "logimp"}],
        "seeds": [0],
        "oracle_limit": oracle_limit,
    }
    report = run_bench(config)
    assert len(report.rows) == 3
    for row in report.rows:
        assert not row.error
        assert row.final_w == 21
        assert row.opt_w == (21 if oracled else None)


def test_bench_row_error_recorded():
    config = {
        "instances": [{"id": "bad", "gen": {"family": "berman", "d": 4}}],
        "algorithms": [{"algo": "parametrized"}],  # missing alpha
        "seeds": [0],
    }
    report = run_bench(config)
    assert len(report.rows) == 1
    assert report.rows[0].error
    assert not report.all_ok()


def test_bench_start_with_scaling_row_reports_the_error():
    config = {
        "instances": [{"id": "b4", "gen": {"family": "berman", "d": 4}, "start": [0, 1, 2]}],
        "algorithms": [{"algo": "squareimp", "scale_n": "2"}, {"algo": "greedy", "scale_n": "2"}],
        "seeds": [0],
    }
    scaled, greedy_row = run_bench(config).rows
    assert scaled.error == "InputError: a start solution cannot be combined with scaling"
    assert scaled.cert == "error" and scaled.final_w is None
    assert not greedy_row.error and greedy_row.final_w == 3


# greedy rows on "nu" fail the certificate, the alpha-less parametrized rows
# error, and most other finals repeat across algorithms and seeds
MEMO_SUITE = {
    "instances": [
        {"id": "b4", "gen": {"family": "berman", "d": 4}, "start": [0, 1, 2]},
        {"id": "r0", "gen": {"family": "random", "sets": 12, "k": 3, "universe": 9, "seed": 3}},
        {"id": "nu", "gen": {"family": "random", "sets": 12, "k": 3, "universe": 8,
                             "dist": "near-unit:1/20", "seed": 5}},
        {"id": "cyc", "gen": {"family": "cycle", "pairs": 5, "d": 5, "eps": "1/2"}},
    ],
    "algorithms": [
        {"algo": "greedy"},
        {"algo": "squareimp"},
        {"algo": "logimp"},
        {"algo": "parametrized", "alpha": "2", "cap_c": "1/2"},
        {"algo": "parametrized"},
    ],
    "seeds": [0, 1],
}
# sha1 of the default CSV and JSON reports of MEMO_SUITE as the per-row
# Fraction certificate wrote them, before the memo and the integer layer
MEMO_SUITE_SHA1 = {
    "csv": "6abb18269e552c5c1805aa90d82de69b546c0294",
    "json": "509729fe5e3b1dd6d7372002140c63d42b8f3fef",
}


def spy_bench(monkeypatch):
    """Record (graph, final member set) per solved row and per certificate."""
    import clawpack.bench as bench

    solved, certified = [], []
    real_solve, real_certify = bench.solve, bench.certify_local_optimum

    def solve(g, cfg, **kwargs):
        trace = real_solve(g, cfg, **kwargs)
        solved.append((id(g), frozenset(trace.final.members)))
        return trace

    def certify(a, astar, params):
        certified.append((id(a.g), frozenset(a.members)))
        return real_certify(a, astar, params)

    monkeypatch.setattr(bench, "solve", solve)
    monkeypatch.setattr(bench, "certify_local_optimum", certify)
    return solved, certified


def test_bench_certifies_each_distinct_final_once(monkeypatch):
    solved, certified = spy_bench(monkeypatch)
    report = run_bench(MEMO_SUITE)
    assert len(certified) == len(set(certified)) == len(set(solved))
    assert set(certified) == set(solved)
    assert len(solved) == 32 and len(certified) < len(solved)
    assert sum(r.cert == "fail" for r in report.rows) == 4


def test_bench_same_id_instances_certified_separately(monkeypatch):
    solved, certified = spy_bench(monkeypatch)
    config = {
        "instances": [
            {"id": "same", "gen": {"family": "berman", "d": 4}, "start": [0, 1, 2]},
            {"id": "same", "gen": {"family": "random", "sets": 10, "k": 3, "universe": 8, "seed": 0}},
        ],
        "algorithms": [{"algo": "squareimp"}],
        "seeds": [0],
    }
    report = run_bench(config)
    assert len({gid for gid, _ in certified}) == 2
    assert set(certified) == set(solved)
    # each row carries its own instance's optimum
    _, g0 = instance_from_gen_spec(config["instances"][0]["gen"])
    _, g1 = instance_from_gen_spec(config["instances"][1]["gen"])
    assert [r.opt_w for r in report.rows] == [exact_mwis(g0).optimum_w, exact_mwis(g1).optimum_w]
    assert [r.cert for r in report.rows] == ["pass", "pass"]


def test_bench_memo_output_bytes_pinned_across_jobs():
    for jobs in (1, 2):
        report = run_bench(MEMO_SUITE, jobs=jobs)
        for fmt, digest in MEMO_SUITE_SHA1.items():
            assert hashlib.sha1(emit_report(report, fmt=fmt).encode()).hexdigest() == digest, (jobs, fmt)


def test_bench_parallel_tasks_are_rows():
    """A one-instance suite still splits into one task per row, then its
    seeded optimum, then one task per distinct final, so `--jobs`
    parallelises it."""
    import clawpack.bench as bench

    calls = []

    def pmap(fn, tasks):
        calls.append((fn.__name__, len(tasks)))
        return [fn(*t) for t in tasks]

    config = {"instances": MEMO_SUITE["instances"][:1], "algorithms": MEMO_SUITE["algorithms"],
              "seeds": [0, 1, 2]}
    name, spec = config["instances"][0]["id"], config["instances"][0]
    inst, g = instance_from_gen_spec(spec["gen"])
    rows = bench._run_phases([(name, g, inst, spec)], config["algorithms"], config["seeds"], 20,
                             Fraction(1, 2), pmap)
    assert [c[0] for c in calls] == ["_solve_row", "_optimum", "_certify"]
    assert calls[0][1] == len(rows) == 15 and calls[1][1] == 1
    assert 1 <= calls[2][1] < len(rows)
    assert emit_report(bench.BenchReport(rows)) == emit_report(run_bench(config, jobs=2))



def test_bench_parallel_finals_hold_the_parents_graph():
    """Under a `pmap` that pickles each task and its result, as a process
    pool does, every final that reaches the oracle or the certificate holds
    the parent's graph, so a task pickles one graph, not two."""
    import pickle

    import clawpack.bench as bench

    spec = MEMO_SUITE["instances"][0]
    inst, g = instance_from_gen_spec(spec["gen"])
    finals = []

    def pmap(fn, tasks):
        if fn is bench._optimum:
            finals.extend(t[2] for t in tasks)
        elif fn is bench._certify:
            finals.extend(s for t in tasks for s in t[:2])
        return [pickle.loads(pickle.dumps(fn(*pickle.loads(pickle.dumps(t))))) for t in tasks]

    rows = bench._run_phases([(spec["id"], g, inst, spec)], MEMO_SUITE["algorithms"], [0, 1], 20,
                             Fraction(1, 2), pmap)
    assert len(finals) > 1 and all(final.g is g for final in finals)
    serial = bench._run_phases([(spec["id"], g, inst, spec)], MEMO_SUITE["algorithms"], [0, 1], 20,
                               Fraction(1, 2), lambda fn, tasks: [fn(*t) for t in tasks])
    assert emit_report(bench.BenchReport(rows)) == emit_report(bench.BenchReport(serial))


def test_bench_rows_from_a_graph_holding_mpmath_powers_pickle_to_the_serial_rows():
    """Non-integer param rows leave the graph's table of w(v)**alpha filled
    with mpmath floats; the graph pickles with it, and under a `pmap` that
    pickles each task, as `--jobs 2` does, gives the serial rows again."""
    import pickle

    import clawpack.bench as bench

    algos = [{"algo": "parametrized", "alpha": alpha, "cap_c": "1"} for alpha in ("1/2", "-1/2", "2")]
    instances = []
    for spec in ({"id": "b4", "gen": {"family": "berman", "d": 4}, "start": [0, 1, 2]},
                 # from its optimum, a fixed point at alpha 1/2 but not at -1/2
                 {"id": "nu", "gen": {"family": "random", "sets": 10, "k": 3, "universe": 8,
                                      "dist": "near-unit:1/20", "seed": 0}, "start": [1, 6, 9]}):
        inst, g = instance_from_gen_spec(spec["gen"])
        instances.append((spec["id"], g, inst, spec))

    def run(pmap):
        return emit_report(bench.BenchReport(bench._run_phases(instances, algos, [0], 20, Fraction(1, 2), pmap)))

    serial = run(lambda fn, tasks: [fn(*t) for t in tasks])
    g = instances[1][1]
    table = g._power_tables[Fraction(1, 2)]
    assert len(table) == g.n and Fraction(-1, 2) in g._power_tables
    copy = pickle.loads(pickle.dumps(g))
    assert copy._power_tables == g._power_tables and copy._power_tables[Fraction(1, 2)].alpha == table.alpha
    assert run(lambda fn, tasks: [pickle.loads(pickle.dumps(fn(*pickle.loads(pickle.dumps(t))))) for t in tasks]) == serial


def test_bench_optimum_sends_back_members_and_weight_not_the_graph():
    """A worker's optimum goes back to the parent as its members and its
    weight, which pickle smaller than the graph they came from."""
    import pickle

    import clawpack.bench as bench

    g = build_conflict_graph(gen_random_packing(30, 3, 30, seed=0))
    members, weight = bench._optimum(g, 40, None)
    res = exact_mwis(g, size_limit=40)
    assert members == res.best.members and weight == res.optimum_w
    assert len(pickle.dumps((members, weight))) < len(pickle.dumps(g))
    assert bench._optimum(g, 29, None) is None


def test_cli_gen_and_solve(tmp_path, runner):
    inst_path = tmp_path / "b4.ksp"
    out_path = tmp_path / "trace.json"
    r = runner.invoke(main, ["gen", "berman", "--d", "4", "--out", str(inst_path)])
    assert r.exit_code == 0, r.output
    assert formats.load(str(inst_path)) == berman_tight_instance(4)
    r = runner.invoke(
        main,
        ["solve", "--algo", "logimp", "--in", str(inst_path), "--out", str(out_path)],
    )
    assert r.exit_code == 0, r.output
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"iterations", "improvements", "final_members", "final_weight"}
    assert doc["final_weight"] == "6/1"


def test_cli_solve_exact(tmp_path, runner):
    inst_path = tmp_path / "b4.ksp"
    runner.invoke(main, ["gen", "berman", "--d", "4", "--out", str(inst_path)])
    r = runner.invoke(main, ["solve", "--exact", "--in", str(inst_path)])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["weight"] == "6/1" and doc["optimal"]


def test_cli_solve_deterministic_bytes(tmp_path, runner):
    inst_path = tmp_path / "r.ksp"
    runner.invoke(
        main,
        ["gen", "random", "--sets", "12", "--k", "3", "--universe", "9", "--seed", "4", "--out", str(inst_path)],
    )
    outs = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        r = runner.invoke(
            main,
            ["solve", "--algo", "logimp", "--seed", "7", "--in", str(inst_path), "--out", str(out)],
        )
        assert r.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_gen_cycle_and_lowerbound(tmp_path, runner):
    p1 = tmp_path / "cycle.mwis"
    r = runner.invoke(
        main, ["gen", "cycle", "--pairs", "3", "--d", "4", "--eps", "1/2", "--out", str(p1)]
    )
    assert r.exit_code == 0
    g = formats.load(str(p1))
    assert g.n == 6
    p2 = tmp_path / "lb.mwis"
    r = runner.invoke(
        main,
        ["gen", "lowerbound", "--d", "4", "--alpha", "1", "--eps", "1/2", "--girth", "5", "--out", str(p2)],
    )
    assert r.exit_code == 0
    g2 = formats.load(str(p2))
    assert g2.n == 25


def test_lowerbound_spec_ignores_a_seed():
    # suites pass one per instance; the lower-bound bases come from a catalog
    spec = {"family": "lowerbound", "d": 4, "alpha": "1", "eps": "1/2", "girth": 6}
    _, g = instance_from_gen_spec(spec)
    _, seeded = instance_from_gen_spec({**spec, "seed": 7})
    assert formats.to_text(seeded) == formats.to_text(g)


def test_cli_verify(tmp_path, runner):
    inst_path = tmp_path / "b4.ksp"
    sol_path = tmp_path / "sol.json"
    runner.invoke(main, ["gen", "berman", "--d", "4", "--out", str(inst_path)])
    sol_path.write_text(json.dumps({"members": [0, 1, 2]}))
    r = runner.invoke(main, ["verify", "--in", str(inst_path), "--solution", str(sol_path), "--delta", "1/2"])
    assert r.exit_code == 0, r.output
    doc = json.loads(r.output)
    assert doc["flags"]["charge_bound_ok"] is True
    # a solution that is not maximal is refused before any certificate
    sol_path.write_text(json.dumps({"members": [3]}))
    r2 = runner.invoke(main, ["verify", "--in", str(inst_path), "--solution", str(sol_path)])
    assert r2.exit_code == 1 and "not maximal" in r2.output


def test_cli_verify_exits_1_when_a_bound_fails(tmp_path, runner):
    """The light side of an alternating cycle is maximal but no claw fixed
    point: `verify` writes its certificate, whose contribution bound
    fails, and exits 1."""
    inst_path = tmp_path / "c.mwis"
    sol_path = tmp_path / "sol.json"
    runner.invoke(main, ["gen", "cycle", "--pairs", "3", "--d", "4", "--eps", "1/2", "--out", str(inst_path)])
    sol_path.write_text(json.dumps({"members": [0, 2, 4]}))
    r = runner.invoke(main, ["verify", "--in", str(inst_path), "--solution", str(sol_path)])
    assert r.exit_code == 1
    flags = json.loads(r.output)["flags"]
    assert flags["contribution_bound_ok"] is False and flags["charge_bound_ok"] is True


def test_cli_constants(runner):
    r = runner.invoke(main, ["constants", "--delta", "1/2"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["all_ok"] is True and doc["d_delta"] == 1600001
    r2 = runner.invoke(main, ["constants", "--delta", "999/1000", "--eps-prime", "1/5"])
    assert r2.exit_code == 1


def test_cli_bench_deterministic_and_exit(tmp_path, runner):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(suite_doc()))
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        r = runner.invoke(main, ["bench", "--suite", str(suite), "--out", str(out)])
        assert r.exit_code == 0, r.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_bench_exits_1_when_a_row_errors(tmp_path, runner):
    """An algorithm whose claw bound is below 2 fails every row in
    `_resolve_d`; `bench` writes the rows with their errors and exits 1."""
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({**suite_doc(), "algorithms": [{"algo": "squareimp", "d": 1}]}))
    out = tmp_path / "out.json"
    r = runner.invoke(main, ["bench", "--suite", str(suite), "--out", str(out)])
    assert r.exit_code == 1
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2 and all(row["error"] == "InputError: claw bound d must be >= 2" for row in rows)


def test_cli_solve_unit_flag(tmp_path, runner):
    inst_path = tmp_path / "w.ksp"
    inst_path.write_text("p ksp 2 2 4\ns 5/1 0 1\ns 1/1 2 3\n")
    r = runner.invoke(main, ["solve", "--algo", "squareimp", "--unit", "--in", str(inst_path)])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["final_weight"] == "2/1"  # both sets picked at unit weight


def test_cli_solve_cc_flags(tmp_path, runner):
    inst_path = tmp_path / "b4.ksp"
    runner.invoke(main, ["gen", "berman", "--d", "4", "--out", str(inst_path)])
    r = runner.invoke(
        main, ["solve", "--algo", "logimp", "--cc-mode", "rand", "--seed", "1", "--in", str(inst_path)]
    )
    assert r.exit_code == 0, r.output
    doc = json.loads(r.output)
    assert doc["final_weight"] == "6/1"


def test_cli_bench_jobs_flag(tmp_path, runner):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(suite_doc()))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, ["bench", "--suite", str(suite), "--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, ["bench", "--suite", str(suite), "--jobs", "3", "--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_solve_mwis_file_with_claw_bound(tmp_path, runner):
    path = tmp_path / "c.mwis"
    runner.invoke(main, ["gen", "cycle", "--pairs", "3", "--d", "4", "--eps", "1/2", "--out", str(path)])
    # graph files carry no claw bound; squareimp needs it on the command line
    r_missing = runner.invoke(main, ["solve", "--algo", "squareimp", "--in", str(path)])
    assert r_missing.exit_code != 0
    r = runner.invoke(main, ["solve", "--algo", "squareimp", "--d", "4", "--in", str(path)])
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["final_members"]


def test_cli_rand_circular_search_needs_the_packing_instance(tmp_path, runner):
    path = tmp_path / "c.mwis"
    runner.invoke(main, ["gen", "cycle", "--pairs", "3", "--d", "4", "--eps", "1/2", "--out", str(path)])
    r = runner.invoke(main, ["solve", "--algo", "logimp", "--d", "4", "--cc-mode", "rand", "--in", str(path)])
    assert r.exit_code == 1
    assert r.output == "Error: randomized circular search needs the packing instance\n"
    assert isinstance(r.exception, SystemExit)


def test_cli_logimp_on_a_packing_whose_injectivity_bound_underflows(tmp_path, runner):
    """k=130 sets over 790 elements: the color-coding repetitions come from
    an injectivity bound below float range, and the solve still succeeds."""
    path = tmp_path / "big.ksp"
    r_gen = runner.invoke(
        main, ["gen", "random", "--sets", "40", "--k", "130", "--universe", "790", "--seed", "1", "--out", str(path)]
    )
    assert r_gen.exit_code == 0, r_gen.output
    r = runner.invoke(main, ["solve", "--algo", "logimp", "--in", str(path)])
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["final_members"]


def test_bench_path_instances(tmp_path, runner):
    inst_path = tmp_path / "r.ksp"
    runner.invoke(
        main, ["gen", "random", "--sets", "10", "--k", "3", "--universe", "8", "--seed", "2", "--out", str(inst_path)]
    )
    config = {
        "instances": [{"id": "fromfile", "path": str(inst_path)}],
        "algorithms": [{"algo": "squareimp"}],
        "seeds": [0],
    }
    report = run_bench(config)
    assert len(report.rows) == 1 and not report.rows[0].error
    assert report.rows[0].cert == "pass"


def test_cli_roundtrip_gen_outputs_deterministic(tmp_path, runner):
    for cmd in (
        ["gen", "berman", "--d", "5"],
        ["gen", "cycle", "--pairs", "4", "--d", "5", "--eps", "1/3"],
        ["gen", "lowerbound", "--d", "4", "--alpha", "1", "--eps", "1/2", "--girth", "6"],
        ["gen", "random", "--sets", "8", "--k", "3", "--universe", "9", "--seed", "2"],
    ):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert runner.invoke(main, cmd + ["--out", str(f1)]).exit_code == 0
        assert runner.invoke(main, cmd + ["--out", str(f2)]).exit_code == 0
        assert f1.read_bytes() == f2.read_bytes()


# A well-formed suite; each malformed one below changes one field of it.
BAD_SUITE = {
    "instances": [{"id": "b4", "gen": {"family": "berman", "d": 4}}],
    "algorithms": [{"algo": "squareimp"}],
}

BAD_INPUTS = {
    "k0.ksp": "p ksp 1 0 3\ns 1 0\n",
    "bad.json": '{"kind": "ksp",',
    "list.json": "[]",
    "path.mwis": "p mwis 2 1\nv 0 1\nv 1 2\ne 0 1\n",
    "suite.json": json.dumps({"instances": [{"id": "x", "gen": {"family": "nope"}}]}),
    "noid.json": json.dumps({"instances": [{"gen": {"family": "berman", "d": 4}}]}),
    "strmembers.json": json.dumps({"members": ["a"]}),
    "seeds.json": json.dumps({**BAD_SUITE, "seeds": ["x"]}),
    "seeds2.json": json.dumps({**BAD_SUITE, "seeds": "12"}),
    "seeds3.json": json.dumps({**BAD_SUITE, "seeds": [True, 2.9]}),
    "limit.json": json.dumps({**BAD_SUITE, "oracle_limit": "abc"}),
    "limit2.json": json.dumps({**BAD_SUITE, "oracle_limit": True}),
    "delta.json": json.dumps({**BAD_SUITE, "delta": "x"}),
    "delta2.json": json.dumps({**BAD_SUITE, "delta": "2"}),
    "nopath.json": json.dumps({**BAD_SUITE, "instances": [{"id": "x", "path": "missing.ksp"}]}),
    "algo.json": json.dumps({**BAD_SUITE, "algorithms": ["squareimp"]}),
    "noalgo.json": json.dumps({**BAD_SUITE, "algorithms": [{"alpha": "2"}]}),
    "genfield.json": json.dumps({**BAD_SUITE, "instances": [
        {"id": "r", "gen": {"family": "random", "sets": "x", "k": 3, "universe": 9}}]}),
    "noinst.json": json.dumps({**BAD_SUITE, "instances": ""}),
    "instdict.json": json.dumps({**BAD_SUITE, "instances": BAD_SUITE["instances"][0]}),
    "noalgos.json": json.dumps({**BAD_SUITE, "algorithms": {}}),
    "gend.json": json.dumps({**BAD_SUITE, "instances": [{"id": "b", "gen": {"family": "berman", "d": 4.9}}]}),
    "gensets.json": json.dumps({**BAD_SUITE, "instances": [
        {"id": "r", "gen": {"family": "random", "sets": 12.7, "k": 3, "universe": 9}}]}),
    "genpairs.json": json.dumps({**BAD_SUITE, "instances": [
        {"id": "c", "gen": {"family": "cycle", "pairs": "4", "d": 5, "eps": "1/2"}}]}),
}


@pytest.mark.parametrize("args", [
    ["solve", "--in", "k0.ksp"],
    ["solve", "--in", "bad.json"],
    ["solve", "--in", "list.json"],
    ["solve", "--in", "path.mwis"],  # no claw bound
    ["solve", "--in", "path.mwis", "--d", "3", "--algo", "param", "--alpha", "x"],
    ["solve", "--in", "path.mwis", "--d", "3", "--algo", "param"],  # no alpha
    ["solve", "--in", "path.mwis", "--d", "3", "--algo", "param", "--alpha", "1/2"],  # not an integer
    ["solve", "--in", "path.mwis", "--d", "3", "--algo", "param", "--alpha", "-3/2"],
    ["solve", "--in", "path.mwis", "--d", "3", "--cap-c", "1/0"],
    ["solve", "--in", "path.mwis", "--d", "3", "--cap-c", "-1"],
    ["bench", "--suite", "suite.json", "--out", "out.csv"],
    ["bench", "--suite", "noid.json", "--out", "out.csv"],
    ["bench", "--suite", "bad.json", "--out", "out.csv"],
    ["bench", "--suite", "list.json", "--out", "out.csv"],  # not an object
    ["bench", "--suite", "seeds.json", "--out", "out.csv"],
    ["bench", "--suite", "seeds2.json", "--out", "out.csv"],  # a string, not a list
    ["bench", "--suite", "seeds3.json", "--out", "out.csv"],  # a bool and a float
    ["bench", "--suite", "limit.json", "--out", "out.csv"],
    ["bench", "--suite", "limit2.json", "--out", "out.csv"],  # a bool
    ["bench", "--suite", "delta.json", "--out", "out.csv"],
    ["bench", "--suite", "delta2.json", "--out", "out.csv"],  # outside (0, 1)
    ["bench", "--suite", "nopath.json", "--out", "out.csv"],
    ["bench", "--suite", "algo.json", "--out", "out.csv"],
    ["bench", "--suite", "noalgo.json", "--out", "out.csv"],
    ["bench", "--suite", "genfield.json", "--out", "out.csv"],
    ["bench", "--suite", "noinst.json", "--out", "out.csv"],  # a string, not a list
    ["bench", "--suite", "instdict.json", "--out", "out.csv"],  # one instance, not a list
    ["bench", "--suite", "noalgos.json", "--out", "out.csv"],  # an object, not a list
    ["bench", "--suite", "gend.json", "--out", "out.csv"],  # a float
    ["bench", "--suite", "gensets.json", "--out", "out.csv"],  # a float
    ["bench", "--suite", "genpairs.json", "--out", "out.csv"],  # a string
    ["verify", "--in", "k0.ksp", "--solution", "bad.json"],
    ["verify", "--in", "path.mwis", "--solution", "bad.json"],
    ["verify", "--in", "path.mwis", "--solution", "strmembers.json"],
    ["constants", "--delta", "5"],
    ["constants", "--delta", "1/2", "--eps-prime", "-1"],
    ["constants", "--delta", "1/2", "--eps-prime", "0"],
    ["constants", "--delta", "1/2", "--eps-prime", "1/2"],  # 1 - sqrt(2 eps') = 0
    ["solve", "--in", "."],  # a directory
    ["solve", "--in", "path.mwis", "--d", "3", "--out", "missing/x.json"],
    ["gen", "berman", "--d", "4", "--out", "missing/x.ksp"],
    ["gen", "berman", "--d", "2", "--out", "x.ksp"],
    ["gen", "random", "--sets", "5", "--k", "3", "--universe", "9", "--seed", "0", "--dist", "uniform:0",
     "--out", "x.ksp"],
    ["gen", "random", "--sets", "5", "--k", "3", "--universe", "9", "--seed", "0", "--dist", "uniform:x",
     "--out", "x.ksp"],
    ["gen", "lowerbound", "--d", "4", "--alpha", "1", "--eps", "1/2", "--girth", "9", "--out", "x.ksp"],
])
def test_cli_bad_input_is_an_error_not_a_traceback(tmp_path, monkeypatch, runner, args):
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    r = runner.invoke(main, args, catch_exceptions=False)
    assert r.exit_code == 1
    assert r.output.startswith("Error: ")
    assert "Traceback" not in r.output


@pytest.mark.parametrize("suite, message", [
    ("noinst.json", "suite field 'instances' is malformed: '' (want a list)"),
    ("instdict.json", "suite field 'instances' is malformed: {'id': 'b4', "),
    ("noalgos.json", "suite field 'algorithms' is malformed: {} (want a list)"),
    ("gend.json", "suite instance {'id': 'b', "),
    ("gend.json", "field 'd' wants an integer, got 4.9"),
    ("gensets.json", "suite instance {'id': 'r', "),
    ("gensets.json", "field 'sets' wants an integer, got 12.7"),
    ("genpairs.json", "suite instance {'id': 'c', "),
    ("genpairs.json", "field 'pairs' wants an integer, got '4'"),
])
def test_cli_bench_names_the_malformed_field(tmp_path, monkeypatch, runner, suite, message):
    """A suite's instances and algorithms must each be a list, and a gen
    spec's integer fields JSON integers: anything else is an error that
    names the field (and the instance), raised before any row runs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / suite).write_text(BAD_INPUTS[suite], encoding="utf-8")
    r = runner.invoke(main, ["bench", "--suite", suite, "--out", "out.csv"], catch_exceptions=False)
    assert r.exit_code == 1
    assert r.output.startswith("Error: ") and message in r.output
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("d", [4.5, "4", True])
def test_bench_bad_algorithm_d_is_the_rows_error(d):
    """An algorithm's claw bound `d` takes only a JSON integer; anything
    else fails that row, as a bad alpha does, and names the field."""
    (row,) = run_bench({**BAD_SUITE, "algorithms": [{"algo": "squareimp", "d": d}]}).rows
    assert row.error == f"TypeError: field 'd' wants an integer, got {d!r}"
    assert row.cert == "error" and row.final_w is None


@pytest.mark.parametrize("args", [
    ["solve", "--exact", "--in", "r45.ksp"],
    ["verify", "--in", "r45.ksp", "--solution", "one.json"],
])
def test_cli_reports_the_oracle_size_limit_without_advice(tmp_path, monkeypatch, runner, args):
    """No CLI option sets the oracle's size limit, so the message names the
    limit and suggests nothing."""
    monkeypatch.chdir(tmp_path)
    formats.dump(gen_random_packing(45, 3, 60, seed=0), "r45.ksp")
    (tmp_path / "one.json").write_text(json.dumps({"members": [0]}), encoding="utf-8")
    r = runner.invoke(main, args, catch_exceptions=False)
    assert r.exit_code == 1
    assert r.output == "Error: n=45 exceeds oracle size limit 40\n"


def load_bench_record():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "bench_record.py")
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "bad, message",
    [
        (None, None),
        (("tight-union", 1, 0), "tight-union --trace 1: exit 0, correct: False"),
        (("small-exact", 0, 1), "small-exact --trace 0: exit 1, correct: None"),
        ("slow", "large: squareimp at n = 102400 took 1.5 s, gate 1.0 s"),
        ("capped", "large: logimp at n = 409600 did not complete: SearchIncompleteError: aux graph exceeded 200000 vertices"),
        ("crashed", "large: logimp at n = 409600 did not complete: exit -9"),
    ],
)
def test_bench_record_exits_1_on_an_incorrect_run(bad, message, tmp_path, monkeypatch, capsys):
    """A run that exits 0 but reports `correct: false`, or that fails, fails
    the record and is named on stderr, and so do squareimp past its gate
    at the smallest `large` point and a `large` point whose logimp raised
    or whose child process failed; the file is still written."""
    br = load_bench_record()

    def fake_run_one(workload, trace):
        if bad is None or (workload, trace) != bad[:2]:
            return {"workload": workload, "trace": trace, "args": [], "exit_code": 0,
                    "result": {"correct": True, "metrics": {}}}
        code = bad[2]
        return {"workload": workload, "trace": trace, "args": [], "exit_code": code,
                "result": None if code else {"correct": False, "metrics": {}}}

    monkeypatch.setattr(br, "run_one", fake_run_one)
    monkeypatch.setattr(br, "scale_curve", lambda: [])
    monkeypatch.setattr(br, "oracle_curve", lambda: [])
    last = {"n": 409600, "squareimp_s": 4.0, "logimp_s": 9.0}
    if bad == "capped":
        last = {"n": 409600, "squareimp_s": 4.0, "logimp_error": "SearchIncompleteError: aux graph exceeded 200000 vertices"}
    elif bad == "crashed":
        last = {"n": 409600, "exit_code": -9, "stderr_tail": []}
    monkeypatch.setattr(br, "large_curve", lambda: [{"n": 102400, "squareimp_s": 1.5 if bad == "slow" else 0.5}, last])
    monkeypatch.setattr(br, "ROOT", str(tmp_path))
    monkeypatch.setattr("sys.argv", ["bench_record.py", "--tag", "t"])
    code = br.main()
    err = capsys.readouterr().err
    runs = json.loads((tmp_path / "BENCH_t.json").read_text())["runs"]
    assert len(runs) == 6
    if bad is None:
        assert code == 0 and err == ""
    else:
        assert code == 1 and err.splitlines() == [message]


def test_bench_record_large_point_records_a_capped_logimp(monkeypatch, capsys):
    """A `large` point whose logimp crosses the aux-vertex cap gives the
    error in place of its time, and the other layers' times still."""
    from clawpack import circular

    br = load_bench_record()
    monkeypatch.setattr(circular, "_MAX_AUX_VERTICES", 10)
    br.large_point(200)
    point = json.loads(capsys.readouterr().out)
    assert set(point) == {"n", "vertices", "gen_s", "build_s", "squareimp_s", "squareimp_iterations",
                          "logimp_error", "peak_rss_mb", "peak_rss_kb_per_set"}
    assert point["logimp_error"] == "SearchIncompleteError: aux graph exceeded 10 vertices"
    assert point["n"] == point["vertices"] == 200 and point["peak_rss_mb"] > 0
    assert abs(point["peak_rss_kb_per_set"] * 200 / 1024 - point["peak_rss_mb"]) < 0.1


def test_bench_record_times_the_scale_curve(tmp_path, monkeypatch):
    """With tiny sizes, the file's `scale` key holds one point per
    tight-union size and circular mode, per k=3 packing size and algorithm,
    per wider packing, and per tight-instance d and algorithm, each timed
    `SCALE_REPEATS` times, the tight-instance points with their talon
    nodes and the second tight-union size with its growth over the first;
    the `oracle` key holds unseeded and seeded node counts, and
    seeded only past `ORACLE_N`; the `large` key holds one point per size,
    each run in its own process, with every layer's time and its peak
    RSS, in all and per set."""
    br = load_bench_record()
    monkeypatch.setattr(br, "SCALE_COPIES", (1, 2))
    monkeypatch.setattr(br, "SCALE_N", (20, 40))
    monkeypatch.setattr(br, "SCALE_WIDE", ((5, 20), (7, 20)))
    monkeypatch.setattr(br, "SCALE_TIGHT_D", (4, 12))
    monkeypatch.setattr(br, "ORACLE_N", (10, 20))
    monkeypatch.setattr(br, "ORACLE_SEEDED_N", (30,))
    monkeypatch.setattr(br, "LARGE_N", (100, 200))
    monkeypatch.setattr(br, "run_one", lambda workload, trace: {
        "workload": workload, "trace": trace, "args": [], "exit_code": 0,
        "result": {"correct": True, "metrics": {}}})
    monkeypatch.setattr(br, "ROOT", str(tmp_path))
    monkeypatch.setattr("sys.argv", ["bench_record.py", "--tag", "t"])
    assert br.main() == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    scale = doc["scale"]
    keys = [(p["suite"], p["size"], p["algo"]) for p in scale]
    assert keys == [
        ("tight-union", 1, "logimp-exhaustive"), ("tight-union", 1, "logimp-rand"),
        ("tight-union", 2, "logimp-exhaustive"), ("tight-union", 2, "logimp-rand"),
        ("rand-k3", 20, "squareimp"), ("rand-k3", 20, "logimp"),
        ("rand-k3", 40, "squareimp"), ("rand-k3", 40, "logimp"),
        ("rand-k5", 20, "squareimp"), ("rand-k7", 20, "squareimp"),
        ("tight", 4, "squareimp"), ("tight", 4, "logimp"),
        ("tight", 12, "squareimp"), ("tight", 12, "logimp"),
    ]
    point_keys = {"suite", "size", "vertices", "algo", "iterations", "wall_s", "walls_s"}
    extra = {("tight", d): {"talon_nodes"} for d in (4, 12)} | {("tight-union", 2): {"wall_ratio"}}
    for p in scale:
        assert set(p) == point_keys | extra.get((p["suite"], p["size"]), set())
        assert p["vertices"] > 0 and p["iterations"] > 0
        assert len(p["walls_s"]) == br.SCALE_REPEATS and p["wall_s"] == sorted(p["walls_s"])[1] >= 0
    assert [p["vertices"] for p in scale[:4]] == [14, 14, 28, 28]
    assert all(p["wall_ratio"] > 0 for p in scale[2:4])
    # squareimp settles every center of the tight instance with no walk
    assert [p["talon_nodes"] for p in scale[-4:] if p["algo"] == "squareimp"] == [0, 0]
    assert [p["vertices"] for p in scale[-4:]] == [9, 9, 77, 77]
    oracle = doc["oracle"]
    assert [p["n"] for p in oracle] == [10, 20, 30]
    assert [set(p) for p in oracle] == [
        {"n", "nodes", "wall_s", "seeded_nodes", "seeded_wall_s"}] * 2 + [{"n", "seeded_nodes", "seeded_wall_s"}]
    assert all(p["seeded_nodes"] <= p["nodes"] for p in oracle[:2])
    large = doc["large"]
    assert [p["n"] for p in large] == [100, 200]
    assert all(set(p) == {"n", "vertices", "gen_s", "build_s", "squareimp_s", "squareimp_iterations",
                          "logimp_s", "logimp_iterations", "peak_rss_mb", "peak_rss_kb_per_set"} for p in large)
    assert all(p["squareimp_iterations"] > 0 and p["peak_rss_mb"] > 0 for p in large)
    assert all(abs(p["peak_rss_kb_per_set"] * p["n"] / 1024 - p["peak_rss_mb"]) < 0.1 for p in large)
