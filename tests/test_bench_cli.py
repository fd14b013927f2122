import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from clawpack import formats
from clawpack.bench import emit_report, report_from_json, run_bench
from clawpack.cli import main
from clawpack.generators import berman_tight_instance


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


def test_json_report_round_trip():
    report = run_bench(suite_doc())
    text = emit_report(report, fmt="json")
    again = report_from_json(text)
    assert [r.instance for r in again.rows] == [r.instance for r in report.rows]
    assert [r.final_w for r in again.rows] == [r.final_w for r in report.rows]


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


def test_cli_verify(tmp_path, runner):
    inst_path = tmp_path / "b4.ksp"
    sol_path = tmp_path / "sol.json"
    runner.invoke(main, ["gen", "berman", "--d", "4", "--out", str(inst_path)])
    sol_path.write_text(json.dumps({"members": [0, 1, 2]}))
    r = runner.invoke(main, ["verify", "--in", str(inst_path), "--solution", str(sol_path), "--delta", "1/2"])
    assert r.exit_code == 0, r.output
    doc = json.loads(r.output)
    assert doc["flags"]["charge_bound_ok"] is True
    # a non-fixed-point solution fails certification and exits nonzero
    sol_path.write_text(json.dumps({"members": [3]}))
    r2 = runner.invoke(main, ["verify", "--in", str(inst_path), "--solution", str(sol_path)])
    assert r2.exit_code == 1


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
        main,
        [
            "solve", "--algo", "logimp", "--cc-mode", "rand", "--cc-t", "32",
            "--cc-reps", "64", "--cc-maxlen", "12", "--cc-ycap", "3",
            "--seed", "1", "--in", str(inst_path),
        ],
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
