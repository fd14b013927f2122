"""`scripts/paired.py`: the summary of one metric over fixed pairs, and one
short paired run against HEAD that leaves no worktree behind."""

import importlib.util
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "paired.py")


def load_paired():
    spec = importlib.util.spec_from_file_location("paired", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # median 1.45, IQR 1.675 - 1.225 = 0.45


@pytest.mark.parametrize(
    "head, better, bound, wins, verdict",
    [
        ([b - 0.5 for b in BASE], "lower", 0.25, 10, "gain"),
        ([b - 0.4 for b in BASE], "lower", 0.25, 10, "within bound"),  # gap 0.4 is inside the IQR
        ([b - 0.5 for b in BASE[:8]] + [b + 0.5 for b in BASE[8:]], "lower", 0.25, 8, "within bound"),
        ([b + 0.4 for b in BASE], "lower", 0.25, 0, "regression"),  # +27.6 %
        ([b + 0.3 for b in BASE], "lower", 0.25, 0, "within bound"),  # +20.7 %
        ([b + 0.5 for b in BASE], "higher", 0.25, 10, "gain"),
        ([b - 0.4 for b in BASE], "higher", 0.25, 0, "regression"),
        (list(BASE), "lower", 0.05, 0, "within bound"),  # ties count for neither
    ],
)
def test_summary_arithmetic(head, better, bound, wins, verdict):
    s = load_paired().summarize(BASE, head, better, bound)
    assert s["base_median"] == pytest.approx(1.45)
    assert s["base_iqr"] == pytest.approx(0.45)
    assert s["change_pct"] == pytest.approx(100 * (s["head_median"] - 1.45) / 1.45)
    assert (s["wins"], s["pairs"], s["verdict"]) == (wins, 10, verdict)


def worktrees() -> str:
    return subprocess.run(["git", "-C", ROOT, "worktree", "list", "--porcelain"],
                          capture_output=True, text=True, check=True).stdout


def skip_unless_git():
    inside = subprocess.run(["git", "-C", ROOT, "rev-parse", "--is-inside-work-tree"], capture_output=True, text=True)
    if inside.returncode or inside.stdout.strip() != "true":
        pytest.skip("the checkout is not a git repository")
    if subprocess.run(["git", "-C", ROOT, "diff", "--quiet", "HEAD", "--", "clawbench", "BENCHMARK.json"]).returncode:
        pytest.skip("clawbench/ or BENCHMARK.json differ from HEAD, so the script refuses to run")


def test_a_run_that_is_not_correct_is_an_error(tmp_path):
    bench = tmp_path / "clawbench"
    bench.mkdir()
    (bench / "run.py").write_text('import json\nprint(json.dumps({"correct": False, "metrics": {}}))\n')
    args = SimpleNamespace(workload="w", seed=0, seconds=0.1)
    with pytest.raises(RuntimeError, match="exit 0, correct: False"):
        load_paired().run_bench(str(tmp_path), args)


def test_a_failed_run_exits_1_and_removes_the_worktree(monkeypatch, capsys):
    skip_unless_git()
    paired = load_paired()
    seen = []

    def failing_run(tree, args):
        seen.append(os.listdir(tree))
        raise RuntimeError("clawbench failed")

    monkeypatch.setattr(paired, "run_bench", failing_run)
    before = worktrees()
    assert paired.main(["--base", "HEAD", "--workload", "tight-union", "--pairs", "1"]) == 1
    assert "clawbench" in seen[0] and capsys.readouterr().err == "paired: clawbench failed\n"
    assert worktrees() == before


def test_a_base_with_another_benchmark_is_refused(monkeypatch, capsys):
    skip_unless_git()
    paired = load_paired()
    git = paired.git
    monkeypatch.setattr(paired, "git", lambda *args: SimpleNamespace(returncode=1) if args[0] == "diff" else git(*args))
    assert paired.main(["--base", "HEAD", "--workload", "tight-union"]) == 2
    assert "clawbench or BENCHMARK.json differ" in capsys.readouterr().err


def test_one_pair_against_head_prints_every_metric_and_leaves_no_worktree():
    skip_unless_git()
    before = worktrees()
    proc = subprocess.run([sys.executable, SCRIPT, "--base", "HEAD", "--workload", "tight-union",
                           "--seed", "0", "--pairs", "1", "--seconds", "0.1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("base HEAD (") and "workload tight-union, seed 0, 1 pairs" in lines[0]
    assert lines[1].split() == ["metric", "base", "head", "base", "IQR", "change", "wins", "verdict"]
    names = [line.split()[0] for line in lines[2:]]
    assert names == ["wall_s", "op_s.p50", "cpu_s", "setup_s", "peak_rss_mb"]
    for line in lines[2:]:
        fields = line.split()
        assert fields[5] in ("0/1", "1/1") and fields[4].endswith("%")
        assert " ".join(fields[6:]) in ("gain", "regression", "within bound")
    assert worktrees() == before
