"""Run clawbench on a base revision and on the working tree in alternating
pairs, and judge each end-to-end metric of `BENCHMARK.json`.

    python3 scripts/paired.py --base HEAD~1 --workload rand-k3 --seed 0 --pairs 10 --seconds 8

The base revision is checked out with `git worktree add --detach` into a
temporary directory, and `clawbench/run.py --trace 0` runs there and in
the working tree in turn, the base first in odd pairs and the head first in
even ones. Each run builds clawpack from its own tree's `src/`. Per metric
the script prints both medians, the interquartile range of the base runs
(the inclusive quartiles of `statistics.quantiles`), the change of the
head's median in %, the head's wins (pairs where it is better; ties count
for neither) and a verdict from the metric's `better` and `bound`:
"gain" when the head wins at least 9 of every 10 pairs and its median is
better by more than the base IQR, "regression" when its median is worse
by more than the bound, and "within bound" otherwise.

The script refuses to run (exit 2) when `clawbench/` or `BENCHMARK.json`
differ between the base and the working tree, as the two sides would then
run different benchmarks. It exits 1 on a run that fails or reports
`correct: false`, and 0 otherwise, whatever the verdicts. The worktree is
removed on every exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = ("clawbench", "BENCHMARK.json")


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)


def summarize(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """The summary of one metric over pairs (base[i], head[i])."""
    base_median, head_median = statistics.median(base), statistics.median(head)
    q = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else [base[0]] * 3
    iqr = q[2] - q[0]
    sign = 1 if better == "lower" else -1  # > 0: the head is better
    gap = sign * (base_median - head_median)
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    if 10 * wins >= 9 * len(base) and gap > iqr:
        verdict = "gain"
    elif -gap > bound * abs(base_median):
        verdict = "regression"
    else:
        verdict = "within bound"
    change = 100 * (head_median - base_median) / base_median if base_median else 0.0
    return {"base_median": base_median, "head_median": head_median, "base_iqr": iqr,
            "change_pct": change, "wins": wins, "pairs": len(base), "verdict": verdict}


def run_bench(tree: str, args) -> dict:
    """One untraced clawbench run in `tree`: its result object, or an
    error naming the tree when it fails or is not correct."""
    cmd = [sys.executable, os.path.join("clawbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-5:])
        raise RuntimeError(f"clawbench in {tree}: exit {proc.returncode}, "
                           f"correct: {result and result['correct']}\n{tail}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the git revision to compare the working tree with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args(argv)

    rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    if rev.returncode:
        print(f"paired: {args.base!r} is not a commit of {ROOT}: {rev.stderr.strip()}", file=sys.stderr)
        return 2
    sha = rev.stdout.strip()
    if git("diff", "--quiet", sha, "--", *BENCH_FILES).returncode:
        print(f"paired: {' or '.join(BENCH_FILES)} differ between {args.base} and the working tree",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    tmp = tempfile.mkdtemp(prefix="paired-")
    base_tree = os.path.join(tmp, "base")
    values = {"base": {m["name"]: [] for m in metrics}, "head": {m["name"]: [] for m in metrics}}
    try:
        added = git("worktree", "add", "--detach", base_tree, sha)
        if added.returncode:
            print(f"paired: git worktree add failed: {added.stderr.strip()}", file=sys.stderr)
            return 2
        trees = {"base": base_tree, "head": ROOT}
        for i in range(1, args.pairs + 1):
            for side in (("base", "head") if i % 2 else ("head", "base")):
                result = run_bench(trees[side], args)
                for m in metrics:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"pair {i}/{args.pairs} done", file=sys.stderr, flush=True)
    except RuntimeError as exc:
        print(f"paired: {exc}", file=sys.stderr)
        return 1
    finally:
        git("worktree", "remove", "--force", base_tree)
        git("worktree", "prune")
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"base {args.base} ({sha[:12]}) vs head (working tree): workload {args.workload}, "
          f"seed {args.seed}, {args.pairs} pairs, --seconds {args.seconds}")
    print(f"{'metric':<14} {'base':>10} {'head':>10} {'base IQR':>10} {'change':>9} {'wins':>6}  verdict")
    for m in metrics:
        name = m["name"]
        s = summarize(values["base"][name], values["head"][name], m["better"], m["bound"])
        print(f"{name:<14} {s['base_median']:>10.4g} {s['head_median']:>10.4g} {s['base_iqr']:>10.3g} "
              f"{s['change_pct']:>+8.1f}% {s['wins']:>3}/{s['pairs']:<2}  {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
