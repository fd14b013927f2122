"""Record one point of the performance trajectory: run clawbench on every
workload, untraced and traced, time the scale curve, and write the results
to one file.

    python3 scripts/bench_record.py --tag 7

Run it from anywhere; it runs `clawbench/run.py` from the repository root
with seed 0 and the benchmark's 25 s run length, one workload and mode at a
time, and writes `BENCH_<tag>.json` there with the Python version, the CPU
count (`nproc`) and, per run, the command's arguments, exit code and its
last output line parsed as JSON, or the tail of its stderr if it failed.
Under `scale` it lists three seed-0 `solve` timings and their median per
point of the scale curve, which clawbench does not cover, with the
talon-search nodes of the tight-instance points and, per circular mode,
the growth of the tight-union time from one copy count to the next (see
`scale_curve`), under `input` the median time of each layer of the input
path, from generating a packing to its conflict graph (see `input_curve`),
under `oracle` the nodes and time of `exact_mwis`, unseeded and seeded
with the logimp final, past the sizes clawbench runs it at (see
`oracle_curve`), and under `large` one timing of each layer from generating
a random packing to logimp, at sizes past the scale curve, with the peak
RSS of the process that ran it, in all and per set (see `large_curve`).
It exits 1, naming the runs, if any run failed or reported `correct: false`,
if squareimp at the smallest `large` point took more than
`LARGE_SQUAREIMP_GATE_S`, or if logimp at any `large` point raised or its
child process failed; the file is written either way.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
WORKLOADS = ("rand-k3", "tight-union", "small-exact")
# The scale curve: unions of this many shuffled tight copies
# (`clawbench.workloads.tight_union`), and random k=3 packings of n sets.
SCALE_COPIES = (40, 160, 640)
SCALE_N = (400, 800, 1600, 3200, 6400)
# Wider sets, squareimp only: random k-set packings of n sets, as (k, n).
SCALE_WIDE = ((5, 300), (7, 200))
# Berman's tight instance at these claw bounds d, from empty.
SCALE_TIGHT_D = (12, 16, 20)
# Timings per point of the scale curve; the point records their median.
SCALE_REPEATS = 3
# The input curve: random k=3 packings of n sets, generated, written, read
# back and turned into conflict graphs.
INPUT_N = SCALE_N + (25600,)
# The oracle curve: random k=3 packings of n sets, unseeded and seeded, and
# larger ones seeded only (n = 200, seeded, takes about 2 M nodes).
ORACLE_N = (40, 60, 80, 100, 120)
ORACLE_SEEDED_N = (150,)
# The large curve: random k=3 packings of n sets, one child process per
# point. logimp must complete from empty at every point, under the
# circular search's fixed caps.
LARGE_N = (102_400, 409_600)
LARGE_SQUAREIMP_GATE_S = 1.0


def run_one(workload: str, trace: int) -> dict:
    args = ["--workload", workload, "--seed", "0", "--seconds", "25", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, os.path.join("clawbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    run = {"workload": workload, "trace": trace, "args": args, "exit_code": proc.returncode}
    if proc.returncode == 0 and lines:
        run["result"] = json.loads(lines[-1])
    else:
        run["result"] = None
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-10:]
    return run


def scale_curve() -> list[dict]:
    """`SCALE_REPEATS` seed-0 timings per point, in-process: logimp in both
    circular modes on tight unions of `SCALE_COPIES` copies, started at the
    copies' small sides, and squareimp and logimp from empty on random k=3
    packings of n = `SCALE_N` sets over a universe of n elements (the
    `rand-k3` generator settings), and squareimp on random k-set packings of
    the (k, n) in `SCALE_WIDE`, with the same settings, where the claw
    search may take up to k talons, and squareimp and logimp from empty on
    `berman_tight_instance(d)` for d in `SCALE_TIGHT_D`. Each point gives
    its suite, size, vertex count, algorithm, iteration count, every
    `solve` wall time (`walls_s`) and their median (`wall_s`); the tight
    points also give the talon-search nodes of one more, untimed run
    (`talon_nodes`), and each tight-union point past the first copy count
    gives its median over that of the same mode at the copy count before
    (`wall_ratio`), so the 640-copy points read the 640/160 growth."""
    import clawpack
    from clawbench.workloads import TIGHT_UNION_D, tight_union
    from clawpack.generators import berman_tight_instance, gen_random_packing

    def point(suite, size, algo, g, cfg, inst, start=None):
        walls = []
        for _ in range(SCALE_REPEATS):
            t0 = time.perf_counter()
            trace = clawpack.solve(g, cfg, inst=inst, start=start)
            walls.append(time.perf_counter() - t0)
        return {"suite": suite, "size": size, "vertices": g.n, "algo": algo, "iterations": trace.iterations,
                "wall_s": statistics.median(walls), "walls_s": walls}

    points = []
    before = {}  # circular mode -> the median at the copy count before
    for copies in SCALE_COPIES:
        inst, small = tight_union(0, copies, TIGHT_UNION_D)
        g = clawpack.build_conflict_graph(inst)
        for mode in ("exhaustive", "rand"):
            params = clawpack.ColorCodingParams.defaults(g, inst, mode=mode)
            cfg = clawpack.SolverConfig(mode="logimp", rng_seed=0, circular=params)
            p = point("tight-union", copies, f"logimp-{mode}", g, cfg, inst, clawpack.Solution.of(g, small))
            if mode in before:
                p["wall_ratio"] = round(p["wall_s"] / before[mode], 2)
            before[mode] = p["wall_s"]
            points.append(p)
    for n in SCALE_N:
        inst = gen_random_packing(n, 3, n, weight_dist=("uniform", 10), seed=0)
        g = clawpack.build_conflict_graph(inst)
        for algo in ("squareimp", "logimp"):
            points.append(point("rand-k3", n, algo, g, clawpack.SolverConfig(mode=algo, rng_seed=0), inst))
    for k, n in SCALE_WIDE:
        inst = gen_random_packing(n, k, n, weight_dist=("uniform", 10), seed=0)
        g = clawpack.build_conflict_graph(inst)
        points.append(point(f"rand-k{k}", n, "squareimp", g, clawpack.SolverConfig(mode="squareimp", rng_seed=0), inst))
    for d in SCALE_TIGHT_D:
        inst = berman_tight_instance(d)
        g = clawpack.build_conflict_graph(inst)
        for algo in ("squareimp", "logimp"):
            cfg = clawpack.SolverConfig(mode=algo, rng_seed=0)
            p = point("tight", d, algo, g, cfg, inst)
            p["talon_nodes"] = talon_nodes(lambda: clawpack.solve(g, cfg, inst=inst))
            points.append(p)
    for p in points:
        p["wall_s"] = round(p["wall_s"], 4)
        p["walls_s"] = [round(w, 4) for w in p["walls_s"]]
    return points


def input_curve() -> list[dict]:
    """`SCALE_REPEATS` seed-0 timings per point, in-process, of the input
    path of a random k=3 packing of n = `INPUT_N` sets over a universe of n
    elements with `uniform:10` weights (the `rand-k3` settings):
    `gen_random_packing` (`gen_s`), `formats.dump` to a `.ksp` file
    (`dump_s`), `formats.load` of it (`load_s`) and `build_conflict_graph`
    of the loaded instance (`build_s`). Each point gives n, the median of
    each layer and the median of the per-repeat totals (`total_s`)."""
    import tempfile

    import clawpack
    from clawpack import formats
    from clawpack.generators import gen_random_packing

    points = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.ksp")
        for n in INPUT_N:
            runs = []
            for _ in range(SCALE_REPEATS):
                t0 = time.perf_counter()
                inst = gen_random_packing(n, 3, n, weight_dist=("uniform", 10), seed=0)
                t1 = time.perf_counter()
                formats.dump(inst, path)
                t2 = time.perf_counter()
                back = formats.load(path)
                t3 = time.perf_counter()
                clawpack.build_conflict_graph(back)
                t4 = time.perf_counter()
                runs.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3, t4 - t0))
            point = {"n": n}
            for i, name in enumerate(("gen_s", "dump_s", "load_s", "build_s", "total_s")):
                point[name] = round(statistics.median(r[i] for r in runs), 4)
            points.append(point)
    return points


def talon_nodes(run) -> int:
    """The subsets the improvement search's walk yields during run(): the
    talon-search nodes of a squareimp or logimp run."""
    from clawpack import oracle

    walk = oracle.independent_subsets
    nodes = 0

    def counted(*args):
        nonlocal nodes
        inner = walk(*args)
        deficit = None
        while True:
            try:
                x = inner.send(deficit)
            except StopIteration:
                return
            nodes += 1
            deficit = yield x

    oracle.independent_subsets = counted
    try:
        run()
    finally:
        oracle.independent_subsets = walk
    return nodes


def oracle_curve() -> list[dict]:
    """Seed-0 `exact_mwis` calls, in-process, on random k=3 packings of n
    sets over a universe of n elements with `uniform:10` weights: for n in
    `ORACLE_N` unseeded and seeded with the logimp final, as `run_bench`
    seeds it, and for n in `ORACLE_SEEDED_N` seeded only. Each point gives
    n and, per run, the node count and the wall time (`nodes`, `wall_s`;
    `seeded_nodes`, `seeded_wall_s`)."""
    import clawpack
    from clawpack.generators import gen_random_packing

    points = []
    for n in ORACLE_N + ORACLE_SEEDED_N:
        inst = gen_random_packing(n, 3, n, weight_dist=("uniform", 10), seed=0)
        g = clawpack.build_conflict_graph(inst)
        final = clawpack.solve(g, clawpack.SolverConfig(mode="logimp", rng_seed=0), inst=inst).final
        point = {"n": n}
        runs = [("seeded_", final)] if n in ORACLE_SEEDED_N else [("", None), ("seeded_", final)]
        for prefix, incumbent in runs:
            t0 = time.perf_counter()
            res = clawpack.exact_mwis(g, size_limit=n, incumbent=incumbent)
            point[f"{prefix}wall_s"] = round(time.perf_counter() - t0, 4)
            point[f"{prefix}nodes"] = res.nodes_explored
        points.append(point)
    return points


def large_point(n: int) -> None:
    """Print, as one JSON line, one seed-0 timing of each layer at a random
    k=3 packing of n sets over a universe of n elements with `uniform:10`
    weights (the `rand-k3` settings): `gen_random_packing` (`gen_s`),
    `build_conflict_graph` (`build_s`), and `solve` from empty in squareimp
    (`squareimp_s`) and in logimp, exhaustive (`logimp_s`), with the
    iteration counts of both, and then this process's peak RSS in MB
    (`peak_rss_mb`, from `ru_maxrss`) and in KB per set
    (`peak_rss_kb_per_set`). A logimp run that raises gives the error
    (`logimp_error`) instead of its time."""
    import resource

    import clawpack
    from clawpack.generators import gen_random_packing
    from clawpack.instances import BudgetExceededError

    point = {"n": n}
    t0 = time.perf_counter()
    inst = gen_random_packing(n, 3, n, weight_dist=("uniform", 10), seed=0)
    t1 = time.perf_counter()
    g = clawpack.build_conflict_graph(inst)
    t2 = time.perf_counter()
    point.update(vertices=g.n, gen_s=round(t1 - t0, 4), build_s=round(t2 - t1, 4))
    for algo in ("squareimp", "logimp"):
        t0 = time.perf_counter()
        try:
            trace = clawpack.solve(g, clawpack.SolverConfig(mode=algo, rng_seed=0), inst=inst)
        except BudgetExceededError as exc:
            point[f"{algo}_error"] = f"{type(exc).__name__}: {exc}"
            continue
        point[f"{algo}_s"] = round(time.perf_counter() - t0, 4)
        point[f"{algo}_iterations"] = trace.iterations
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    point.update(peak_rss_mb=round(rss_kb / 1024, 1), peak_rss_kb_per_set=round(rss_kb / n, 3))
    print(json.dumps(point))


def large_curve() -> list[dict]:
    """`large_point(n)` for n in `LARGE_N`, each in a new child process, so
    each point's peak RSS is its own; a child that fails gives its exit
    code and the tail of its stderr."""
    scripts = os.path.dirname(os.path.abspath(__file__))
    points = []
    for n in LARGE_N:
        code = f"import sys; sys.path.insert(0, {scripts!r}); import bench_record; bench_record.large_point({n})"
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            points.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        else:
            points.append({"n": n, "exit_code": proc.returncode, "stderr_tail": proc.stderr.strip().splitlines()[-10:]})
    return points


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="file name suffix: BENCH_<tag>.json")
    opts = ap.parse_args()
    runs = [run_one(w, trace) for w in WORKLOADS for trace in (0, 1)]
    doc = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "runs": runs,
        "scale": scale_curve(),
        "input": input_curve(),
        "oracle": oracle_curve(),
        "large": large_curve(),
    }
    path = os.path.join(ROOT, f"BENCH_{opts.tag}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    status = 0
    for r in runs:
        correct = (r["result"] or {}).get("correct")  # None when the run failed
        if not correct:
            print(f"{r['workload']} --trace {r['trace']}: exit {r['exit_code']}, correct: {correct}", file=sys.stderr)
            status = 1
    squareimp_s = doc["large"][0].get("squareimp_s")
    if squareimp_s is None or squareimp_s > LARGE_SQUAREIMP_GATE_S:
        print(f"large: squareimp at n = {LARGE_N[0]} took {squareimp_s} s, gate {LARGE_SQUAREIMP_GATE_S} s", file=sys.stderr)
        status = 1
    for p in doc["large"]:
        if "logimp_error" in p or "exit_code" in p:
            why = p.get("logimp_error") or f"exit {p['exit_code']}"
            print(f"large: logimp at n = {p['n']} did not complete: {why}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
