"""clawpack benchmark: one workload per process, checked, timed end to end
(untraced) or per layer (traced).

    python3 clawbench/run.py --workload rand-k3 --seed 0 --seconds 25 --trace 0

Run from the repository root; clawpack is imported from `src/`. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See clawbench/NOTES.md for the
workloads, the metrics and the known defects they count.
"""

import time

T_START = time.perf_counter()
# CPU time the interpreter spent before this line: its start-up and the site
# imports, which perf_counter cannot see.
BOOT_CPU_S = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3


def cpu_now() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(ops, probe):
    """Run every op once. Returns (wall, cpu, per-op walls, results, raw):
    times rescaled by `probe` (see probe.py), and the pass wall as measured."""
    walls, raw, results = [], 0.0, []
    c0 = cpu_now()
    for op in ops:
        mark = probe.mark()
        results.extend(op())
        measured, scaled = probe.since(mark)
        raw += measured
        walls.append(scaled)
    wall = sum(walls)
    # the parent only waits while a sample is taken; the child is reaped at
    # the end of the run, so its CPU time is not in os.times() yet
    cpu = (cpu_now() - c0) * (wall / raw)
    return wall, cpu, walls, results, raw


class Checker:
    """Compares each result with its reference digest and tallies failures."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.unpinned: list[str] = []

    def check(self, results) -> None:
        for r in results:
            self.attempted += 1
            ref = self.reference.get(r.key)
            if ref is None and r.key not in self.digests:
                self.unpinned.append(r.key)
            seen = self.digests.setdefault(r.key, r.digest)
            if r.failed:
                pass
            elif ref is not None and r.digest != ref:
                r.failed, r.reason = True, f"digest {r.digest} differs from reference {ref}"
            elif seen != r.digest:
                r.failed, r.reason = True, f"digest {r.digest} differs from earlier pass {seen}"
            if not r.failed:
                continue
            self.failed += 1
            if r.known_defect and (ref is None or r.digest == ref):
                self.known[r.known_defect] = self.known.get(r.known_defect, 0) + 1
            else:
                self.unexpected.append(f"{r.key}: {r.reason}")


def layer_metrics(tracer, wall_traced: float, wall_untraced: float, overhead_p50: float, checker: Checker) -> dict:
    from spans import Summary

    s = Summary(tracer)
    calls, incl, self_s, counts, layer = s.calls, s.incl, s.self_s, s.counts, s.layer
    claw_calls = calls["solvers.claw"]
    solve_s = incl["solvers.solve"]

    def share(x: float, base: float) -> float:
        return x / base if base else 0.0

    m = {
        "generators.s": (layer["generators"], "s"),
        "formats.load.s": (incl["formats.load"], "s"),
        "formats.dump.s": (incl["formats.dump"], "s"),
        "instances.build_conflict_graph.s": (incl["instances.build_conflict_graph"], "s"),
        "instances.build_conflict_graph.calls": (calls["instances.build_conflict_graph"], "count"),
        "instances.edges": (counts["instances.build_conflict_graph"]["edges"], "count"),
        "solvers.claw.calls": (claw_calls, "count"),
        "solvers.claw.s": (incl["solvers.claw"], "s"),
        "solvers.claw.s_per_call": (share(incl["solvers.claw"], claw_calls), "s"),
        "solvers.claw.hit_ratio": (s.ratio("solvers.claw", "hit"), "ratio"),
        "solvers.greedy.s": (incl["solvers.greedy"], "s"),
        "solvers.solve.calls": (calls["solvers.solve"], "count"),
        "solvers.solve.s": (solve_s, "s"),
        "solvers.solve.self_s": (self_s["solvers.solve"], "s"),
        "solvers.iterations": (counts["solvers.solve"]["iterations"], "count"),
        "solvers.improvements.claw": (counts["solvers.solve"]["claw"], "count"),
        "solvers.improvements.circular": (counts["solvers.solve"]["circular"], "count"),
        "solvers.improvements.generic": (counts["solvers.solve"]["generic"], "count"),
        "circular.s": (layer["circular"], "s"),
        "circular.anchor_maps.calls": (calls["circular.anchor_maps"], "count"),
        "circular.anchor_maps.s": (incl["circular.anchor_maps"], "s"),
        "circular.aux_graph.calls": (calls["circular.aux_graph"], "count"),
        "circular.aux_graph.s": (incl["circular.aux_graph"], "s"),
        "circular.aux_graph.vertices": (counts["circular.aux_graph"]["vertices"], "count"),
        "circular.aux_graph.edges": (counts["circular.aux_graph"]["edges"], "count"),
        "circular.find.calls": (calls["circular.find"], "count"),
        "circular.find.hit_ratio": (s.ratio("circular.find", "hit"), "ratio"),
        "circular.cycle_scan.self_s": (self_s["circular.find"], "s"),
        "circular.color_coding.calls": (calls["circular.color_coding"], "count"),
        "circular.color_coding.self_s": (self_s["circular.color_coding"], "s"),
        "circular.validate.calls": (calls["circular.validate"], "count"),
        "circular.validate.s": (incl["circular.validate"], "s"),
        "circular.validate.accept_ratio": (s.ratio("circular.validate", "accept"), "ratio"),
        "oracle.s": (layer["oracle"], "s"),
        "oracle.exact_mwis.calls": (calls["oracle.exact_mwis"], "count"),
        "oracle.exact_mwis.s": (incl["oracle.exact_mwis"], "s"),
        "oracle.exact_mwis.nodes": (counts["oracle.exact_mwis"]["nodes"], "count"),
        "oracle.improvement_search.calls": (calls["oracle.improvement_search"], "count"),
        "oracle.improvement_search.s": (incl["oracle.improvement_search"], "s"),
        "oracle.improvement_search.self_s": (self_s["oracle.improvement_search"], "s"),
        "oracle.improvement_search.hit_ratio": (s.ratio("oracle.improvement_search", "hit"), "ratio"),
        "oracle.power_weight.calls": (calls["oracle.power_weight"], "count"),
        "oracle.power_weight.s": (incl["oracle.power_weight"], "s"),
        "certify.calls": (calls["certify"], "count"),
        "certify.s": (incl["certify"], "s"),
        "certify.pass_ratio": (s.ratio("certify", "pass"), "ratio"),
        "bench.rows": (counts["bench.run_bench"]["rows"], "count"),
        "bench.self_s": (self_s["bench.run_bench"], "s"),
        "share.claw_of_solve": (share(incl["solvers.claw"], solve_s), "ratio"),
        "share.circular_of_wall": (share(layer["circular"], wall_traced), "ratio"),
        "share.aux_graph_of_wall": (share(incl["circular.aux_graph"], wall_traced), "ratio"),
        "share.exact_mwis_of_wall": (share(incl["oracle.exact_mwis"], wall_traced), "ratio"),
        "share.improvement_search_of_wall": (share(incl["oracle.improvement_search"], wall_traced), "ratio"),
        "share.certify_of_wall": (share(incl["certify"], wall_traced), "ratio"),
        "trace.wall_s": (wall_traced, "s"),
        "trace.untraced_wall_s": (wall_untraced, "s"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
        "trace.overhead_ratio.p50": (overhead_p50, "ratio"),
        "trace.spans": (s.spans, "count"),
        "trace.hooks_missing": (len(tracer.missing), "count"),
        "error_rate": (share(checker.failed, checker.attempted), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "clawpack", "__init__.py")):
        print(f"clawbench: no clawpack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import clawpack

    if os.path.dirname(os.path.abspath(clawpack.__file__)) != os.path.join(SRC, "clawpack"):
        print(f"clawbench: imported clawpack from {clawpack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import SETUPS

    import_s = time.perf_counter() - T_START
    if args.workload not in SETUPS:
        print(f"clawbench: unknown workload {args.workload!r}; choose from {sorted(SETUPS)}", file=sys.stderr)
        return 2
    setup_fn = SETUPS[args.workload]
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["digests"]
    os.makedirs(OUT, exist_ok=True)
    tmpdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    checker = Checker(reference)
    try:
        if args.trace:
            metrics = traced_run(args, setup_fn, tmpdir, checker)
        else:
            metrics = timed_run(args, setup_fn, tmpdir, checker, import_s)
    finally:
        os.rmdir(tmpdir)

    tag = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(OUT, f"digests-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(checker.digests, fh, indent=0, sort_keys=True)
    for key in checker.unpinned:
        print(f"digest {key} {checker.digests[key]}")
    for name, count in sorted(checker.known.items()):
        print(f"known defect {name}: {count} of {checker.attempted} results")
    for line in checker.unexpected:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not checker.unexpected,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def timed_run(args, setup_fn, tmpdir, checker, import_s) -> dict:
    """Set up SETUP_REPEATS times, then run whole passes until the next one
    would end after `--seconds` (at least one). Times are medians, each
    interval rescaled by the probe."""
    from probe import Probe

    setups, raw_setups, walls, raw_walls, cpus, op_walls = [], [], [], [], [], []
    with Probe() as probe:
        for _ in range(SETUP_REPEATS):
            mark = probe.mark()
            ops = setup_fn(args.seed, tmpdir)
            measured, scaled = probe.since(mark)
            raw_setups.append(measured)
            setups.append(scaled)
        t_phase = time.perf_counter()
        while True:
            wall, cpu, per_op, results, raw = run_pass(ops, probe)
            checker.check(results)
            walls.append(wall)
            raw_walls.append(raw)
            cpus.append(cpu)
            op_walls.extend(per_op)
            if time.perf_counter() - t_phase + statistics.median(raw_walls) > args.seconds:
                break
    f = probe.factor()
    print(f"passes {len(walls)}, ops {len(op_walls)} ({len(ops)} per pass), setup repeats {SETUP_REPEATS}")
    print(f"probe {len(probe.samples)} samples, mean {statistics.fmean(probe.samples):.6f} s, "
          f"run factor {f:.4f}")
    print(f"as measured: wall_s {statistics.median(raw_walls):.6g} s, "
          f"setup_s {BOOT_CPU_S + import_s + statistics.median(raw_setups):.6g} s")
    m = {
        "wall_s": (statistics.median(walls), "s"),
        "op_s.p50": (statistics.median(op_walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": ((BOOT_CPU_S + import_s) * f + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_run(args, setup_fn, tmpdir, checker) -> dict:
    """A traced set-up, then every op twice on the same inputs, once with the
    hooks off and once with them on. Which side runs first alternates from
    op to op, so that warm-up favours neither. The tracing overhead is the
    sum of the traced runs minus the sum of the untraced ones, and the
    median over ops of traced / untraced - 1."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        ops = setup_fn(args.seed, tmpdir)
    finally:
        tracer.uninstall()
    side = {False: 0.0, True: 0.0}
    ratios = []
    for i, op in enumerate(ops):
        tracer.op_id = i
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                results = op()
                pair[traced] = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            checker.check(results)
        side[False] += pair[False]
        side[True] += pair[True]
        ratios.append(pair[True] / pair[False])
    for name in tracer.missing:
        print(f"hook missing: {name}")
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz"))
    return layer_metrics(tracer, side[True], side[False], statistics.median(ratios) - 1, checker)


if __name__ == "__main__":
    sys.exit(main())
