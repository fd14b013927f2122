"""Batch benchmark runner: instances x algorithms x seeds, with oracle
optima and certificates attached where feasible, emitted as CSV or JSON.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import formats, generators
from .certify import AnalysisParams, certify_local_optimum
from .instances import ConflictGraph, InputError, PackingInstance, build_conflict_graph
from .oracle import exact_mwis
from .solvers import SolverConfig, solve

COLUMNS = ("instance", "algo", "seed", "final_w", "opt_w", "ratio", "iters", "time_ms", "cert")


@dataclass
class BenchRow:
    instance: str
    algo: str
    seed: int
    final_w: Optional[Fraction] = None
    opt_w: Optional[Fraction] = None
    ratio: Optional[Fraction] = None
    iters: int = 0
    time_ms: int = 0
    cert: str = ""
    error: str = ""


@dataclass
class BenchReport:
    rows: list[BenchRow]

    def all_ok(self) -> bool:
        return all(not r.error and r.cert != "fail" for r in self.rows)


def _fr(x: Optional[Fraction]) -> str:
    if x is None:
        return ""
    return f"{x.numerator}/{x.denominator}"


def instance_from_gen_spec(spec: dict) -> tuple[Optional[PackingInstance], ConflictGraph]:
    family = spec.get("family")
    if family == "berman":
        inst = generators.berman_tight_instance(int(spec["d"]))
        return inst, build_conflict_graph(inst)
    if family == "cycle":
        g, _, _ = generators.gen_alternating_cycle(
            int(spec["pairs"]), int(spec["d"]), Fraction(str(spec["eps"]))
        )
        return None, g
    if family == "lowerbound":
        params = generators.LowerBoundParams(
            d=int(spec["d"]),
            alpha=Fraction(str(spec["alpha"])),
            eps=Fraction(str(spec["eps"])),
            target_girth=int(spec["girth"]),
            eps_d=Fraction(str(spec["eps_d"])) if "eps_d" in spec else None,
        )
        base = generators.gen_high_girth_regular(
            params.d - 1, params.target_girth, seed=int(spec.get("seed", 0))
        )
        g, _, _ = generators.gen_incidence_lowerbound(params, base)
        return None, g
    if family == "random":
        dist = parse_dist(spec.get("dist", "uniform:10"))
        inst = generators.gen_random_packing(
            int(spec["sets"]), int(spec["k"]), int(spec["universe"]),
            weight_dist=dist, seed=int(spec.get("seed", 0)),
        )
        return inst, build_conflict_graph(inst)
    raise InputError(f"unknown generator family {family!r}")


def parse_dist(text: str) -> tuple[str, object]:
    kind, _, param = text.partition(":")
    if kind == "uniform":
        return ("uniform", int(param or 10))
    if kind == "near-unit":
        return ("near-unit", Fraction(param or "1/20"))
    raise InputError(f"unknown weight distribution {text!r}")


def config_from_algo_spec(spec: dict, seed: int) -> SolverConfig:
    kwargs = {"mode": spec["algo"], "rng_seed": seed}
    if "alpha" in spec:
        kwargs["alpha"] = Fraction(str(spec["alpha"]))
    if "cap_c" in spec:
        kwargs["size_cap_factor"] = Fraction(str(spec["cap_c"]))
    if "scale_n" in spec:
        kwargs["scaling_n"] = Fraction(str(spec["scale_n"]))
    if "d" in spec:
        kwargs["d"] = int(spec["d"])
    return SolverConfig(**kwargs)


def _run_row(
    name: str,
    g: ConflictGraph,
    inst: Optional[PackingInstance],
    algo_spec: dict,
    seed: int,
    opt,
    delta: Fraction,
    start_members: Optional[list[int]] = None,
) -> BenchRow:
    row = BenchRow(instance=name, algo=algo_spec["algo"], seed=seed)
    t0 = time.perf_counter()
    try:
        cfg = config_from_algo_spec(algo_spec, seed)
        start = None
        if start_members is not None:
            from .instances import Solution

            start = Solution.of(g, start_members)
        trace = solve(g, cfg, inst=inst, start=start)
        row.final_w = trace.final.total_w
        row.iters = trace.iterations
        if opt is not None:
            row.opt_w = opt.optimum_w
            if row.final_w > 0:
                row.ratio = row.opt_w / row.final_w
            report = certify_local_optimum(g, trace.final, opt.best, AnalysisParams.from_delta(delta))
            row.cert = "pass" if report.all_bounds_ok() else "fail"
    except Exception as exc:  # per-row failures recorded, run continues
        row.error = f"{type(exc).__name__}: {exc}"
        row.cert = "error"
    row.time_ms = int((time.perf_counter() - t0) * 1000)
    return row


def run_bench(config: dict, jobs: int = 1) -> BenchReport:
    """Execute the instances x algorithms x seeds cross product.

    Rows are assembled in index order regardless of completion order, so
    reports are deterministic for fixed seeds (timings aside).
    """
    instances = []
    for inst_spec in config.get("instances", []):
        name = inst_spec["id"]
        if "path" in inst_spec:
            obj = formats.load(inst_spec["path"])
            if isinstance(obj, PackingInstance):
                instances.append((name, build_conflict_graph(obj), obj, inst_spec))
            else:
                instances.append((name, obj, None, inst_spec))
        else:
            inst, g = instance_from_gen_spec(inst_spec["gen"])
            instances.append((name, g, inst, inst_spec))
    algos = config.get("algorithms", [])
    seeds = [int(s) for s in config.get("seeds", [0])]
    oracle_limit = int(config.get("oracle_limit", 20))
    delta = Fraction(str(config.get("delta", "1/2")))

    # one oracle call per instance, shared across its rows
    optima = {
        name: exact_mwis(g, size_limit=oracle_limit) if g.n <= oracle_limit else None
        for name, g, _, _ in instances
    }
    tasks = []
    for name, g, inst, inst_spec in instances:
        for algo_spec in algos:
            start = algo_spec.get("start", inst_spec.get("start"))
            for seed in seeds:
                tasks.append((name, g, inst, algo_spec, seed, start))
    if jobs <= 1:
        rows = [
            _run_row(name, g, inst, spec, seed, optima[name], delta, start)
            for name, g, inst, spec, seed, start in tasks
        ]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_row, name, g, inst, spec, seed, optima[name], delta, start)
                for name, g, inst, spec, seed, start in tasks
            ]
            rows = [f.result() for f in futures]
    return BenchReport(rows=rows)


def emit_report(report: BenchReport, fmt: str = "csv", times: bool = False) -> str:
    """Render with the stable column order; timings zeroed unless requested,
    keeping default output byte-identical across reruns."""
    if fmt == "csv":
        lines = [",".join(COLUMNS)]
        for r in report.rows:
            lines.append(
                ",".join(
                    [
                        r.instance,
                        r.algo,
                        str(r.seed),
                        _fr(r.final_w),
                        _fr(r.opt_w),
                        _fr(r.ratio),
                        str(r.iters),
                        str(r.time_ms if times else 0),
                        r.cert if not r.error else "error",
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = []
        for r in report.rows:
            rows.append(
                {
                    "instance": r.instance,
                    "algo": r.algo,
                    "seed": r.seed,
                    "final_w": _fr(r.final_w),
                    "opt_w": _fr(r.opt_w),
                    "ratio": _fr(r.ratio),
                    "iters": r.iters,
                    "time_ms": r.time_ms if times else 0,
                    "cert": r.cert if not r.error else "error",
                    "error": r.error,
                }
            )
        return json.dumps({"rows": rows}, indent=None, separators=(",", ":"), sort_keys=True) + "\n"
    raise InputError(f"unknown report format {fmt!r}")


def report_from_json(text: str) -> BenchReport:
    doc = json.loads(text)
    rows = []
    for r in doc["rows"]:
        rows.append(
            BenchRow(
                instance=r["instance"],
                algo=r["algo"],
                seed=int(r["seed"]),
                final_w=Fraction(r["final_w"]) if r["final_w"] else None,
                opt_w=Fraction(r["opt_w"]) if r["opt_w"] else None,
                ratio=Fraction(r["ratio"]) if r["ratio"] else None,
                iters=int(r["iters"]),
                time_ms=int(r["time_ms"]),
                cert=r["cert"],
                error=r.get("error", ""),
            )
        )
    return BenchReport(rows=rows)
