"""Batch benchmark runner: instances x algorithms x seeds, with oracle
optima and certificates attached where feasible, emitted as CSV or JSON.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import formats, generators
from .certify import AnalysisParams, certify_local_optimum
from .instances import ConflictGraph, InputError, PackingInstance, Solution, build_conflict_graph, fmt_fraction
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


def instance_from_gen_spec(spec: dict) -> tuple[Optional[PackingInstance], ConflictGraph]:
    """The instance (None for a bare graph) and conflict graph of a gen
    spec, whose integer fields take only ints (`_integer_field`)."""
    family = spec.get("family")
    if family == "berman":
        inst = generators.berman_tight_instance(_integer_field(spec, "d"))
        return inst, build_conflict_graph(inst)
    if family == "cycle":
        g, _, _ = generators.gen_alternating_cycle(
            _integer_field(spec, "pairs"), _integer_field(spec, "d"), Fraction(str(spec["eps"]))
        )
        return None, g
    if family == "lowerbound":
        params = generators.LowerBoundParams(
            d=_integer_field(spec, "d"),
            alpha=Fraction(str(spec["alpha"])),
            eps=Fraction(str(spec["eps"])),
            target_girth=_integer_field(spec, "girth"),
            eps_d=Fraction(str(spec["eps_d"])) if "eps_d" in spec else None,
        )
        base = generators.gen_high_girth_regular(params.d - 1, params.target_girth)
        g, _, _ = generators.gen_incidence_lowerbound(params, base)
        return None, g
    if family == "random":
        dist = parse_dist(spec.get("dist", "uniform:10"))
        inst = generators.gen_random_packing(
            _integer_field(spec, "sets"), _integer_field(spec, "k"), _integer_field(spec, "universe"),
            weight_dist=dist, seed=_integer_field(spec, "seed", 0),
        )
        return inst, build_conflict_graph(inst)
    raise InputError(f"unknown generator family {family!r}")


def parse_dist(text: str) -> tuple[str, object]:
    """`uniform:W` (an integer W >= 1, default 10) or `near-unit:eta` (a
    rational, default 1/20) as a `gen_random_packing` weight_dist."""
    kind, _, param = text.partition(":")
    try:
        if kind == "uniform":
            top = int(param or 10)
            if top >= 1:
                return ("uniform", top)
        elif kind == "near-unit":
            return ("near-unit", Fraction(param or "1/20"))
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"bad weight distribution {text!r}: want uniform:W (integer W >= 1) or near-unit:eta (rational)")


def config_from_algo_spec(spec: dict, seed: int) -> SolverConfig:
    kwargs = {"mode": spec["algo"], "rng_seed": seed}
    if "alpha" in spec:
        kwargs["alpha"] = Fraction(str(spec["alpha"]))
    if "cap_c" in spec:
        kwargs["size_cap_factor"] = Fraction(str(spec["cap_c"]))
    if "scale_n" in spec:
        kwargs["scaling_n"] = Fraction(str(spec["scale_n"]))
    if "d" in spec:
        kwargs["d"] = _integer_field(spec, "d")
    return SolverConfig(**kwargs)


def _optimum(g: ConflictGraph, oracle_limit: int,
             incumbent: Optional[Solution]) -> Optional[tuple[set[int], Fraction]]:
    """The optimum's members and weight, or None past `oracle_limit`. Only
    these go back: a worker's optimum is over the worker's copy of the graph."""
    if g.n > oracle_limit:
        return None
    res = exact_mwis(g, size_limit=oracle_limit, incumbent=incumbent)
    return res.best.members, res.optimum_w


def _solve_row(
    name: str,
    g: ConflictGraph,
    inst: Optional[PackingInstance],
    algo_spec: dict,
    seed: int,
    start_members: Optional[list[int]],
    pos: int,
    claw_runs: dict,
) -> tuple[BenchRow, Optional[set[int]]]:
    """One row without its optimum and certificate, and its final member set
    (None when the row failed). Only the members go back: a worker's final
    solution holds the worker's copy of the graph and its N(u, A) table.

    An unscaled squareimp row keeps its run and its time in `claw_runs`
    under (pos, start, d override), and an unscaled logimp row with that
    key continues the run it finds there (`solve`'s `claw_run`), adding its
    time to its own. squareimp reads no seed, so the seed is not part of
    the key."""
    row = BenchRow(instance=name, algo=algo_spec["algo"], seed=seed)
    final, claw_run, claw_s = None, None, 0.0
    t0 = time.perf_counter()
    try:
        cfg = config_from_algo_spec(algo_spec, seed)
        start = None if start_members is None else Solution.of(g, start_members)
        key = (pos, None if start is None else frozenset(start.members), cfg.d)
        if cfg.mode == "logimp" and cfg.scaling_n is None and key in claw_runs:
            claw_run, claw_s = claw_runs[key]
        trace = solve(g, cfg, inst=inst, start=start, claw_run=claw_run)
        if cfg.mode == "squareimp" and cfg.scaling_n is None:
            claw_runs[key] = (trace, time.perf_counter() - t0)
        row.final_w = trace.final.total_w
        row.iters = trace.iterations
        final = trace.final.members
    except Exception as exc:  # per-row failures recorded, run continues
        row.error = f"{type(exc).__name__}: {exc}"
        row.cert = "error"
    row.time_ms = int((time.perf_counter() - t0 + claw_s) * 1000)
    return row, final


def _certify(final: Solution, best: Solution, delta: Fraction) -> tuple[str, str, float]:
    """(cert, error, seconds) of one final solution against an optimum
    `best` over the same graph."""
    t0 = time.perf_counter()
    try:
        report = certify_local_optimum(final, best, AnalysisParams.from_delta(delta))
        cert, error = ("pass" if report.all_bounds_ok() else "fail"), ""
    except Exception as exc:  # recorded on every row that ends at this final
        cert, error = "error", f"{type(exc).__name__}: {exc}"
    return cert, error, time.perf_counter() - t0


def _run_phases(instances: list, algos: list[dict], seeds: list[int], oracle_limit: int,
                delta: Fraction, pmap) -> list[BenchRow]:
    """Rows, then optima, then one certificate per distinct final.

    `pmap(fn, tasks)` runs fn(*task) for every task and returns the results
    in task order. Each instance's oracle call is seeded with the heaviest
    final among its rows that did not fail (the first such row on ties);
    the optimum is exact either way, so the seed only saves nodes. A final
    is keyed by its instance's position, not its user-supplied id, and its
    certificate time is added to the first row that ends at it. An
    optimum is certified as its members over the final's graph.

    Every row task holds one dict, which lives for this call: an unscaled
    logimp row continues the squareimp run of the same instance position,
    start and claw bound override that ran before it in the same process
    (see `_solve_row`), and adds that run's time to its `time_ms`. Tasks
    stay one per row; under a process pool the tasks of one chunk share
    the dict through the chunk's one pickle, and each chunk has its own.
    """
    tasks, positions, claw_runs = [], [], {}
    for pos, (name, g, inst, inst_spec) in enumerate(instances):
        for algo_spec in algos:
            start = algo_spec.get("start", inst_spec.get("start"))
            for seed in seeds:
                tasks.append((name, g, inst, algo_spec, seed, start, pos, claw_runs))
                positions.append(pos)
    # each final over the parent's graph, so a later task pickles one graph
    solved = [(row, None if final is None else Solution(instances[pos][1], final))
              for pos, (row, final) in zip(positions, pmap(_solve_row, tasks))]
    heaviest: dict[int, tuple[Fraction, Solution]] = {}
    for pos, (row, final) in zip(positions, solved):
        if final is not None and (pos not in heaviest or row.final_w > heaviest[pos][0]):
            heaviest[pos] = (row.final_w, final)
    optima = pmap(
        _optimum,
        [(g, oracle_limit, heaviest[pos][1] if pos in heaviest else None)
         for pos, (_, g, _, _) in enumerate(instances)],
    )
    first: dict[tuple[int, frozenset[int]], tuple[BenchRow, Solution]] = {}
    keys = []
    for pos, (row, final) in zip(positions, solved):
        opt, key = optima[pos], None
        if final is not None and opt is not None:
            row.opt_w = opt[1]
            if row.final_w > 0:
                row.ratio = row.opt_w / row.final_w
            key = (pos, frozenset(final.members))
            first.setdefault(key, (row, final))
        keys.append(key)
    verdicts = pmap(
        _certify,
        [(final, Solution(final.g, optima[pos][0]), delta) for (pos, _), (_, final) in first.items()],
    )
    certs = dict(zip(first, verdicts))
    for key, (row, _) in first.items():
        row.time_ms += int(certs[key][2] * 1000)
    for (row, _), key in zip(solved, keys):
        if key is not None:
            row.cert, row.error, _ = certs[key]
    return [row for row, _ in solved]


def _integer(value) -> int:
    """`value` if it is an int, not a bool; else a TypeError. A suite's
    integer fields take no string, float or bool."""
    if type(value) is not int:
        raise TypeError("want an integer")
    return value


def _integer_field(spec: dict, name: str, default=None) -> int:
    """`_integer(spec[name])`, `default` standing in for a missing field
    if given; a TypeError names the field."""
    value = spec[name] if default is None else spec.get(name, default)
    try:
        return _integer(value)
    except TypeError:
        raise TypeError(f"field {name!r} wants an integer, got {value!r}") from None


def _list(value) -> list:
    """`value` if it is a list; else a TypeError."""
    if not isinstance(value, list):
        raise TypeError("want a list")
    return value


def _integer_list(value) -> list[int]:
    """`value` if it is a list of ints (see `_integer`); else a TypeError."""
    return [_integer(v) for v in _list(value)]


def _suite_field(config: dict, name: str, convert, default):
    """convert(config[name]), or convert(default) when the field is absent;
    a value `convert` rejects is an InputError."""
    value = config.get(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"suite field {name!r} is malformed: {value!r} ({exc})") from exc


def run_bench(config: dict, jobs: int = 1) -> BenchReport:
    """Execute the instances x algorithms x seeds cross product.

    The rows run first. Then the oracle runs once per instance, seeded with
    the heaviest final of its rows (see `_run_phases`), and each distinct
    final member set is certified once per instance; the rows that end at
    it share its verdict. With `jobs` > 1 the rows, the optima and the
    certificates each run in up to min(jobs, CPU count, rows) worker
    processes. Rows are assembled in index order regardless of completion
    order, so reports are deterministic for fixed seeds (timings aside).
    The workers are spawned and re-import the calling script's main module:
    a script calling this with `jobs` > 1 needs an `if __name__ ==
    "__main__":` guard, or its workers run the script again and the pool
    ends in `BrokenProcessPool`.
    """
    if not isinstance(config, dict):
        raise InputError(f"suite JSON must be an object, got {type(config).__name__}")
    instances = []
    for inst_spec in _suite_field(config, "instances", _list, []):
        try:
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
        except KeyError as exc:
            raise InputError(f"suite instance {inst_spec!r} lacks field {exc}") from exc
        except InputError:
            raise
        except (OSError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"suite instance {inst_spec!r} is malformed: {exc}") from exc
    algos = _suite_field(config, "algorithms", _list, [])
    if not all(isinstance(spec, dict) and "algo" in spec for spec in algos):
        raise InputError("each suite algorithm must be an object with an 'algo' field")
    seeds = _suite_field(config, "seeds", _integer_list, [0])
    oracle_limit = _suite_field(config, "oracle_limit", _integer, 20)
    # from_delta rejects a delta outside (0, 1) before any row runs
    delta = _suite_field(config, "delta", lambda v: AnalysisParams.from_delta(Fraction(str(v))).delta, "1/2")

    workers = min(jobs, os.cpu_count() or 1, len(instances) * len(algos) * len(seeds))
    args = (instances, algos, seeds, oracle_limit, delta)
    if workers <= 1:
        return BenchReport(rows=_run_phases(*args, lambda fn, tasks: [fn(*t) for t in tasks]))
    # imported here, so the serial path does not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned workers, since fork is unsafe in a process with threads; a
    # chunk goes as one pickle, which sends a graph its tasks share once
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:

        def pmap(fn, tasks):
            chunksize = max(1, len(tasks) // (4 * workers))
            return list(pool.map(fn, *zip(*tasks), chunksize=chunksize)) if tasks else []

        return BenchReport(rows=_run_phases(*args, pmap))


def emit_report(report: BenchReport, fmt: str = "csv", times: bool = False) -> str:
    """Render with the stable column order; timings zeroed unless requested,
    keeping default output byte-identical across reruns."""
    if fmt not in ("csv", "json"):
        raise InputError(f"unknown report format {fmt!r}")
    rows = [
        {
            "instance": r.instance,
            "algo": r.algo,
            "seed": r.seed,
            "final_w": "" if r.final_w is None else fmt_fraction(r.final_w),
            "opt_w": "" if r.opt_w is None else fmt_fraction(r.opt_w),
            "ratio": "" if r.ratio is None else fmt_fraction(r.ratio),
            "iters": r.iters,
            "time_ms": r.time_ms if times else 0,
            "cert": r.cert if not r.error else "error",
            "error": r.error,
        }
        for r in report.rows
    ]
    if fmt == "csv":
        lines = [",".join(COLUMNS)] + [",".join(str(row[c]) for c in COLUMNS) for row in rows]
        return "\n".join(lines) + "\n"
    return formats.canonical_json({"rows": rows})
