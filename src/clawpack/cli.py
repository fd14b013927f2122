"""Command-line front end.

Subcommands: solve, gen (berman | cycle | lowerbound | random), verify,
constants, bench. All outputs with fixed seeds are byte-identical across
reruns; bench timing is opt-in via --times.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from . import bench as bench_mod
from . import formats, generators
from .certify import AnalysisParams, certify_local_optimum
from .circular import ColorCodingParams
from .constants import check_constants
from .instances import (
    BudgetExceededError,
    ConflictGraph,
    ContractError,
    InputError,
    PackingInstance,
    Solution,
    build_conflict_graph,
    fmt_fraction,
)
from .oracle import exact_mwis
from .solvers import SolverConfig, solve


def _load_graph(path: str) -> tuple[ConflictGraph, PackingInstance | None]:
    try:
        obj = formats.load(path)
    except InputError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc
    if isinstance(obj, PackingInstance):
        return build_conflict_graph(obj), obj
    return obj, None


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise click.ClickException(f"{path}: not valid JSON: {exc}") from exc


def _fraction(text: str | None, option: str) -> Fraction | None:
    """An exact rational option value; a malformed one is a usage error."""
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(f"{option}: not a rational number: {text!r}") from exc


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


class _Main(click.Group):
    """Reports an InputError, BudgetExceededError or file-system error from
    any subcommand as `Error: ...`, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InputError, BudgetExceededError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main() -> None:
    """Solvers, certifiers, and generators for weighted set packing and the
    maximum weight independent set in claw-constrained graphs."""


@main.command()
@click.option("--algo", type=click.Choice(["greedy", "squareimp", "logimp", "param"]), default="squareimp")
@click.option("--alpha", type=str, default=None, help="exponent for param mode, e.g. 2 or -1")
@click.option("--cap-c", "cap_c", type=str, default="4", help="size cap factor C")
@click.option("--scale-n", "scale_n", type=str, default=None, help="scaling constant N > 1")
@click.option("--seed", type=int, default=0)
@click.option("--d", "claw_d", type=int, default=None, help="claw bound override")
@click.option("--unit", is_flag=True, help="solve with all weights set to 1")
@click.option("--exact", is_flag=True, help="run the exact oracle instead of local search")
@click.option("--cc-mode", "cc_mode", type=click.Choice(["rand", "exhaustive"]), default=None)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=str, default=None)
def solve_cmd(algo, alpha, cap_c, scale_n, seed, claw_d, unit, exact,
              cc_mode, in_path, out_path) -> None:
    """Solve an instance file and emit the run trace as JSON."""
    g, inst = _load_graph(in_path)
    if unit:
        g = g.reweighted([Fraction(1)] * g.n)
    if exact:
        res = exact_mwis(g)
        _write_out(
            formats.canonical_json(
                {
                    "members": sorted(res.best.members),
                    "weight": fmt_fraction(res.optimum_w),
                    "nodes": res.nodes_explored,
                    "optimal": res.optimal,
                }
            ),
            out_path,
        )
        return
    mode = "parametrized" if algo == "param" else algo
    alpha = _fraction(alpha, "--alpha")
    if mode == "parametrized" and alpha is not None and alpha.denominator != 1:
        # the w**alpha gain of the first swap would raise a TypeError
        raise click.ClickException(
            f"--alpha {alpha}: param mode takes integer exponents only; exact gains for"
            " non-integer exponents are ROADMAP direction 1"
        )
    circular = ColorCodingParams.defaults(g, inst, mode=cc_mode) if cc_mode else None
    cfg = SolverConfig(
        mode=mode,
        alpha=alpha,
        size_cap_factor=_fraction(cap_c, "--cap-c"),
        scaling_n=_fraction(scale_n, "--scale-n"),
        rng_seed=seed,
        circular=circular,
        d=claw_d,
    )
    trace = solve(g, cfg, inst=inst)
    _write_out(formats.canonical_json(trace.to_json_obj()), out_path)


@main.group()
def gen() -> None:
    """Generate an instance family."""


@gen.command("berman")
@click.option("--d", "d", type=int, required=True)
@click.option("--out", "out_path", required=True, type=str)
def gen_berman(d, out_path) -> None:
    inst = generators.berman_tight_instance(d)
    formats.dump(inst, out_path)


@gen.command("cycle")
@click.option("--pairs", type=int, required=True)
@click.option("--d", "d", type=int, required=True)
@click.option("--eps", type=str, required=True)
@click.option("--out", "out_path", required=True, type=str)
def gen_cycle(pairs, d, eps, out_path) -> None:
    g, _, _ = generators.gen_alternating_cycle(pairs, d, _fraction(eps, "--eps"))
    formats.dump(g, out_path)


@gen.command("lowerbound")
@click.option("--d", "d", type=int, required=True)
@click.option("--alpha", type=str, required=True)
@click.option("--eps", type=str, required=True)
@click.option("--girth", "girth_l", type=int, required=True)
@click.option("--eps-d", "eps_d", type=str, default=None)
@click.option("--out", "out_path", required=True, type=str)
def gen_lowerbound(d, alpha, eps, girth_l, eps_d, out_path) -> None:
    spec = {"family": "lowerbound", "d": d, "alpha": _fraction(alpha, "--alpha"),
            "eps": _fraction(eps, "--eps"), "girth": girth_l}
    if eps_d:
        spec["eps_d"] = _fraction(eps_d, "--eps-d")
    _, g = bench_mod.instance_from_gen_spec(spec)
    formats.dump(g, out_path)


@gen.command("random")
@click.option("--sets", "n_sets", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--universe", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--dist", type=str, default="uniform:10")
@click.option("--out", "out_path", required=True, type=str)
def gen_random(n_sets, k, universe, seed, dist, out_path) -> None:
    inst = generators.gen_random_packing(
        n_sets, k, universe, weight_dist=bench_mod.parse_dist(dist), seed=seed
    )
    formats.dump(inst, out_path)


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--solution", "sol_path", required=True, type=click.Path(exists=True))
@click.option("--delta", type=str, default="1/2")
@click.option("--out", "out_path", type=str, default=None)
def verify(in_path, sol_path, delta, out_path) -> None:
    """Certify a solution file against the exact optimum of an instance."""
    g, _ = _load_graph(in_path)
    doc = _read_json(sol_path)
    members = doc.get("final_members", doc.get("members")) if isinstance(doc, dict) else None
    if not isinstance(members, list) or not all(type(v) is int for v in members):
        raise click.ClickException("solution JSON needs 'members' or 'final_members', a list of vertex ids")
    try:
        sol = Solution.of(g, members)
        opt = exact_mwis(g)
        report = certify_local_optimum(sol, opt.best, AnalysisParams.from_delta(_fraction(delta, "--delta")))
    except (InputError, ContractError) as exc:
        raise click.ClickException(str(exc))
    _write_out(formats.canonical_json(report.to_json_obj()), out_path)
    if not report.all_bounds_ok():
        sys.exit(1)


@main.command("constants")
@click.option("--delta", type=str, required=True)
@click.option("--eps-tilde", "eps_tilde", type=str, default=None)
@click.option("--eps-prime", "eps_prime", type=str, default=None)
@click.option("--out", "out_path", type=str, default=None)
def constants_cmd(delta, eps_tilde, eps_prime, out_path) -> None:
    """Evaluate the fourteen threshold inequalities at the given delta."""
    report = check_constants(
        _fraction(delta, "--delta"),
        eps_tilde=_fraction(eps_tilde, "--eps-tilde") if eps_tilde else None,
        eps_prime=_fraction(eps_prime, "--eps-prime") if eps_prime else None,
    )
    _write_out(formats.canonical_json(report.to_json_obj()), out_path)
    if not report.all_ok:
        sys.exit(1)


@main.command("bench")
@click.option("--suite", required=True, type=click.Path(exists=True))
@click.option("--jobs", type=int, default=1)
@click.option("--out", "out_path", required=True, type=str)
@click.option("--times", is_flag=True, help="emit measured wall times (breaks rerun byte-identity)")
def bench_cmd(suite, jobs, out_path, times) -> None:
    """Run a benchmark suite; exit 0 iff no row errored and all certificates passed."""
    report = bench_mod.run_bench(_read_json(suite), jobs=jobs)
    fmt = "json" if out_path.endswith(".json") else "csv"
    _write_out(bench_mod.emit_report(report, fmt=fmt, times=times), out_path)
    if not report.all_ok():
        sys.exit(1)


if __name__ == "__main__":
    main()
