"""The benchmark's workloads: seeded inputs, the ops run over them, and the
checks applied to every result.

Each workload builds all of its inputs in `setup` and returns a list of ops.
An op is a callable making one call into clawpack's public API (a `solve`
call, or one `run_bench` pass over a suite). It returns a list of `Result`s,
one per checked result (a solve, or a bench row). Inputs depend only on the
seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import clawpack
import clawpack.bench
import clawpack.formats
import clawpack.generators

# Sizes are set so that one pass took 17-35 s on a 2-core host when the
# benchmark was added, and so that a pass averages over enough seeded inputs:
# the cost of one input varies by 5-15% (claw search, cycle search) and by a
# factor of 2-4 (branch and bound), which would otherwise dominate the spread
# between runs with different seeds.
RAND_K3_INSTANCES = 12
RAND_K3_SETS = 900
TIGHT_UNION_COPIES = 40
TIGHT_UNION_D = 5
TIGHT_UNION_UNIONS = 4
TIGHT_DEEP_D = 12
SMALL_EXACT_SUITES = 12
SMALL_EXACT_SETS = 32


@dataclass
class Result:
    """One checked result. `known_defect` names the documented defect a
    failure is attributed to; any other failure makes the run incorrect."""

    key: str
    digest: str
    failed: bool = False
    reason: str = ""
    known_defect: str = ""


Op = Callable[[], list[Result]]


def digest_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _round_trip(obj, path: str):
    """formats dump + load through a file; the loaded object is used."""
    clawpack.formats.dump(obj, path)
    try:
        return clawpack.formats.load(path)
    finally:
        os.remove(path)


def _solve_op(key: str, g, cfg, inst, start_members=None) -> Op:
    def run() -> list[Result]:
        start = clawpack.Solution.of(g, start_members) if start_members is not None else None
        try:
            trace = clawpack.solve(g, cfg, inst=inst, start=start)
        except Exception as exc:  # counted as a failed op, the run continues
            return [Result(key, "", True, f"raised {type(exc).__name__}: {exc}")]
        res = Result(key, digest_of(trace.to_json_obj()))
        if not clawpack.verify_solution(g, trace.final):
            res.failed, res.reason = True, "final solution fails verify_solution"
        return [res]

    return run


# ---------------------------------------------------------------- rand-k3


def setup_rand_k3(seed: int, tmpdir: str) -> list[Op]:
    ops = []
    for i in range(RAND_K3_INSTANCES):
        inst = clawpack.generators.gen_random_packing(
            RAND_K3_SETS, 3, RAND_K3_SETS, weight_dist=("uniform", 10), seed=seed * 1000 + i
        )
        inst = _round_trip(inst, os.path.join(tmpdir, f"rand-k3-{i}.ksp"))
        g = clawpack.build_conflict_graph(inst)
        for mode in ("greedy", "squareimp", "logimp"):
            cfg = clawpack.SolverConfig(mode=mode, rng_seed=seed)
            ops.append(_solve_op(f"rand-k3/{seed}/{i}/{mode}", g, cfg, inst))
    return ops


# ------------------------------------------------------------ tight-union


def tight_union(seed: int, copies: int, d: int):
    """Disjoint union of relabelled copies of the tight instance.

    Set ids and elements are permuted by the seed. Returns the instance and
    the ids of the copies' small sides, the start solution.
    """
    base = clawpack.generators.berman_tight_instance(d)
    sets, weights, small = [], [], []
    for c in range(copies):
        off = c * base.universe_size
        for i, s in enumerate(base.sets):
            if i < d - 1:
                small.append(len(sets))
            sets.append([e + off for e in s])
            weights.append(base.weights[i])
    universe = copies * base.universe_size
    rng = random.Random(seed)
    perm = list(range(len(sets)))
    rng.shuffle(perm)
    elem = list(range(universe))
    rng.shuffle(elem)
    new_sets: list = [None] * len(sets)
    new_weights: list = [None] * len(sets)
    for old, new in enumerate(perm):
        new_sets[new] = sorted(elem[e] for e in sets[old])
        new_weights[new] = weights[old]
    inst = clawpack.PackingInstance.build(universe, new_sets, new_weights, base.k)
    return inst, sorted(perm[i] for i in small)


def setup_tight_union(seed: int, tmpdir: str) -> list[Op]:
    ops = []
    for j in range(TIGHT_UNION_UNIONS):
        inst, start = tight_union(seed * 1000 + j, TIGHT_UNION_COPIES, TIGHT_UNION_D)
        inst = _round_trip(inst, os.path.join(tmpdir, f"tight-union-{j}.ksp"))
        g = clawpack.build_conflict_graph(inst)
        for mode in ("exhaustive", "rand"):
            cfg = clawpack.SolverConfig(
                mode="logimp",
                rng_seed=seed,
                circular=clawpack.ColorCodingParams.defaults(g, inst, mode=mode),
            )
            ops.append(_solve_op(f"tight-union/{seed}/{j}/logimp-{mode}", g, cfg, inst, start))
    deep = clawpack.generators.berman_tight_instance(TIGHT_DEEP_D)
    deep = _round_trip(deep, os.path.join(tmpdir, "tight-deep.ksp"))
    g = clawpack.build_conflict_graph(deep)
    for mode in ("squareimp", "logimp"):
        cfg = clawpack.SolverConfig(mode=mode, rng_seed=seed)
        ops.append(_solve_op(f"tight-union/{seed}/deep{TIGHT_DEEP_D}/{mode}", g, cfg, deep))
    return ops


# ------------------------------------------------------------ small-exact

SMALL_EXACT_ALGORITHMS = [
    ("greedy", {"algo": "greedy"}),
    ("squareimp", {"algo": "squareimp"}),
    ("logimp", {"algo": "logimp"}),
    ("param-a2", {"algo": "parametrized", "alpha": "2", "cap_c": "1/2"}),
    ("param-a1_2", {"algo": "parametrized", "alpha": "1/2", "cap_c": "1/2"}),
]


def small_exact_suite(seed: int) -> dict:
    """15 desk-scale instances x 5 algorithms = 75 rows, every row oracled
    and certified (all instances have n <= oracle_limit = 40)."""
    n = SMALL_EXACT_SETS
    instances = []
    for i in range(8):
        instances.append({"id": f"rand{i}", "gen": {
            "family": "random", "sets": n, "k": 3, "universe": n,
            "dist": "uniform:10", "seed": seed * 100 + i}})
    for i in range(3):
        instances.append({"id": f"nearunit{i}", "gen": {
            "family": "random", "sets": n, "k": 3, "universe": n * 3 // 4,
            "dist": "near-unit:1/20", "seed": seed * 100 + 50 + i}})
    for d in (5, 6):
        instances.append({"id": f"tight{d}", "gen": {"family": "berman", "d": d},
                          "start": list(range(d - 1))})
    instances.append({"id": "cycle12", "gen": {"family": "cycle", "pairs": 12, "d": 5, "eps": "1/2"}})
    instances.append({"id": "lowerbound4", "gen": {
        "family": "lowerbound", "d": 4, "alpha": "1", "eps": "1/2", "girth": 6, "seed": seed}})
    return {
        "instances": instances,
        "algorithms": [spec for _, spec in SMALL_EXACT_ALGORITHMS],
        "seeds": [seed],
        "oracle_limit": 40,
    }


def _known_defect(label: str, error: str) -> str:
    """Attribute a row error to a documented seed-commit defect, if it is one:
    `oracle.power_weight_gain` calls `Fraction(mpf)` for non-integer alpha."""
    if label == "param-a1_2" and error.startswith("TypeError"):
        return "param-nonint-alpha-TypeError"
    return ""


def _bench_op(key: str, suite: dict) -> Op:
    def run() -> list[Result]:
        report = clawpack.bench.run_bench(suite, jobs=1)
        rows = json.loads(clawpack.bench.emit_report(report, fmt="json", times=False))["rows"]
        out = []
        # one seed per suite, so rows come in (instance, algorithm) order
        for i, row in enumerate(rows):
            label = SMALL_EXACT_ALGORITHMS[i % len(SMALL_EXACT_ALGORITHMS)][0]
            res = Result(f"{key}/{row['instance']}/{label}", digest_of(row))
            if row["error"]:
                res.failed, res.reason = True, row["error"]
                res.known_defect = _known_defect(label, row["error"])
            elif row["opt_w"] and Fraction(row["final_w"]) > Fraction(row["opt_w"]):
                res.failed, res.reason = True, "final weight exceeds the oracle optimum"
            elif row["algo"] in ("squareimp", "logimp") and row["cert"] == "fail":
                res.failed, res.reason = True, "certificate fails at a claw fixed point"
            out.append(res)
        return out

    return run


def setup_small_exact(seed: int, tmpdir: str) -> list[Op]:
    ops = []
    for j in range(SMALL_EXACT_SUITES):
        suite = small_exact_suite(seed * 1000 + j)
        # generate every instance once and check that a formats round trip
        # gives back the same conflict graph
        for spec in suite["instances"]:
            inst, g = clawpack.bench.instance_from_gen_spec(spec["gen"])
            path = os.path.join(tmpdir, f"small-exact-{j}.{'ksp' if inst is not None else 'mwis'}")
            back = _round_trip(inst if inst is not None else g, path)
            if inst is not None:
                back = clawpack.build_conflict_graph(back)
            if back.edges() != g.edges() or back.weights != g.weights:
                raise RuntimeError(f"formats round trip changed instance {spec['id']}")
        ops.append(_bench_op(f"small-exact/{seed}/{j}", suite))
    return ops


SETUPS = {
    "rand-k3": setup_rand_k3,
    "tight-union": setup_tight_union,
    "small-exact": setup_small_exact,
}
