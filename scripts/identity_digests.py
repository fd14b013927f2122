"""Print `<key> <sha1>` for a fixed set of default outputs, to check that a
refactoring leaves them unchanged.

    python3 scripts/identity_digests.py > digests.txt

`tests/identity_digests.txt` pins this output and `tests/test_identity.py`
recomputes it, so a change that moves a digest fails tier-1 and names the
key. It covers the `gen` file of every family over a fixed grid (the
lower-bound family at d 4-8, girth 3-6, alpha in {1, 2, 1/2, 3/2}, with and
without `--eps-d 1/100`), the `solve` trace of each algorithm (and
`--exact`) on five inputs, the default JSON report of one `bench` suite,
`verify` of a logimp trace, `constants`, and the four runs from tight d=5's
small side, which no CLI flag starts, through `solve()`. A command that
fails prints `error` in place of the digest. Only `clawpack` is imported,
from the repository's `src/`.
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from click.testing import CliRunner  # noqa: E402

from clawpack import ColorCodingParams, Solution, SolverConfig, build_conflict_graph, formats, solve  # noqa: E402
from clawpack.cli import main  # noqa: E402

# the inputs of the solve runs first
GEN = {
    "b4.ksp": ["gen", "berman", "--d", "4"],
    "b5.ksp": ["gen", "berman", "--d", "5"],
    "c.mwis": ["gen", "cycle", "--pairs", "4", "--d", "5", "--eps", "1/2"],
    "lb.mwis": ["gen", "lowerbound", "--d", "4", "--alpha", "1", "--eps", "1/2", "--girth", "5"],
    "r.ksp": ["gen", "random", "--sets", "40", "--k", "3", "--universe", "30", "--seed", "7"],
}
GEN.update({f"b{d}.ksp": ["gen", "berman", "--d", str(d)] for d in (3, 6)})
GEN.update({
    f"c{p}-{d}-{e.replace('/', '_')}.mwis": ["gen", "cycle", "--pairs", str(p), "--d", str(d), "--eps", e]
    for p in (2, 7) for d in (4, 6) for e in ("1/3", "5/7")
})
GEN.update({
    f"r{n}-{k}-{u}-{s}-{dist.replace(':', '_').replace('/', '_')}.ksp":
        ["gen", "random", "--sets", str(n), "--k", str(k), "--universe", str(u), "--seed", str(s), "--dist", dist]
    for n, k, u in ((12, 3, 9), (30, 5, 20)) for s in (0, 1) for dist in ("uniform:10", "near-unit:1/20")
})
GEN.update({
    f"lb{d}-g{l}-a{a.replace('/', '_')}{'-e100' if e else ''}.mwis":
        ["gen", "lowerbound", "--d", str(d), "--alpha", a, "--eps", "1/2", "--girth", str(l)] + e
    for d in range(4, 9) for l in range(3, 7) for a in ("1", "2", "1/2", "3/2") for e in ([], ["--eps-d", "1/100"])
})
# each input with the claw bound a graph file does not carry
SOLVE_INPUTS = {"b4.ksp": [], "b5.ksp": [], "c.mwis": ["--d", "5"], "lb.mwis": ["--d", "4"], "r.ksp": []}
SOLVE = {
    "greedy": ["--algo", "greedy"],
    "squareimp": ["--algo", "squareimp"],
    "logimp-exhaustive": ["--algo", "logimp"],
    "logimp-rand": ["--algo", "logimp", "--cc-mode", "rand", "--seed", "3"],
    "param-a2": ["--algo", "param", "--alpha", "2", "--cap-c", "1/2"],
    "param-a3": ["--algo", "param", "--alpha", "3", "--cap-c", "1/2"],
    "param-a-1": ["--algo", "param", "--alpha", "-1", "--cap-c", "1/2"],
    "scale-n2": ["--algo", "squareimp", "--scale-n", "2"],
    "exact": ["--exact"],
}
SUITE = {
    "instances": [
        {"id": "b4", "gen": {"family": "berman", "d": 4}, "start": [0, 1, 2]},
        {"id": "r0", "gen": {"family": "random", "sets": 12, "k": 3, "universe": 9, "seed": 3}},
        {"id": "cyc", "gen": {"family": "cycle", "pairs": 5, "d": 5, "eps": "1/2"}},
        {"id": "lb", "gen": {"family": "lowerbound", "d": 4, "alpha": "1", "eps": "1/2", "girth": 6, "seed": 7}},
    ],
    "algorithms": [{"algo": "greedy"}, {"algo": "squareimp"}, {"algo": "logimp"},
                   {"algo": "parametrized", "alpha": "2", "cap_c": "1/2"}],
    "seeds": [0, 1],
    "oracle_limit": 40,
}


def digest(args: list, out: str) -> str:
    """sha1 of the file `args --out out` writes and its exit code, or
    `error` when the command reports one."""
    r = CliRunner().invoke(main, args + ["--out", out], catch_exceptions=False)
    if r.output.startswith("Error: "):
        return "error"
    with open(out, "rb") as fh:
        return hashlib.sha1(fh.read() + f"exit {r.exit_code}".encode()).hexdigest()


def small_side_digests(path: str) -> dict[str, str]:
    """sha1 of the trace JSON each of four runs writes on tight d=5 (in
    `path`) from its small side, the first four sets."""
    inst = formats.load(path)
    g = build_conflict_graph(inst)
    configs = {
        "squareimp": SolverConfig(mode="squareimp"),
        "logimp-exhaustive": SolverConfig(mode="logimp"),
        "logimp-rand": SolverConfig(
            mode="logimp", rng_seed=3, circular=ColorCodingParams.defaults(g, inst, mode="rand")
        ),
        "param-a2": SolverConfig(mode="parametrized", alpha=2, size_cap_factor=1),
    }
    out = {}
    for algo, cfg in configs.items():
        trace = solve(g, cfg, inst=inst, start=Solution.of(g, range(4)))
        text = formats.canonical_json(trace.to_json_obj())
        out[f"solve/b5-small/{algo}"] = hashlib.sha1(text.encode()).hexdigest()
    return out


def digests() -> dict[str, str]:
    """Every key's digest, computed in a new temporary directory; the working
    directory is restored afterwards."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, args in GEN.items():
                out[f"gen/{name}"] = digest(args, name)
            for name, claw_d in SOLVE_INPUTS.items():
                for algo, args in SOLVE.items():
                    out[f"solve/{name}/{algo}"] = digest(["solve", "--in", name] + claw_d + args, "trace.json")
            with open("suite.json", "w", encoding="utf-8") as fh:
                json.dump(SUITE, fh)
            out["bench/suite.json"] = digest(["bench", "--suite", "suite.json"], "report.json")
            digest(["solve", "--algo", "logimp", "--seed", "0", "--in", "b4.ksp"], "b4-logimp.json")
            out["verify/b4.ksp"] = digest(
                ["verify", "--in", "b4.ksp", "--solution", "b4-logimp.json", "--delta", "1/2"], "verify.json"
            )
            out["constants/1_2"] = digest(["constants", "--delta", "1/2"], "constants.json")
            out.update(small_side_digests("b5.ksp"))
        finally:
            os.chdir(cwd)
    return out


if __name__ == "__main__":
    for key, value in digests().items():
        print(f"{key} {value}")
