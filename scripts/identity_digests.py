"""Print `<key> <sha1>` for a fixed set of default outputs, to check that a
refactoring leaves them unchanged.

    python3 scripts/identity_digests.py > digests.txt

Run it at two commits and `diff` the files. It covers the `gen` file of
every family over a fixed grid (the lower-bound family at d 4-8, girth 3-6,
alpha in {1, 2, 1/2, 3/2}, with and without `--eps-d 1/100`), the `solve`
trace of each algorithm of `tests/test_golden.py` (and `--exact`) on each of
its inputs, and the default JSON report of one `bench` suite. A command that
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

from clawpack.cli import main  # noqa: E402

# the inputs of tests/test_golden.py first: the solve runs read them
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
GOLDEN_INPUTS = {"b4.ksp": [], "b5.ksp": [], "c.mwis": ["--d", "5"], "lb.mwis": ["--d", "4"], "r.ksp": []}
SOLVE = {
    "greedy": ["--algo", "greedy"],
    "squareimp": ["--algo", "squareimp"],
    "logimp-exhaustive": ["--algo", "logimp"],
    "logimp-rand": ["--algo", "logimp", "--cc-mode", "rand", "--seed", "3"],
    "param-a2": ["--algo", "param", "--alpha", "2", "--cap-c", "1/2"],
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


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, args in GEN.items():
            print(f"gen/{name} {digest(args, name)}")
        for name, claw_d in GOLDEN_INPUTS.items():
            for algo, args in SOLVE.items():
                print(f"solve/{name}/{algo} {digest(['solve', '--in', name] + claw_d + args, 'trace.json')}")
        with open("suite.json", "w", encoding="utf-8") as fh:
            json.dump(SUITE, fh)
        print(f"bench/suite.json {digest(['bench', '--suite', 'suite.json'], 'report.json')}")
        os.chdir(ROOT)


if __name__ == "__main__":
    run()
