"""Byte-identity of the default output on fixed seeds.

Each entry pins the sha1 of what one command writes by default: the `gen`
file of every family, the `solve` trace of each algorithm on a seeded k=3
packing, `solve --exact`, `verify` on the README example and `constants`.
Runs from a start solution have no CLI flag, so the tight d=5 instance from
its small side is solved through `solve()` and serialized as the CLI does.

The digests were recorded before the unused solver knobs, the derived
trace and parameter fields and the second improvement validator were
removed, and before the "num/den" writers were folded into
`instances.fmt_fraction`; refactoring must leave every one unchanged.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from clawpack import ColorCodingParams, Solution, SolverConfig, build_conflict_graph, formats, solve
from clawpack.cli import main

GEN = {
    "b4.ksp": ["gen", "berman", "--d", "4"],
    "b5.ksp": ["gen", "berman", "--d", "5"],
    "c.mwis": ["gen", "cycle", "--pairs", "4", "--d", "5", "--eps", "1/2"],
    "lb.mwis": ["gen", "lowerbound", "--d", "4", "--alpha", "1", "--eps", "1/2", "--girth", "5"],
    "r.ksp": ["gen", "random", "--sets", "40", "--k", "3", "--universe", "30", "--seed", "7"],
}

SOLVE = {
    "greedy": ["--algo", "greedy"],
    "squareimp": ["--algo", "squareimp"],
    "logimp-exhaustive": ["--algo", "logimp"],
    "logimp-rand": ["--algo", "logimp", "--cc-mode", "rand", "--seed", "3"],
    "param-a2": ["--algo", "param", "--alpha", "2", "--cap-c", "1/2"],
    "scale-n2": ["--algo", "squareimp", "--scale-n", "2"],
}

DIGESTS = {
    "gen/b4.ksp": "904165c51121babd522ffbc0357a1953cb83c82e",
    "gen/b5.ksp": "29352e6cae353c7d04bb64d6cc869d6c25871c8d",
    "gen/c.mwis": "38838ed412408d13a0f0fb586c6a6c7adb4d8617",
    "gen/lb.mwis": "55a8fc98f7b3cfa9858feb2faf6377911fdd4911",
    "gen/r.ksp": "7166fa7ddddebfb0aa13c70bd740c317a6ee9ee1",
    "solve/r.ksp/greedy": "8e7c18b6b0b7567ea4425cc186f95fe646a2dbf3",
    "solve/r.ksp/squareimp": "8fa2c7d8b0c4a2556e8f7efaf95346a9db4f4d7b",
    "solve/r.ksp/logimp-exhaustive": "8fa2c7d8b0c4a2556e8f7efaf95346a9db4f4d7b",
    "solve/r.ksp/logimp-rand": "8fa2c7d8b0c4a2556e8f7efaf95346a9db4f4d7b",
    "solve/r.ksp/param-a2": "7c59a00a3403319c5a8eab78a21e4078ee400ccf",
    "solve/r.ksp/scale-n2": "db0c7c455372587d9462102e78b81adec03af06b",
    "solve/b5-small/squareimp": "0ef8c35af313cf0ddf320c50dcf6488c58929a13",
    "solve/b5-small/logimp-exhaustive": "2faa9327486b2c930473055dd1129ca593db9511",
    "solve/b5-small/logimp-rand": "fd379596041dc220283d5c437ec8cc72590f2adb",
    "solve/b5-small/param-a2": "7e77c7335aa1ba3f35bab2f0caf278c284eb84de",
    "solve/b4.ksp/exact": "71e74d8fd657b8cc9ff28b056881cca8ada62923",
    "verify/b4.ksp": "8473e4227cec6958adf58790bc62900c5f8b67ab",
    "constants/1_2": "68537e70fba12761281e9d6615a9a2a563288941",
}


def _cli(args) -> str:
    r = CliRunner().invoke(main, args, catch_exceptions=False)
    assert r.exit_code == 0, r.output
    return r.output


def _tight_small_side(algo: str) -> str:
    """The trace JSON of `algo` on tight d=5, started from its small side."""
    inst = formats.load("b5.ksp")
    g = build_conflict_graph(inst)
    cfg = {
        "squareimp": SolverConfig(mode="squareimp"),
        "logimp-exhaustive": SolverConfig(mode="logimp"),
        "logimp-rand": SolverConfig(
            mode="logimp", rng_seed=3, circular=ColorCodingParams.defaults(g, inst, mode="rand")
        ),
        "param-a2": SolverConfig(mode="parametrized", alpha=2, size_cap_factor=1),
    }[algo]
    trace = solve(g, cfg, inst=inst, start=Solution.of(g, range(4)))
    return json.dumps(trace.to_json_obj(), indent=None, separators=(",", ":"), sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, str]:
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("golden"))
        out = {}
        for name, args in GEN.items():
            _cli(args + ["--out", name])
            with open(name, encoding="utf-8") as fh:
                out[f"gen/{name}"] = fh.read()
        for algo, args in SOLVE.items():
            out[f"solve/r.ksp/{algo}"] = _cli(["solve", "--in", "r.ksp"] + args)
        for algo in ("squareimp", "logimp-exhaustive", "logimp-rand", "param-a2"):
            out[f"solve/b5-small/{algo}"] = _tight_small_side(algo)
        out["solve/b4.ksp/exact"] = _cli(["solve", "--exact", "--in", "b4.ksp"])
        _cli(["solve", "--algo", "logimp", "--seed", "0", "--in", "b4.ksp", "--out", "trace.json"])
        out["verify/b4.ksp"] = _cli(["verify", "--in", "b4.ksp", "--solution", "trace.json", "--delta", "1/2"])
        out["constants/1_2"] = _cli(["constants", "--delta", "1/2"])
    return out


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_default_output_is_pinned(outputs, key):
    assert hashlib.sha1(outputs[key].encode("utf-8")).hexdigest() == DIGESTS[key]
