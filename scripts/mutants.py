"""Run one-line mutants of `src/clawpack` against the tier-1 tests and report
which test kills each.

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py 0 3 7      # the mutants at these positions
    python3 scripts/mutants.py --check    # only check that each old text occurs once

Each mutant is (file, old, new, reason): the exact text `old` of
`src/clawpack/<file>` is replaced by `new` in a temporary copy of the
repository, and tier-1 runs there with `-x`, so it stops at the first
failing test. The test files named for the mutated module
(`tests/test_<module>*.py`) run first, where most killers sit; the rest of
tier-1 runs only if they pass. A mutant is killed when a test fails (the
script names it) and survives when all of tier-1 passes. An `old` that
does not occur exactly once in its file is an error, so the list cannot go
stale unnoticed. The run takes up to a tier-1 run per mutant; it exits 1
if any mutant survived or any `old` did not match. `tests/test_mutants.py`
checks the list in tier-1; it reads the unmutated files, so the mutant
runs leave it out.
Mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", Computer 11(4), 1978.
"""

import glob
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "clawpack")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


MUTANTS = (
    # the membership tests that read the adjacency tuples
    Mutant("instances.py", "return v in self.adj[u]", "return v in self.adj[u][1:]",
           "has_edge misses each vertex's lowest neighbor"),
    Mutant("instances.py", "if not seen.isdisjoint(self.adj[v]):", "if not seen.isdisjoint(self.adj[v][1:]):",
           "is_independent misses each vertex's lowest neighbor"),
    Mutant("instances.py", "ext = [u for u in level[i + 1:] if u not in nbrs]",
           "ext = [u for u in level[i + 1:] if u not in nbrs[1:]]",
           "independent_subsets extends a pick by its lowest neighbor"),
    Mutant("instances.py", "if u not in nbrs and p[u] > deficit]", "if p[u] > deficit]",
           "independent_subsets' one-pick branch extends by neighbors too"),
    Mutant("circular.py", "near = {z for x in y1 for z in adj[x]}", "near = {z for x in y1[:1] for z in adj[x]}",
           "an aux edge joins companion sets with adjacent members past the first"),
    Mutant("circular.py", "side_b = [ib for ib, y in enumerate(ys2) if nbrs.isdisjoint(y)]",
           "side_b = list(range(len(ys2)))",
           "an aux edge's second companion set may meet its inducer's neighbors"),
    Mutant("circular.py", "if x in support or not support.isdisjoint(nbrs):", "if x in support:",
           "the DFS joins a vertex adjacent to the cycle's support"),
    Mutant("circular.py", "if z == x or z in nbrs:", "if z == x:",
           "the DFS joins an inducer adjacent to its own companion set"),
    Mutant("circular.py", "dirty.update(todo[i:])", "dirty.add(u)",
           "an edge-check cap crossed part-way forgets the inducers not yet built"),
    # the bound that skips inducers without an edge, and the vertex cap over the lazy blocks;
    # low(v) summing only the negative spills would be equivalent: every spill is negative
    # (`CircularState._low_at`), so it is not listed
    Mutant("circular.py", "low = self._low[v] = sum(self._spills(v).values())",
           "low = self._low[v] = min(self._spills(v).values(), default=0)",
           "low(v) takes the least spill, not their sum, so it skips inducers whose edges need two candidates"),
    Mutant("circular.py", "if base <= self._low_at(v1) + self._low_at(v2):",
           "if base < self._low_at(v1) + self._low_at(v2):",
           "the bound admits inducers whose base meets it, and builds blocks at their anchors"),
    Mutant("circular.py", "if self._n_vertices > _MAX_AUX_VERTICES:", "if False:",
           "the vertex cap is checked only before the lazy builds"),
    # the block-dirtying rules: a vertex block leaves only with its last holder
    Mutant("circular.py", "self._n_vertices -= len(self._vblocks.pop(v).ids)", "pass",
           "a vertex block whose last holder lets go stays, stale, and is reused"),
    Mutant("circular.py", "self._dirty_u.update(u for u in self.a.g.adj[v] if v in a_nbrs[u][:2])", "pass",
           "dropping low(v) dirties no inducer at v, so their edge blocks and the block at v go stale"),
    # the solution's graph
    Mutant("instances.py", "    if s.g is not g:\n        raise ContractError", "    if False:\n        raise ContractError",
           "verify_solution checks a solution over another graph"),
    Mutant("instances.py", "    if a.g is not g:\n        raise ContractError", "    if False:\n        raise ContractError",
           "validate_improvement checks a solution over another graph"),
    Mutant("circular.py", "if state is not None and state.a is not a:", "if False:",
           "build_anchor_maps re-anchors a state over another solution than the one it holds"),
    Mutant("certify.py", "if astar.g is not g:", "if False:",
           "the certificate weighs a reference over another graph with the incumbent's weights"),
    # the input checks that run once: the PackingInstance constructor's, and the weights of from_edges
    Mutant("instances.py", "all(map(lt, s, s[1:]))", "all(map(lambda a, b: a <= b, s, s[1:]))",
           "the constructor accepts a set that repeats an element"),
    Mutant("instances.py", "not isinstance(s, tuple) or ", "",
           "the constructor reads a set that is not a tuple as one"),
    Mutant("instances.py", "if not 1 <= len(s) <= k:", "if not 1 <= len(s) <= k + 1:",
           "the constructor accepts a set of k + 1 elements"),
    Mutant("instances.py", "if s[0] < 0 or ", "if ",
           "the constructor accepts a negative element"),
    Mutant("instances.py", "s[-1] >= universe", "s[-1] > universe",
           "the constructor accepts an element equal to the universe size"),
    Mutant("instances.py", "if len(ws) == n and _first_non_positive(ws) is None:", "if len(ws) == n:",
           "from_edges and reweighted accept a non-positive weight"),
    # the incremental state of the solution and of the two searches
    Mutant("circular.py", "return set(moved).union(*(adj[v] for v in moved))", "return set(moved)",
           "the circular state re-anchors the moved vertices but not their neighbors"),
    Mutant("circular.py", "if not a_nbrs[u] and u not in members:\n            raise ContractError",
           "if False:\n            raise ContractError",
           "build_anchor_maps accepts a solution that is not maximal"),
    Mutant("instances.py", "insort(table[u], v, key=rank)", "table[u].append(v)",
           "Solution.apply appends a new member to N(u, A), out of weight order"),
    Mutant("instances.py", "table[v].remove(r)", "pass",
           "Solution.apply leaves a removed member in N(u, A)"),
    Mutant("instances.py", "table[v].remove(r)", "table[v].remove(r) if table[v][0] == r else None",
           "Solution.apply removes a removed member from N(u, A) only where it heads the list"),
    Mutant("solvers.py", "if not a_nbrs[v] and v not in members:\n                    free.add(v)",
           "if False:\n                    free.add(v)",
           "the claw state never frees a vertex whose last solution neighbor left"),
    Mutant("solvers.py", "if not settled.isdisjoint(adj[v]):", "if False:",
           "the claw state never reopens a settled center near a removed vertex"),
    # the strict comparisons, the charges and the cycle-length bounds
    Mutant("oracle.py", "improves = r < x_p[k]", "improves = r <= x_p[k]",
           "a swap of equal weight counts as an improvement"),
    Mutant("circular.py", "    return lhs > rhs", "    return lhs >= rhs",
           "aux_edge_check accepts an edge of zero slack"),
    Mutant("oracle.py", "if sum(sorted(walk_p.values())[-cap:]) <= base:", "if sum(sorted(walk_p.values())[-cap:]) < base:",
           "a center whose charges tie its weight is walked, not settled (node counts only)"),
    Mutant("oracle.py", "x -= p[a] if m == 1 else p[a] // min(m, cap)", "x -= p[a] if m == 1 else p[a] // min(m, cap) + 1",
           "each shared member is charged one unit too much, so an improving claw can be skipped"),
    Mutant("circular.py", "    if len(u_list) > max_cycle_len_for(g.n):\n        return False\n", "",
           "validate_circular accepts a cycle past the length bound"),
    # every other check of validate_circular, and the vertex range of validate_improvement
    Mutant("circular.py", "if not isinstance(kind, Circular) or not validate_improvement(g, a, imp):",
           "if not validate_improvement(g, a, imp):", "validate_circular reads evidence that is not Circular"),
    Mutant("circular.py", "if not isinstance(kind, Circular) or not validate_improvement(g, a, imp):",
           "if not isinstance(kind, Circular):", "validate_circular skips validate_improvement"),
    Mutant("circular.py", "if len(u_list) < 2 or len(set(u_list)) != len(u_list):",
           "if len(set(u_list)) != len(u_list):", "validate_circular accepts a cycle of one inducer"),
    Mutant("circular.py", "if len(u_list) < 2 or len(set(u_list)) != len(u_list):",
           "if len(u_list) < 2:", "validate_circular accepts a repeated inducer"),
    Mutant("circular.py", "    if not set(u_list) <= x:\n        return False\n", "",
           "validate_circular accepts an inducer outside x"),
    Mutant("circular.py", "if len(cyc) != len(u_list) or len(set(cyc)) != len(cyc):",
           "if len(set(cyc)) != len(cyc):", "validate_circular accepts more cycle vertices than inducers"),
    Mutant("circular.py", "if len(cyc) != len(u_list) or len(set(cyc)) != len(cyc):",
           "if len(cyc) != len(u_list):", "validate_circular accepts a repeated cycle vertex"),
    Mutant("circular.py", "if set(a_nbrs[u][:2]) != {cyc[i], cyc[(i + 1) % len(cyc)]}:", "if False:",
           "validate_circular accepts inducers whose anchors do not follow the cycle"),
    Mutant("circular.py", "if len(ys) != len(cyc):", "if False:",
           "validate_circular accepts more companion sets than cycle vertices"),
    Mutant("circular.py", "if set().union(*ys) != x - set(u_list):", "if False:",
           "validate_circular accepts companion sets that are not x - u"),
    Mutant("circular.py", "if len(y) > d - 1:", "if False:",
           "validate_circular accepts a companion set of more than d - 1 members"),
    Mutant("circular.py", "if any(a_nbrs[x_][:1] != [v] for x_ in y):", "if False:",
           "validate_circular accepts a companion set at another anchor"),
    Mutant("circular.py", "if not aux_edge_check(a, u, y_of[v1], y_of[v2]):", "if False:",
           "validate_circular skips the per-edge inequality"),
    # validate_improvement's other checks
    Mutant("instances.py", "if c not in a.members:", "if False:",
           "validate_improvement accepts a claw centered outside the solution"),
    Mutant("instances.py", "if any(not g.has_edge(c, x) for x in imp.x):",
           "if any(not g.has_edge(c, x) for x in ()):",
           "validate_improvement accepts a talon that is not next to its center"),
    Mutant("instances.py", "            if imp.removed:\n                return False",
           "            if False:\n                return False",
           "validate_improvement accepts a free step that removes members"),
    Mutant("instances.py", "    if not g.is_independent(imp.x):\n        return False",
           "    if False:\n        return False",
           "validate_improvement accepts an x that is not independent"),
    Mutant("instances.py", " or (imp.x & a.members):", ":",
           "validate_improvement accepts an x that meets the solution"),
    Mutant("instances.py", "if set(imp.removed) != neighborhood(imp.x, a.members, g):",
           "if not set(imp.removed) <= neighborhood(imp.x, a.members, g):",
           "validate_improvement accepts a removed set short of N(x, A)"),
    Mutant("instances.py", "return imp.gain(g)[0] > 0", "return imp.gain(g)[0] >= 0",
           "validate_improvement accepts a swap of zero gain"),
    # the exact root and surd sign
    Mutant("exactnum.py", "return (t < 0) - (t > 0)", "return (t > 0) - (t < 0)",
           "surd_sign flips the sign when b or q is 0"),
    Mutant("exactnum.py", "s = b * b * qn - t * t * qd", "s = b * b * qn - t * qd",
           "surd_sign compares b**2 q with t q, not with t**2 q"),
    Mutant("exactnum.py", "r = 1 << -(-n.bit_length() // q)", "r = 1 << (n.bit_length() - 1) // q",
           "root_floor starts Newton's steps below the root, so they never descend"),
    Mutant("exactnum.py", "n = (x.numerator << bits * q) // x.denominator",
           "n = (x.numerator << bits * q) // x.denominator + 1",
           "root_floor takes the root of a radicand one too large"),
    Mutant("instances.py", "min(imp.x) < 0 or ", "", "validate_improvement indexes a negative vertex id"),
    Mutant("instances.py", "max(imp.x) >= g.n or ", "", "validate_improvement indexes a vertex id past n - 1"),
    Mutant("certify.py", "all(pos[v] <= w[v] for v in a.members)", "all(pos[v] < w[v] for v in a.members)",
           "the certificate fails a charge sum that meets its bound"),
    Mutant("certify.py", "all(contr[v] <= w2[v] for v in a.members)", "all(contr[v] < w2[v] for v in a.members)",
           "the certificate fails a contribution sum that meets its bound"),
    Mutant("circular.py", "if len(eseq) + 1 >= max_len:", "if len(eseq) + 1 > max_len:",
           "the DFS emits cycles one edge past its bound"),
    # the tables of w**alpha: one per graph and exponent
    Mutant("oracle.py", "table = g._power_tables.get(alpha)\n    if table is None:\n"
           "        table = g._power_tables[alpha] = _MpPowers(g.weights, alpha)",
           "table = g._power_tables.get(\"mp\")\n    if table is None:\n"
           "        table = g._power_tables[\"mp\"] = _MpPowers(g.weights, alpha)",
           "the mpmath table is kept without its exponent, so a second alpha on a graph reads the first's"
           " powers (test_oracle_exact.py::test_a_second_exponent_on_one_graph_reads_its_own_powers)"),
    Mutant("instances.py", "if q.denominator != 1:", "if type(k) is not Fraction and q.denominator != 1:",
           "int_powers reads any Fraction exponent as its numerator, a denominator 2 too"
           " (test_instances.py::test_int_powers_of_a_whole_fraction_is_the_int_table)"),
)


def unmatched(mutants=MUTANTS) -> list[str]:
    """The mutants whose `old` does not occur exactly once in its file, or
    that change nothing, each as `<position> <file>: <problem>`."""
    problems = []
    for i, m in enumerate(mutants):
        with open(os.path.join(SRC, m.file), encoding="utf-8") as fh:
            hits = fh.read().count(m.old)
        if hits != 1:
            problems.append(f"{i} {m.file}: old text occurs {hits} times: {m.old!r}")
        if m.old == m.new:
            problems.append(f"{i} {m.file}: old and new text are equal")
    return problems


def run_mutant(m: Mutant) -> str:
    """Apply `m` in a temporary copy of the repository and run tier-1 there
    with `-x`, the test files of its module first: "killed by <test>", or
    "survived"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out", "BENCH_*.json"))
        path = os.path.join(copy, "src", "clawpack", m.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(m.old, m.new, 1))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        stem = os.path.splitext(m.file)[0]
        own = sorted(os.path.relpath(f, copy) for f in glob.glob(os.path.join(copy, "tests", f"test_{stem}*.py")))
        # tests/test_mutants.py checks the unmutated text, so it would kill every mutant
        rest = ["--ignore", os.path.join("tests", "test_mutants.py")] + [a for f in own for a in ("--ignore", f)]
        for args in ([own] if own else []) + [rest]:
            cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors", *args]
            try:
                proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return f"killed by the {TIMEOUT_S} s timeout"
            if proc.returncode != 0:
                break
    if proc.returncode == 0:
        return "survived"
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return "killed by " + line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"killed: pytest exited {proc.returncode}"


def main(argv: list[str]) -> int:
    problems = unmatched()
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if argv == ["--check"] or problems:
        return 1 if problems else 0
    picks = [int(a) for a in argv] if argv else range(len(MUTANTS))
    survived = 0
    for i in picks:
        m = MUTANTS[i]
        verdict = run_mutant(m)
        survived += verdict == "survived"
        print(f"{i:2d} {m.file}: {m.reason}: {verdict}", flush=True)
    print(f"{len(picks) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
