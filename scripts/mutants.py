"""Run one-line mutants of `src/clawpack` against the tier-1 tests and report
which test kills each.

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py 0 3 7      # the mutants at these positions
    python3 scripts/mutants.py --check    # only check that each old text occurs once

Each mutant is (file, old, new, reason): the exact text `old` of
`src/clawpack/<file>` is replaced by `new` in a temporary copy of the
repository, and tier-1 runs there with `-x`, so it stops at the first
failing test. A mutant is killed when a test fails (the script names it)
and survives when tier-1 passes. An `old` that does not occur exactly once
in its file is an error, so the list cannot go stale unnoticed. The run
takes up to a tier-1 run per mutant; it exits 1 if any mutant survived or
any `old` did not match. `tests/test_mutants.py` checks the list in
tier-1; it reads the unmutated files, so the mutant runs leave it out.
Mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", Computer 11(4), 1978.
"""

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
    # the solution's graph
    Mutant("instances.py", "    if s.g is not g:\n        raise ContractError", "    if False:\n        raise ContractError",
           "verify_solution checks a solution over another graph"),
    Mutant("instances.py", "    if a.g is not g:\n        raise ContractError", "    if False:\n        raise ContractError",
           "validate_improvement checks a solution over another graph"),
    Mutant("circular.py", "if state is not None and state.a is not a:", "if False:",
           "build_anchor_maps re-anchors a state over another solution than the one it holds"),
    Mutant("certify.py", "if astar.g is not g:", "if False:",
           "the certificate weighs a reference over another graph with the incumbent's weights"),
    # the incremental state of the solution and of the two searches
    Mutant("circular.py", "return set(moved).union(*(adj[v] for v in moved))", "return set(moved)",
           "the circular state re-anchors the moved vertices but not their neighbors"),
    Mutant("circular.py", "if not a_nbrs[u] and u not in members:\n            raise ContractError",
           "if False:\n            raise ContractError",
           "build_anchor_maps accepts a solution that is not maximal"),
    Mutant("instances.py", "insort(table[u], v, key=rank)", "table[u].append(v)",
           "Solution.apply appends a new member to N(u, A), out of weight order"),
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
    Mutant("certify.py", "all(pos[v] <= w[v] for v in a.members)", "all(pos[v] < w[v] for v in a.members)",
           "the certificate fails a charge sum that meets its bound"),
    Mutant("certify.py", "all(contr[v] <= w2[v] for v in a.members)", "all(contr[v] < w2[v] for v in a.members)",
           "the certificate fails a contribution sum that meets its bound"),
    Mutant("circular.py", "if len(eseq) + 1 >= max_len:", "if len(eseq) + 1 > max_len:",
           "the DFS emits cycles one edge past its bound"),
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
    with `-x`: "killed by <test>", or "survived"."""
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
        # tests/test_mutants.py checks the unmutated text, so it would kill every mutant
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--ignore", os.path.join("tests", "test_mutants.py")]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"killed by the {TIMEOUT_S} s timeout"
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
