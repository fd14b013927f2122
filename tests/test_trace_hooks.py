"""The benchmark's tracer hooks must all resolve and see every call.

`clawbench/spans.py` rebinds each `(module, attr)` in its `HOOKS` table and
skips, counting as `trace.hooks_missing`, any that no longer exists; a
rename or fold in clawpack would silently drop that layer from the traced
metrics. The file is read and executed by path, so nothing is imported from
or written into the benchmark directory.
"""

import importlib
import types
from pathlib import Path
from unittest import mock

import pytest
from conftest import circular_state, expand_steps, tight_copies

from clawpack import solvers
from clawpack.circular import (
    ColorCodingParams,
    _assemble,
    _two_cycle_candidates,
    build_aux_graph,
    validate_circular,
)
from clawpack.instances import Solution, build_conflict_graph
from clawpack.solvers import SolverConfig, logimp, squareimp

SPANS = Path(__file__).resolve().parents[1] / "clawbench" / "spans.py"


def load_spans() -> types.ModuleType:
    mod = types.ModuleType("clawbench_spans")
    mod.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_every_hook_names_a_callable():
    hooks = load_spans().HOOKS
    assert hooks
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_tracer_installs_every_hook_and_restores_them():
    spans = load_spans()
    before = {(m, a): getattr(importlib.import_module(m), a) for _, m, a, _ in spans.HOOKS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    after = {(m, a): getattr(importlib.import_module(m), a) for _, m, a, _ in spans.HOOKS}
    assert after == before


def traced(run):
    """run() under the tracer; returns the tracer, the span ids by name and
    what run returned."""
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        result = run()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    by_name = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)
    return tracer, by_name, result


def traced_logimp(g, inst, start, params):
    """A logimp run under the tracer; returns the tracer, the span ids by
    name, the run's trace and the solution at each circular call."""
    seen = []
    real = solvers.build_anchor_maps

    def record(a, state=None):
        seen.append(frozenset(a.members))
        return real(a, state)

    cfg = SolverConfig(mode="logimp", circular=params)
    with mock.patch.object(solvers, "build_anchor_maps", record):
        tracer, by_name, trace = traced(lambda: logimp(g, cfg, start=Solution.of(g, start), inst=inst))
    return tracer, by_name, trace, seen


@pytest.mark.parametrize("mode", ["squareimp", "logimp"])
def test_traced_run_counts_every_claw_call(mode):
    """Each step of a squareimp or logimp run calls the claw search once
    through the hooked `solvers.find_claw_improvement`: one `solvers.claw`
    span per applied swap plus the final step, each a hit exactly when its
    step applied a claw-shaped swap. A step of free vertices is one call
    and one swap, and the trace records one size-1 claw-shaped swap per
    vertex."""
    inst, small = tight_copies(5, 6, seed=3)
    g = build_conflict_graph(inst)
    if mode == "squareimp":
        solver, cfg, kw = squareimp, SolverConfig(mode="squareimp"), {}
    else:
        solver, cfg = logimp, SolverConfig(mode="logimp", circular=ColorCodingParams.defaults(g, inst))
        kw = {"start": Solution.of(g, small), "inst": inst}
    applied = []
    original = Solution.apply

    def apply(self, imp):
        applied.append(imp)
        original(self, imp)

    with mock.patch.object(Solution, "apply", apply):
        tracer, by_name, trace = traced(lambda: solver(g, cfg, **kw))
    kinds = [r.kind for r in trace.improvements]
    assert set(kinds) == ({"claw-shaped"} if mode == "squareimp" else {"claw-shaped", "circular"})
    assert any(imp.kind_name() == "claw-shaped" and imp.kind.center is None and len(imp.x) > 1 for imp in applied)
    assert [(r.kind, r.size) for r in trace.improvements] == expand_steps(applied)
    claws = by_name["solvers.claw"]
    assert len(claws) == len(applied) + 1
    hits = [{"hit": int(imp.kind_name() == "claw-shaped")} for imp in applied]
    assert [tracer.counts[i] for i in claws] == hits + [{"hit": 0}]


def test_traced_logimp_counts_every_circular_build():
    """Under the tracer, a logimp run with its per-run circular state still
    goes through the hooked names once per circular call, and each traced
    aux graph has the size of a from-scratch build at that call."""
    inst, small = tight_copies(5, 6, seed=3)
    g = build_conflict_graph(inst)
    params = ColorCodingParams.defaults(g, inst)
    tracer, by_name, trace, seen = traced_logimp(g, inst, small, params)
    finds, aux = by_name["circular.find"], by_name["circular.aux_graph"]
    calls = [r.kind for r in trace.improvements].count("circular") + 1
    assert calls > 2
    assert len(finds) == len(aux) == len(by_name["circular.anchor_maps"]) == len(seen) == calls
    assert [tracer.parents[i] for i in aux] == finds
    for members, i in zip(seen, aux):
        a = Solution.of(g, members)
        h = build_aux_graph(circular_state(a, params, inst))
        assert tracer.counts[i] == {"vertices": len(h.vertices), "edges": len(h.edges)}


def test_traced_rand_logimp_shows_color_coding_under_find():
    """In rand mode, each circular call whose 2-cycle scan finds no
    improvement runs color coding once, traced as a child of its
    `circular.find` span; a call the 2-cycle scan answers runs none."""
    inst, small = tight_copies(5, 6, seed=3)
    g = build_conflict_graph(inst)
    params = ColorCodingParams.defaults(g, inst, mode="rand")
    tracer, by_name, trace, seen = traced_logimp(g, inst, small, params)
    finds = by_name["circular.find"]
    assert len(finds) == len(seen) == [r.kind for r in trace.improvements].count("circular") + 1
    coloring = by_name.get("circular.color_coding", [])
    assert all(tracer.parents[i] in finds for i in coloring)
    for members, f in zip(seen, finds):
        a = Solution.of(g, members)
        state = circular_state(a, params, inst)
        h = build_aux_graph(state)
        two = any(
            validate_circular(a, _assemble(a, h, vs, es), d=state.d)
            for vs, es in _two_cycle_candidates(g, h)
        )
        assert sum(tracer.parents[i] == f for i in coloring) == (0 if two else 1)
    assert len(coloring) > 2
