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

from conftest import tight_copies

from clawpack import solvers
from clawpack.circular import ColorCodingParams, build_anchor_maps, build_aux_graph
from clawpack.instances import Solution, build_conflict_graph
from clawpack.solvers import SolverConfig, logimp

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


def test_traced_logimp_counts_every_circular_build():
    """Under the tracer, a logimp run with its per-run circular state still
    goes through the hooked names once per circular call, and each traced
    aux graph has the size of a from-scratch build at that call."""
    spans = load_spans()
    inst, small = tight_copies(5, 6, seed=3)
    g = build_conflict_graph(inst)
    params = ColorCodingParams.defaults(g, inst)
    seen = []
    real = solvers.build_anchor_maps

    def record(g_, a, state=None):
        seen.append(frozenset(a.members))
        return real(g_, a, state)

    tracer = spans.Tracer()
    with mock.patch.object(solvers, "build_anchor_maps", record):
        tracer.install()
        try:
            cfg = SolverConfig(mode="logimp", circular=params)
            trace = logimp(g, cfg, start=Solution.of(g, small), inst=inst)
        finally:
            tracer.uninstall()
    assert tracer.missing == []
    by_name = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)
    finds, aux = by_name["circular.find"], by_name["circular.aux_graph"]
    calls = [r.kind for r in trace.improvements].count("circular") + 1
    assert calls > 2
    assert len(finds) == len(aux) == len(by_name["circular.anchor_maps"]) == len(seen) == calls
    assert [tracer.parents[i] for i in aux] == finds
    for members, i in zip(seen, aux):
        a = Solution.of(g, members)
        h = build_aux_graph(g, a, build_anchor_maps(g, a), params, g.d)
        assert tracer.counts[i] == {"vertices": len(h.vertices), "edges": len(h.edges)}
