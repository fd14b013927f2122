"""The benchmark's tracer hooks must all resolve.

`clawbench/spans.py` rebinds each `(module, attr)` in its `HOOKS` table and
skips, counting as `trace.hooks_missing`, any that no longer exists; a
rename or fold in clawpack would silently drop that layer from the traced
metrics. The file is read and executed by path, so nothing is imported from
or written into the benchmark directory.
"""

import importlib
import types
from pathlib import Path

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
