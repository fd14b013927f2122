"""Spans around calls into clawpack's layers, recorded from outside the package.

`Tracer.install` rebinds each hooked name in the module where its caller looks
it up (for example `clawpack.solvers.find_claw_improvement`, which `squareimp`
and `logimp` call through the `solvers` module globals) and `uninstall` puts
the originals back. A hook whose module or attribute no longer exists is
reported as missing and skipped, so the untraced run never depends on them.

Counts come only from returned values: `AuxGraph` sizes,
`OracleResult.nodes_explored`, `RunTrace` improvement kinds,
`CertReport.all_bounds_ok()`, and `None` versus an improvement.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict


def _hit(result) -> dict:
    return {"hit": int(result is not None)}


def _run_trace(result) -> dict:
    kinds = defaultdict(int)
    for rec in result.improvements:
        kinds[rec.kind] += 1
    return {
        "iterations": result.iterations,
        "claw": kinds["claw-shaped"],
        "circular": kinds["circular"],
        "generic": kinds["generic"],
    }


# (span name, module, attribute, counts from the returned value)
HOOKS = [
    ("generators.gen_random_packing", "clawpack.generators", "gen_random_packing", None),
    ("generators.berman_tight_instance", "clawpack.generators", "berman_tight_instance", None),
    ("generators.gen_alternating_cycle", "clawpack.generators", "gen_alternating_cycle", None),
    ("generators.gen_high_girth_regular", "clawpack.generators", "gen_high_girth_regular", None),
    ("generators.gen_incidence_lowerbound", "clawpack.generators", "gen_incidence_lowerbound", None),
    ("formats.dump", "clawpack.formats", "dump", None),
    ("formats.load", "clawpack.formats", "load", None),
    ("instances.build_conflict_graph", "clawpack", "build_conflict_graph", lambda g: {"edges": g.m}),
    ("instances.build_conflict_graph", "clawpack.bench", "build_conflict_graph", lambda g: {"edges": g.m}),
    ("solvers.solve", "clawpack", "solve", _run_trace),
    ("solvers.solve", "clawpack.bench", "solve", _run_trace),
    ("solvers.greedy", "clawpack.solvers", "greedy", None),
    ("solvers.claw", "clawpack.solvers", "find_claw_improvement", _hit),
    ("circular.anchor_maps", "clawpack.solvers", "build_anchor_maps", None),
    ("circular.anchor_maps", "clawpack.certify", "build_anchor_maps", None),
    ("circular.find", "clawpack.solvers", "find_circular_improvement", _hit),
    ("circular.aux_graph", "clawpack.circular", "build_aux_graph",
     lambda h: {"vertices": len(h.vertices), "edges": len(h.edges)}),
    ("circular.color_coding", "clawpack.circular", "run_color_coding", _hit),
    ("circular.validate", "clawpack.circular", "validate_circular", lambda ok: {"accept": int(bool(ok))}),
    ("oracle.exact_mwis", "clawpack.bench", "exact_mwis", lambda r: {"nodes": r.nodes_explored}),
    ("oracle.improvement_search", "clawpack.solvers", "exhaustive_improvement_search", _hit),
    ("oracle.power_weight", "clawpack.oracle", "power_weight_improves", None),
    ("oracle.power_weight", "clawpack.solvers", "power_weight_gain", None),
    ("certify", "clawpack.bench", "certify_local_optimum", lambda r: {"pass": int(r.all_bounds_ok())}),
    ("bench.run_bench", "clawpack.bench", "run_bench", lambda r: {"rows": len(r.rows)}),
]


class Tracer:
    """Spans kept in memory as parallel lists; span ids are list indices."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list[dict | None] = []
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for name, module, attr, count in HOOKS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.missing.append(f"{module}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, count))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _wrap(self, name: str, fn, count):
        stack = self._stack

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op_id)
            self.counts.append(None)
            self.starts.append(0.0)
            self.ends.append(0.0)
            stack.append(sid)
            self.starts[sid] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[sid] = {"raised": 1}
                raise
            finally:
                self.ends[sid] = time.perf_counter()
                stack.pop()
            if count is not None:
                self.counts[sid] = count(result)
            return result

        return hooked

    def write(self, path: str) -> None:
        doc = {
            "fields": ["id", "parent", "name", "op", "start", "end", "counts"],
            "missing_hooks": self.missing,
            "spans": [
                [i, self.parents[i], self.names[i], self.ops[i], self.starts[i], self.ends[i], self.counts[i]]
                for i in range(len(self.names))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Summary:
    """Per span name: calls, inclusive and self time, summed counts; per
    layer prefix: inclusive time of the spans with no ancestor in that layer."""

    def __init__(self, tr: Tracer):
        n = len(tr.names)
        dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tr.parents[i]
            if p >= 0:
                child[p] += dur[i]
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.layer: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = tr.names[i]
            self.calls[name] += 1
            self.incl[name] += dur[i]
            self.self_s[name] += dur[i] - child[i]
            for k, v in (tr.counts[i] or {}).items():
                self.counts[name][k] += v
            layer = name.split(".", 1)[0]
            p = tr.parents[i]
            while p >= 0 and tr.names[p].split(".", 1)[0] != layer:
                p = tr.parents[p]
            if p < 0:
                self.layer[layer] += dur[i]
        self.spans = n

    def ratio(self, name: str, key: str) -> float:
        calls = self.calls[name]
        return self.counts[name][key] / calls if calls else 0.0
