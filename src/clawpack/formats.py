"""Line-based text format and its JSON mirror for instances and graphs.

Text format, UTF-8, one record per line, comments start with `c`:

    p ksp <num_sets> <k> <universe_size>
    s <weight_num>/<weight_den> <elem> <elem> ...

    p mwis <n> <m>
    v <id> <weight_num>/<weight_den>
    e <u> <v>

The JSON mirror uses the field names kind, k, universe, sets[], weights[],
edges[]; weights are "num/den" strings so round-trips stay exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from .instances import ConflictGraph, InputError, PackingInstance

Parsed = Union[PackingInstance, ConflictGraph]


def _parse_weight(token: str) -> Fraction:
    """A positive rational weight: an integer, `num/den` or a decimal.

    Exponent notation is rejected: `Fraction` expands it in full, so one
    short token such as `1e4000000` would cost seconds and megabytes.
    """
    if "e" in token or "E" in token:
        raise InputError(f"bad weight {token!r}: exponent notation is not accepted")
    try:
        w = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad weight {token!r}") from exc
    if w <= 0:
        raise InputError(f"weight must be positive, got {token}")
    return w


def _fmt_weight(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}"


def parse_text(text: str) -> Parsed:
    """Parse either a `p ksp` or `p mwis` document."""
    header = None
    sets: list[list[int]] = []
    set_weights: list[Fraction] = []
    vert_weights: dict[int, Fraction] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        try:
            if tok[0] == "p":
                if header is not None:
                    raise InputError("duplicate header line")
                if tok[1] == "ksp" and len(tok) == 5:
                    header = ("ksp", int(tok[2]), int(tok[3]), int(tok[4]))
                elif tok[1] == "mwis" and len(tok) == 4:
                    header = ("mwis", int(tok[2]), int(tok[3]))
                else:
                    raise InputError(f"bad header {line!r}")
            elif tok[0] == "s":
                set_weights.append(_parse_weight(tok[1]))
                sets.append([int(t) for t in tok[2:]])
            elif tok[0] == "v":
                vert_weights[int(tok[1])] = _parse_weight(tok[2])
            elif tok[0] == "e":
                edges.append((int(tok[1]), int(tok[2])))
            else:
                raise InputError(f"unknown record {tok[0]!r}")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        except (IndexError, ValueError) as exc:
            raise InputError(f"line {lineno}: cannot parse {line!r}") from exc
    if header is None:
        raise InputError("missing `p` header line")
    if header[0] == "ksp":
        _, n, k, universe = header
        if len(sets) != n:
            raise InputError(f"header promises {n} sets, found {len(sets)}")
        return PackingInstance.build(universe, sets, set_weights, k)
    _, n, m = header
    if len(vert_weights) != n or not all(0 <= v < n for v in vert_weights):
        raise InputError("vertex records must cover ids 0..n-1 exactly")
    if len(edges) != m:
        raise InputError(f"header promises {m} edges, found {len(edges)}")
    weights = [vert_weights[i] for i in range(n)]
    return ConflictGraph.from_edges(n, edges, weights)


def to_text(obj: Parsed) -> str:
    lines = []
    if isinstance(obj, PackingInstance):
        lines.append(f"p ksp {obj.n} {obj.k} {obj.universe_size}")
        for s, w in zip(obj.sets, obj.weights):
            elems = " ".join(str(e) for e in sorted(s))
            lines.append(f"s {_fmt_weight(w)} {elems}")
    else:
        edges = obj.edges()
        lines.append(f"p mwis {obj.n} {len(edges)}")
        for i, w in enumerate(obj.weights):
            lines.append(f"v {i} {_fmt_weight(w)}")
        for u, v in edges:
            lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def to_json_obj(obj: Parsed) -> dict:
    if isinstance(obj, PackingInstance):
        return {
            "kind": "ksp",
            "k": obj.k,
            "universe": obj.universe_size,
            "sets": [sorted(s) for s in obj.sets],
            "weights": [_fmt_weight(w) for w in obj.weights],
            "edges": None,
        }
    return {
        "kind": "mwis",
        "k": None,
        "universe": obj.n,
        "sets": None,
        "weights": [_fmt_weight(w) for w in obj.weights],
        "edges": [[u, v] for u, v in obj.edges()],
    }


def _field(doc: dict, name: str, kind: type, what: str):
    """doc[name], which must be a `kind` (never a bool)."""
    if name not in doc:
        raise InputError(f"missing field {name!r}")
    return _typed(doc[name], kind, what)


def _typed(value, kind: type, what: str):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{what} must be {'an integer' if kind is int else 'a list'}, got {value!r}")
    return value


def from_json_obj(doc: dict) -> Parsed:
    """Build an instance from the JSON mirror; malformed documents raise
    InputError."""
    if not isinstance(doc, dict):
        raise InputError(f"instance JSON must be an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in ("ksp", "mwis"):
        raise InputError(f"unknown kind {kind!r}")
    weights = [_parse_weight(str(w)) for w in _field(doc, "weights", list, "weights")]
    if kind == "ksp":
        sets = [
            [_typed(e, int, "a set element") for e in _typed(s, list, "a set")]
            for s in _field(doc, "sets", list, "sets")
        ]
        return PackingInstance.build(
            _field(doc, "universe", int, "universe"), sets, weights, _field(doc, "k", int, "k")
        )
    edges = []
    for e in _field(doc, "edges", list, "edges"):
        if len(_typed(e, list, "an edge")) != 2:
            raise InputError(f"an edge must have two endpoints, got {e!r}")
        edges.append((_typed(e[0], int, "an endpoint"), _typed(e[1], int, "an endpoint")))
    return ConflictGraph.from_edges(len(weights), edges, weights)


def to_json(obj: Parsed) -> str:
    return json.dumps(to_json_obj(obj), indent=None, separators=(",", ":"), sort_keys=True) + "\n"


def load(path: str) -> Parsed:
    """Load an instance file; `.json` selects the JSON mirror."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
        return from_json_obj(doc)
    return parse_text(text)


def dump(obj: Parsed, path: str) -> None:
    data = to_json(obj) if path.endswith(".json") else to_text(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
