"""Line-based text format and its JSON mirror for instances and graphs.

Text format, UTF-8, one record per line, comments start with `c`:

    p ksp <num_sets> <k> <universe_size>
    s <weight_num>/<weight_den> <elem> <elem> ...

    p mwis <n> <m>
    v <id> <weight_num>/<weight_den>
    e <u> <v>

The JSON mirror uses the field names kind, k, universe, sets[], weights[],
edges[]; weights are "num/den" strings so round-trips stay exact. It and
every JSON document the CLI writes (traces, reports) go through
`canonical_json`.

A `p ksp` document holds only `s` records and a `p mwis` document only
`v` and `e` records; a record of the other kind is an error that names its
first line, also before the header. In the JSON mirror the other kind's
field (`edges` of a ksp document, `sets` of an mwis one) must be null or
absent.

The parsers check only what the records say on their own: the syntax, the
record kinds, the header counts, duplicate `v` ids and `e` pairs (also in
the JSON mirror, in the same words), and each weight, a positive rational
without exponent notation. Each distinct weight token is parsed once per
document, so a bad token fails at its first line. The rest is checked
once, in `instances`: each set's order, repeats, size and range by the
`PackingInstance` constructor, after `PackingInstance.build` sorts it, and
the edges' loops and ranges by `ConflictGraph.from_edges`, whose adjacency
is then correct by construction and not checked again.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Union

from .instances import ConflictGraph, InputError, PackingInstance, fmt_fraction

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


def _weight_parser() -> Callable[[str], Fraction]:
    """`_parse_weight` for one document: each distinct token is parsed once."""
    parsed: dict[str, Fraction] = {}

    def parse(token: str) -> Fraction:
        w = parsed.get(token)
        if w is None:
            w = parsed[token] = _parse_weight(token)
        return w

    return parse


def parse_text(text: str) -> Parsed:
    """Parse either a `p ksp` or `p mwis` document."""
    header = None
    sets: list[list[int]] = []
    set_weights: list[Fraction] = []
    vert_weights: dict[int, Fraction] = {}
    edges: set[tuple[int, int]] = set()
    first: dict[str, int] = {}  # the first line of each record kind
    weight = _weight_parser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        first.setdefault(tok[0], lineno)
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
                set_weights.append(weight(tok[1]))
                sets.append(list(map(int, tok[2:])))
            elif tok[0] == "v":
                v = int(tok[1])
                if v in vert_weights:
                    raise InputError(f"duplicate vertex {v}")
                vert_weights[v] = weight(tok[2])
            elif tok[0] == "e":
                a, b = int(tok[1]), int(tok[2])
                u, v = min(a, b), max(a, b)
                if (u, v) in edges:
                    raise InputError(f"duplicate edge {u} {v}")
                edges.add((u, v))
            else:
                raise InputError(f"unknown record {tok[0]!r}")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        except (IndexError, ValueError) as exc:
            raise InputError(f"line {lineno}: cannot parse {line!r}") from exc
    if header is None:
        raise InputError("missing `p` header line")
    stray = min(((first[r], r) for r in ("ve" if header[0] == "ksp" else "s") if r in first), default=None)
    if stray:
        raise InputError(f"line {stray[0]}: a {header[0]} document holds no {stray[1]!r} records")
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
            elems = " ".join(map(str, s))
            lines.append(f"s {fmt_fraction(w)} {elems}")
    else:
        edges = obj.edges()
        lines.append(f"p mwis {obj.n} {len(edges)}")
        for i, w in enumerate(obj.weights):
            lines.append(f"v {i} {fmt_fraction(w)}")
        for u, v in edges:
            lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def to_json_obj(obj: Parsed) -> dict:
    if isinstance(obj, PackingInstance):
        return {
            "kind": "ksp",
            "k": obj.k,
            "universe": obj.universe_size,
            "sets": [list(s) for s in obj.sets],
            "weights": [fmt_fraction(w) for w in obj.weights],
            "edges": None,
        }
    return {
        "kind": "mwis",
        "k": None,
        "universe": obj.n,
        "sets": None,
        "weights": [fmt_fraction(w) for w in obj.weights],
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
    other = "edges" if kind == "ksp" else "sets"
    if doc.get(other) is not None:
        raise InputError(f"a {kind} document's {other!r} must be null or absent")
    weight = _weight_parser()
    weights = [weight(str(w)) for w in _field(doc, "weights", list, "weights")]
    if kind == "ksp":
        sets = [
            [_typed(e, int, "a set element") for e in _typed(s, list, "a set")]
            for s in _field(doc, "sets", list, "sets")
        ]
        return PackingInstance.build(
            _field(doc, "universe", int, "universe"), sets, weights, _field(doc, "k", int, "k")
        )
    # k and universe: the values `to_json_obj` writes, or absent
    if doc.get("k") is not None:
        raise InputError("a mwis document's 'k' must be null or absent")
    if "universe" in doc and _typed(doc["universe"], int, "universe") != len(weights):
        raise InputError(f"a mwis document's 'universe' must equal its number of weights, {len(weights)}, "
                         f"or be absent; got {doc['universe']}")
    edges, seen = [], set()
    for e in _field(doc, "edges", list, "edges"):
        if len(_typed(e, list, "an edge")) != 2:
            raise InputError(f"an edge must have two endpoints, got {e!r}")
        edges.append((_typed(e[0], int, "an endpoint"), _typed(e[1], int, "an endpoint")))
        u, v = sorted(edges[-1])
        if (u, v) in seen:
            raise InputError(f"duplicate edge {u} {v}")
        seen.add((u, v))
    return ConflictGraph.from_edges(len(weights), edges, weights)


def canonical_json(obj) -> str:
    """The package's one JSON writer: compact, keys sorted, one trailing
    newline, so equal objects give equal bytes."""
    return json.dumps(obj, indent=None, separators=(",", ":"), sort_keys=True) + "\n"


def to_json(obj: Parsed) -> str:
    return canonical_json(to_json_obj(obj))


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
