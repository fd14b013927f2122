import json
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpack import formats
from clawpack.generators import (
    berman_tight_instance,
    gen_alternating_cycle,
    gen_random_packing,
)
from clawpack.instances import ConflictGraph, InputError, PackingInstance, build_conflict_graph


def test_ksp_text_round_trip():
    inst = berman_tight_instance(4)
    text = formats.to_text(inst)
    again = formats.parse_text(text)
    assert again == inst


def test_mwis_text_round_trip():
    g, _, _ = gen_alternating_cycle(3, 4, Fraction(1, 2))
    text = formats.to_text(g)
    again = formats.parse_text(text)
    assert again.n == g.n and again.adj == g.adj and again.weights == g.weights


def test_json_round_trip_both_kinds():
    inst = gen_random_packing(8, 3, 9, seed=5)
    assert formats.from_json_obj(json.loads(formats.to_json(inst))) == inst
    g = build_conflict_graph(inst)
    g2 = formats.from_json_obj(json.loads(formats.to_json(g)))
    assert g2.adj == g.adj and g2.weights == g.weights


def test_comments_and_blank_lines():
    text = "c a comment\n\np ksp 1 2 3\nc another\ns 3/2 0 2\n"
    inst = formats.parse_text(text)
    assert isinstance(inst, PackingInstance)
    assert inst.weights == (Fraction(3, 2),)
    assert inst.sets == ((0, 2),)


def test_integer_weight_token_accepted():
    inst = formats.parse_text("p ksp 1 2 3\ns 2 0\n")
    assert inst.weights == (Fraction(2),)


def test_parse_errors():
    with pytest.raises(InputError):
        formats.parse_text("s 1/1 0\n")  # missing header
    with pytest.raises(InputError):
        formats.parse_text("p ksp 2 2 3\ns 1/1 0\n")  # set count mismatch
    with pytest.raises(InputError):
        formats.parse_text("p mwis 2 1\nv 0 1/1\nv 1 1/1\n")  # edge count mismatch
    with pytest.raises(InputError):
        formats.parse_text("p ksp 1 2 3\ns 0/1 0\n")  # zero weight
    with pytest.raises(InputError):
        formats.parse_text("p ksp 1 2 3\ns 1/1 0 0\n")  # duplicate element
    with pytest.raises(InputError, match="line 3: duplicate vertex 0"):
        formats.parse_text("p mwis 2 1\nv 0 1\nv 0 5\nv 1 2\ne 0 1\n")
    with pytest.raises(InputError, match="line 5: duplicate edge 0 1"):
        formats.parse_text("p mwis 2 2\nv 0 1\nv 1 2\ne 0 1\ne 1 0\n")


@pytest.mark.parametrize("text, message", [
    ("p ksp 1 2 3\ns 1 0 1\ne 0 1\nv 0 5\n", "line 3: a ksp document holds no 'e' records"),
    ("p ksp 1 2 3\ns 1 0 1\nv 0 5\ne 0 1\n", "line 3: a ksp document holds no 'v' records"),
    ("p mwis 1 0\nv 0 1\ns 1 0 1\n", "line 3: a mwis document holds no 's' records"),
    # a record before the header is named at its own line
    ("c x\ne 0 1\np ksp 1 2 3\ns 1 0 1\n", "line 2: a ksp document holds no 'e' records"),
    ("s 1 0\np mwis 1 0\nv 0 1\n", "line 1: a mwis document holds no 's' records"),
])
def test_text_rejects_records_of_the_other_kind(text, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        formats.parse_text(text)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "ksp", "k": 2, "universe": 3, "sets": [[0, 1]], "weights": ["1"], "edges": [[0, 1]]},
     "a ksp document's 'edges' must be null or absent"),
    ({"kind": "ksp", "k": 2, "universe": 3, "sets": [[0, 1]], "weights": ["1"], "edges": []},
     "a ksp document's 'edges' must be null or absent"),
    ({"kind": "mwis", "weights": ["1"], "edges": [], "sets": [[0]]},
     "a mwis document's 'sets' must be null or absent"),
])
def test_json_rejects_fields_of_the_other_kind(doc, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        formats.from_json_obj(doc)
    # the field `to_json_obj` writes as null, and its absence, are accepted
    other = "edges" if doc["kind"] == "ksp" else "sets"
    formats.from_json_obj({**doc, other: None})
    formats.from_json_obj({f: v for f, v in doc.items() if f != other})


@pytest.mark.parametrize("field, value, message", [
    ("k", 7, "a mwis document's 'k' must be null or absent"),
    ("k", 0, "a mwis document's 'k' must be null or absent"),
    ("universe", 99, "a mwis document's 'universe' must equal its number of weights, 2, or be absent; got 99"),
    ("universe", 1, "a mwis document's 'universe' must equal its number of weights, 2, or be absent; got 1"),
    ("universe", None, "universe must be an integer, got None"),
    ("universe", "2", "universe must be an integer, got '2'"),
])
def test_json_rejects_a_mwis_k_or_universe_that_no_writer_writes(field, value, message):
    g = ConflictGraph.from_edges(2, [(0, 1)], [1, 1])
    doc = formats.to_json_obj(g)
    assert (doc["k"], doc["universe"]) == (None, 2)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        formats.from_json_obj({**doc, field: value})
    # the value `to_json_obj` writes, and its absence, are accepted
    assert formats.from_json_obj(doc) == g
    assert formats.from_json_obj({f: v for f, v in doc.items() if f != field}) == g


def test_json_rejects_a_repeated_edge_as_text_does():
    for edges in ([[0, 1], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [0, 1]]):
        with pytest.raises(InputError, match="^duplicate edge 0 1$"):
            formats.from_json_obj({"kind": "mwis", "weights": ["1", "1"], "edges": edges})


def test_a_weight_token_is_parsed_once_and_a_bad_one_fails_at_its_first_line():
    inst = formats.parse_text("p ksp 3 2 3\ns 3/2 0\ns 3/2 1\ns 0.5 2\n")
    assert inst.weights == (Fraction(3, 2), Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(InputError, match=r"^line 3: bad weight 'x'$"):
        formats.parse_text("p ksp 3 2 3\ns 1/2 0\ns x 1\ns x 2\n")
    with pytest.raises(InputError, match=r"^line 2: weight must be positive, got 0/1$"):
        formats.parse_text("p ksp 2 2 3\ns 0/1 0\ns 0/1 1\n")
    g = formats.parse_text("p mwis 2 1\nv 0 2/3\nv 1 2/3\ne 1 0\n")
    assert g.weights == (Fraction(2, 3), Fraction(2, 3)) and g.edges() == [(0, 1)]
    with pytest.raises(InputError, match=r"^line 3: bad weight '-'$"):
        formats.parse_text("p mwis 2 0\nv 0 1\nv 1 -\n")


EXPONENT_TOKENS = ["1e4000000", "1E3", "2.5e-3", "1e0", "-1e5"]


@pytest.mark.parametrize("token", EXPONENT_TOKENS)
def test_exponent_weight_rejected_on_text_path(token):
    # Fraction would expand 1e4000000 into a 13 M-bit numerator
    with pytest.raises(InputError, match="line 2: bad weight .*exponent"):
        formats.parse_text(f"p ksp 1 2 3\ns {token} 0\n")
    with pytest.raises(InputError, match="line 2: bad weight .*exponent"):
        formats.parse_text(f"p mwis 1 0\nv 0 {token}\n")


@pytest.mark.parametrize("weight", EXPONENT_TOKENS + [1e-05, 1e300])
def test_exponent_weight_rejected_on_json_path(weight, tmp_path):
    doc = {"kind": "ksp", "k": 3, "universe": 2, "sets": [[0]], "weights": [weight]}
    with pytest.raises(InputError, match="exponent"):
        formats.from_json_obj(doc)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="exponent"):
        formats.load(str(path))


def test_decimal_weight_still_accepted():
    assert formats.parse_text("p ksp 1 2 3\ns 1.25 0\n").weights == (Fraction(5, 4),)
    doc = {"kind": "mwis", "weights": ["0.5", 2], "edges": [[0, 1]]}
    assert formats.from_json_obj(doc).weights == (Fraction(1, 2), Fraction(2))


def test_parse_then_build_graph_is_deterministic():
    inst = gen_random_packing(10, 3, 8, seed=3)
    text = formats.to_text(inst)
    g1 = build_conflict_graph(formats.parse_text(text))
    g2 = build_conflict_graph(formats.parse_text(text))
    assert g1.adj == g2.adj


def test_file_round_trip(tmp_path):
    inst = gen_random_packing(6, 2, 6, seed=9)
    p1 = tmp_path / "inst.ksp"
    p2 = tmp_path / "inst.json"
    formats.dump(inst, str(p1))
    formats.dump(inst, str(p2))
    assert formats.load(str(p1)) == inst
    assert formats.load(str(p2)) == inst


@st.composite
def constructor_args(draw):
    """Arguments for the public `PackingInstance` constructor: sets as
    tuples in any order, lists and frozensets, with elements near the
    universe's range, so many are refused."""
    universe, k = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    elems = st.lists(st.integers(-1, universe), max_size=k + 1)
    sets = draw(st.lists(st.one_of(elems.map(tuple), elems.map(lambda s: tuple(sorted(set(s)))),
                                   elems.map(frozenset), elems), max_size=4))
    weight = st.integers(1, 3) | st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
    return universe, tuple(sets), tuple(draw(st.lists(weight, min_size=len(sets), max_size=len(sets)))), k


@settings(max_examples=300, deadline=None)
@given(constructor_args())
def test_every_constructible_instance_round_trips_equal(args):
    """Whatever the public constructor accepts, `dump` then `load` gives
    back an equal instance, in text and in JSON."""
    try:
        inst = PackingInstance(*args)
    except InputError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("inst.ksp", "inst.json"):
            path = os.path.join(tmp, name)
            formats.dump(inst, path)
            assert formats.load(path) == inst


def test_generated_families_round_trip():
    for obj in (
        berman_tight_instance(5),
        gen_alternating_cycle(4, 5, Fraction(1, 3))[0],
    ):
        text = formats.to_text(obj)
        again = formats.parse_text(text)
        if isinstance(obj, ConflictGraph):
            assert again.adj == obj.adj and again.weights == obj.weights
        else:
            assert again == obj


# ------------------------------------------------------------ malformed input


@pytest.mark.parametrize("doc", [
    [],  # not an object
    {"kind": "ksp", "k": 3, "sets": [[0]], "weights": ["1"]},  # no universe
    {"kind": "mwis", "weights": ["1"], "edges": [[0]]},  # one endpoint
    {"kind": "ksp", "k": 3, "universe": 2, "sets": [["a"]], "weights": ["1"]},
    {"kind": "ksp", "k": True, "universe": 2, "sets": [[0]], "weights": ["1"]},
    {"kind": "mwis", "weights": "1", "edges": []},
    {"kind": "mwis", "weights": ["1"], "edges": None},
])
def test_malformed_json_documents(doc):
    with pytest.raises(InputError):
        formats.from_json_obj(doc)


def test_invalid_json_text(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "ksp",', encoding="utf-8")
    with pytest.raises(InputError):
        formats.load(str(path))


def test_huge_vertex_count_is_rejected_without_allocating():
    with pytest.raises(InputError):
        formats.parse_text("p mwis 99999999999999 0\nv 0 1\n")


TOKENS = ["p", "ksp", "mwis", "s", "v", "e", "c", "0", "1", "2", "3", "-1", "7",
          "1/2", "0/1", "1/0", "-1/2", "x", "1.5", "99999999999999", ""]


@st.composite
def near_text(draw):
    """Documents of plausible records built from a small token pool."""
    lines = draw(st.lists(st.lists(st.sampled_from(TOKENS), max_size=6), max_size=8))
    return "\n".join(" ".join(line) for line in lines)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=80), near_text()))
def test_parse_text_raises_only_input_error(text):
    try:
        formats.parse_text(text)
    except InputError:
        pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.sampled_from(["1/2", "3", "0", "-1", "1/0"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
FIELDS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["ksp", "mwis", "other"]) | JSON_VALUES,
    "k": st.integers(-1, 4) | JSON_VALUES,
    "universe": st.integers(-1, 6) | JSON_VALUES,
    "sets": st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=4) | JSON_VALUES,
    "weights": st.lists(st.sampled_from(["1", "1/2", "0", "-2", "a"]), max_size=4) | JSON_VALUES,
    "edges": st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=4) | JSON_VALUES,
})


@settings(max_examples=400, deadline=None)
@given(st.one_of(JSON_VALUES, FIELDS))
def test_from_json_obj_raises_only_input_error(doc):
    try:
        formats.from_json_obj(doc)
    except InputError:
        pass
