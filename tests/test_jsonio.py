"""Input document parsing and output document serialization."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import augmentation_module, nilpotent_enveloping
from ncres.jsonio import (InputError, elem_terms, field_document, parse_coeff,
                          parse_input, render_json, resolution_document)
from ncres.field import prime_field, rationals
from ncres.resolver import ResolutionRequest, resolve


def doc_text(**overrides):
    doc = {
        "field": "Q",
        "generators": ["x", "y"],
        "relations": [[{"coeff": "1", "word": ["x", "y"]},
                       {"coeff": "-1", "word": ["y", "x"]}]],
        "module": {"shifts": [0],
                   "generators": [[{"coeff": "1", "component": 0,
                                    "word": ["x"]}]]},
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_round_trip_of_a_small_document():
    mod = parse_input(doc_text())
    alg = mod.algebra
    assert alg.names == ("x", "y")
    assert len(alg.relations) == 1
    assert mod.shifts == (0,)
    assert mod.generators == [{(0, (0,)): alg.field.one}]


def test_coefficients_parse_exactly():
    QQ = rationals()
    assert parse_coeff(QQ, "3/4") == QQ.from_ratio(3, 4)
    assert parse_coeff(QQ, "-7") == QQ.from_int(-7)
    F5 = prime_field(5)
    assert parse_coeff(F5, "1/2") == F5.mul(F5.from_int(1),
                                            F5.inv(F5.from_int(2)))
    for bad in ("1.5", "", "x", "1/0", "1/-2", 3, None, "2/"):
        with pytest.raises(InputError):
            parse_coeff(QQ, bad)
    with pytest.raises(InputError):
        parse_coeff(F5, "1/5")  # denominator vanishes mod 5


def test_reserved_and_malformed_names_rejected():
    with pytest.raises(InputError):
        parse_input(doc_text(generators=["x", "t"]))
    with pytest.raises(InputError):
        parse_input(doc_text(generators=["x", "x"]))
    with pytest.raises(InputError):
        parse_input(doc_text(generators=[]))


def test_unknown_or_missing_keys_rejected():
    raw = json.loads(doc_text())
    raw["extra"] = 1
    with pytest.raises(InputError):
        parse_input(json.dumps(raw))
    raw = json.loads(doc_text())
    del raw["module"]
    with pytest.raises(InputError):
        parse_input(json.dumps(raw))
    raw = json.loads(doc_text())
    raw["relations"][0][0]["weird"] = True
    with pytest.raises(InputError):
        parse_input(json.dumps(raw))


def test_bad_component_and_bad_letter_rejected():
    raw = json.loads(doc_text())
    raw["module"]["generators"][0][0]["component"] = 3
    with pytest.raises(InputError):
        parse_input(json.dumps(raw))
    raw = json.loads(doc_text())
    raw["relations"][0][0]["word"] = ["q", "y"]
    with pytest.raises(InputError):
        parse_input(json.dumps(raw))


def _with(path, value):
    raw = json.loads(doc_text())
    *outer, last = path
    slot = raw
    for key in outer:
        slot = slot[key]
    slot[last] = value
    return json.dumps(raw)


@pytest.mark.parametrize("path, value", [
    (("relations",), 5),
    (("relations",), None),
    (("module", "generators"), 5),
    (("module", "generators"), None),
    (("module", "shifts"), [True]),
    (("module", "shifts"), [0, False]),
    (("module", "generators", 0, 0, "component"), False),
    (("relations", 0, 0, "word"), [["x"]]),
    (("module", "generators", 0, 0, "word"), [{"x": 1}]),
])
def test_non_list_sections_and_booleans_rejected(path, value):
    with pytest.raises(InputError):
        parse_input(_with(path, value))


def test_not_json_and_inhomogeneous_rejected():
    with pytest.raises(InputError):
        parse_input("{nope")
    bad = doc_text(relations=[[{"coeff": "1", "word": ["x", "y"]},
                               {"coeff": "1", "word": ["x"]}]])
    with pytest.raises(InputError):
        parse_input(bad)
    # but validate=False lets structurally sound input through
    mod = parse_input(bad, validate=False)
    assert len(mod.algebra.relations) == 1


def test_field_documents():
    assert field_document(rationals()) == "Q"
    assert field_document(prime_field(7)) == {"Fp": 7}
    mod = parse_input(doc_text(field={"Fp": 7}))
    assert mod.algebra.field.char == 7
    with pytest.raises(InputError):
        parse_input(doc_text(field={"Fp": 6}))
    with pytest.raises(InputError):
        parse_input(doc_text(field="R"))


def test_term_lists_are_sorted_and_loadable():
    mod = augmentation_module(nilpotent_enveloping())
    alg = mod.algebra
    elems = elem_terms(alg, mod.generators[2])
    assert elems[0]["component"] == 0 and elems[0]["word"] == ["z"]


def test_output_document_json_round_trip():
    mod = augmentation_module(nilpotent_enveloping())
    res = resolve(ResolutionRequest(mod, degree_bound=5, length_bound=3))
    doc = resolution_document(res)
    text = render_json(doc)
    assert json.loads(text) == doc
    assert text == render_json(json.loads(text))
    assert doc["timings"] is None and doc["oracle"] is None
    assert [b["homological"] for b in doc["betti"]] == sorted(
        b["homological"] for b in doc["betti"])


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# escapes, control characters, non-ASCII and astral text all reach the
# string escaper; keys are strings, as every output document's are
texts = st.text(st.characters(), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x7f", "é", "\u2028", "\U0001f600", "a/b"])
scalars = (texts
           | st.integers(-2**70, 2**70)
           | st.sampled_from([0, -1, 2**64, -(2**64), 10**30])
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf,
                              1e300, 5e-324])
           | st.booleans() | st.none())
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_render_json_equals_json_dumps(doc):
    assert render_json(doc) == reference(doc)


def test_render_json_edge_values():
    doc = {"": [], "e": {}, "n": [None, True, False, -0.0, math.nan,
                                  math.inf, -math.inf, 2**100, -7],
           "s": ["é\u2028\U0001f600", "\"\\/\b\f\n\r\t\x01"],
           "t": (1, ("x",)), "z": [[], [{}], {"a": []}]}
    assert render_json(doc) == reference(doc)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_render_json_refuses_non_str_keys(key):
    with pytest.raises(TypeError):
        render_json({"a": 1, "b": {key: 2}})


def test_render_json_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        render_json({"a": [object()]})


def test_render_json_matches_json_on_a_resolution():
    mod = augmentation_module(nilpotent_enveloping())
    res = resolve(ResolutionRequest(mod, degree_bound=6, length_bound=4))
    doc = resolution_document(res, oracle={"ran": False, "diff": []},
                              timings={"total": 0.25, "parse": 1e-06})
    assert render_json(doc) == reference(doc)
