"""The canonical bytes of the flagship resolution: the rendered JSON of
the reference presentation over Q and over F_32003 must equal the golden
files the benchmark checks against, so a change to the emitted
generators fails here even when every table still holds."""

import json
from pathlib import Path

import pytest

from ncres import jsonio
from ncres.field import _mpq_rationals
from ncres.jsonio import parse_input, render_json, resolution_document
from ncres.resolver import ResolutionRequest, resolve

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


@pytest.mark.parametrize("name, field", [("fp", {"Fp": 32003}), ("q", "Q")],
                         ids=["fp", "q"])
def test_flagship_renders_the_golden_bytes(name, field):
    doc = json.loads((DATA / "flagship.json").read_text(encoding="utf-8"))
    doc["field"] = field
    res = resolve(ResolutionRequest(parse_input(json.dumps(doc)),
                                    degree_bound=10, length_bound=7,
                                    trust_finite=True))
    golden = (DATA / f"golden-nilpotent-{name}.json").read_text(
        encoding="utf-8")
    assert render_json(resolution_document(res)) == golden


def test_mpq_code_path_renders_the_golden_bytes(monkeypatch):
    """The mpq backend's operations (field._mpq_rationals), which keep
    every element in the backend's type, integral or not, render the
    golden bytes over Q.  Without gmpy2 the backend type is Fraction, so
    this covers that code path over Fraction, not gmpy2 itself."""
    monkeypatch.setattr(jsonio, "rationals", _mpq_rationals)
    mod = parse_input((DATA / "flagship.json").read_text(encoding="utf-8"))
    assert mod.algebra.field.zero.__class__ is not int
    res = resolve(ResolutionRequest(mod, degree_bound=10, length_bound=7,
                                    trust_finite=True))
    golden = (DATA / "golden-nilpotent-q.json").read_text(encoding="utf-8")
    assert render_json(resolution_document(res)) == golden
