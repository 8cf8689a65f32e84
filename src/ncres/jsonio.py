"""JSON presentations in, JSON result documents out.

Input coefficients are exact rational strings ("a/b" or "a"); anything
else, floats in particular, is rejected before it can reach the number
tower.  Words are lists of generator names, never concatenated strings,
so multi-character names stay unambiguous.  Output documents contain only
JSON-native values and are rendered with sorted keys, making equal runs
byte-identical.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Dict, List, Optional, Tuple

from .field import Field, prime_field, rationals
from .freealg import (AlgebraPresentation, ModulePresentation, NcModElem,
                      NcPoly, validate_presentation)
from .resolver import Resolution, betti_summary

COEFF_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
RESERVED_NAME = "t"


class InputError(ValueError):
    """Malformed or invalid input document."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def _quote(obj, limit: int = 60) -> str:
    """repr(obj) cut to `limit` characters, so that an error line quoting
    a hostile value stays one short line."""
    try:
        text = repr(obj)
    except RecursionError:
        return "<nested too deeply>"
    return text if len(text) <= limit else text[:limit] + "…"


def _is_int(obj) -> bool:
    """A JSON integer; JSON booleans load as bool, a subclass of int."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def parse_coeff(field: Field, text) -> object:
    _expect(isinstance(text, str),
            f"coefficient must be a string, got {_quote(text)}")
    _expect(COEFF_RE.match(text) is not None,
            f"coefficient {_quote(text)} is not an exact integer or a/b "
            f"ratio")
    try:
        if "/" in text:
            num, den = text.split("/")
            num, den = int(num), int(den)
        else:
            num, den = int(text), 1
    except ValueError:  # beyond the interpreter's integer-string limit
        raise InputError(f"coefficient of {len(text)} characters is too "
                         f"long to convert")
    if field.char:
        _expect(den % field.char != 0,
                f"coefficient {_quote(text)} has denominator divisible by "
                f"{field.char}")
    return field.from_ratio(num, den)


def parse_field(obj) -> Field:
    if obj == "Q":
        return rationals()
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        p = obj["Fp"]
        _expect(isinstance(p, int) and p >= 2, f"bad modulus {_quote(p)}")
        try:
            return prime_field(p)
        except ValueError as e:
            raise InputError(str(e))
    raise InputError(f'field must be "Q" or {{"Fp": p}}, got {_quote(obj)}')


def _parse_word(names_index: Dict[str, int], obj, where: str) -> Tuple[int, ...]:
    _expect(isinstance(obj, list), f"{where}: word must be a list of names")
    letters = []
    for name in obj:
        _expect(isinstance(name, str),
                f"{where}: letter {_quote(name)} is not a generator name")
        _expect(name in names_index,
                f"{where}: unknown generator {_quote(name)}")
        letters.append(names_index[name])
    return tuple(letters)


def _parse_poly(field: Field, names_index: Dict[str, int], obj,
                where: str) -> NcPoly:
    _expect(isinstance(obj, list), f"{where}: polynomial must be a term list")
    poly: NcPoly = {}
    for k, term in enumerate(obj):
        slot = f"{where}, term {k + 1}"
        _expect(isinstance(term, dict) and set(term) == {"coeff", "word"},
                f"{slot}: expected keys coeff and word")
        c = parse_coeff(field, term["coeff"])
        w = _parse_word(names_index, term["word"], slot)
        s = field.add(poly.get(w, field.zero), c)
        if s == field.zero:
            poly.pop(w, None)
        else:
            poly[w] = s
    return poly


def _parse_module_elem(field: Field, names_index: Dict[str, int], rank: int,
                       obj, where: str) -> NcModElem:
    _expect(isinstance(obj, list), f"{where}: generator must be a term list")
    elem: NcModElem = {}
    for k, term in enumerate(obj):
        slot = f"{where}, term {k + 1}"
        _expect(isinstance(term, dict)
                and set(term) == {"coeff", "component", "word"},
                f"{slot}: expected keys coeff, component and word")
        comp = term["component"]
        _expect(_is_int(comp) and 0 <= comp < rank,
                f"{slot}: component {_quote(comp)} outside 0..{rank - 1}")
        c = parse_coeff(field, term["coeff"])
        w = _parse_word(names_index, term["word"], slot)
        s = field.add(elem.get((comp, w), field.zero), c)
        if s == field.zero:
            elem.pop((comp, w), None)
        else:
            elem[(comp, w)] = s
    return elem


def module_from_document(doc) -> ModulePresentation:
    _expect(isinstance(doc, dict), "top level must be an object")
    extra = set(doc) - {"field", "generators", "relations", "module"}
    _expect(not extra, f"unknown top-level keys {_quote(sorted(extra))}")
    for key in ("field", "generators", "relations", "module"):
        _expect(key in doc, f"missing top-level key {key!r}")

    field = parse_field(doc["field"])
    names = doc["generators"]
    _expect(isinstance(names, list) and names, "generators must be nonempty")
    for name in names:
        _expect(isinstance(name, str) and name,
                f"bad generator name {_quote(name)}")
        _expect(name != RESERVED_NAME,
                f"generator name {RESERVED_NAME!r} is reserved")
    _expect(len(set(names)) == len(names), "generator names must be unique")
    names_index = {name: i for i, name in enumerate(names)}

    _expect(isinstance(doc["relations"], list), "relations must be a list")
    relations = []
    for k, rel in enumerate(doc["relations"]):
        poly = _parse_poly(field, names_index, rel, f"relation {k + 1}")
        _expect(bool(poly), f"relation {k + 1} is zero")
        relations.append(poly)
    alg = AlgebraPresentation(field, tuple(names), relations)

    mod = doc["module"]
    _expect(isinstance(mod, dict) and set(mod) == {"shifts", "generators"},
            "module must have exactly the keys shifts and generators")
    shifts = mod["shifts"]
    _expect(isinstance(shifts, list) and shifts
            and all(_is_int(s) for s in shifts),
            "module shifts must be a nonempty list of integers")
    _expect(isinstance(mod["generators"], list),
            "module generators must be a list")
    gens = []
    for k, g in enumerate(mod["generators"]):
        elem = _parse_module_elem(field, names_index, len(shifts), g,
                                  f"module generator {k + 1}")
        _expect(bool(elem), f"module generator {k + 1} is zero")
        gens.append(elem)
    return ModulePresentation(alg, tuple(shifts), gens)


def parse_input(text: str, validate: bool = True) -> ModulePresentation:
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an over-long integer
        raise InputError(f"not valid JSON: {e}")
    except RecursionError:
        raise InputError("not valid JSON: nested too deeply")
    module = module_from_document(doc)
    if validate:
        problems = validate_presentation(module)
        if problems:
            raise InputError("; ".join(problems))
    return module


# --- output documents -------------------------------------------------------

def field_document(field: Field):
    return "Q" if field.char == 0 else {"Fp": field.char}


def elem_terms(alg: AlgebraPresentation, elem: NcModElem) -> List[dict]:
    out = []
    for comp, w in sorted(elem):
        out.append({"coeff": alg.field.to_str(elem[(comp, w)]),
                    "component": comp,
                    "word": [alg.names[a] for a in w]})
    return out


def resolution_document(res: Resolution,
                        oracle: Optional[dict] = None,
                        timings: Optional[dict] = None) -> dict:
    alg = res.module.algebra
    summary = betti_summary(res.table)
    betti = [{"homological": i, "slanted": j, "value": v}
             for (i, j), v in sorted(res.table.entries.items()) if v]
    steps = []
    for step in res.steps:
        steps.append({
            "index": step.index,
            "ambient_shifts": list(step.ambient_shifts),
            "window": step.window,
            "offset": step.offset,
            "homogenized": step.homogenized,
            "shifts": list(step.degrees),
            "generators": [elem_terms(alg, g) for g in step.generators],
        })
    doc = {
        "field": field_document(alg.field),
        "generators": list(alg.names),
        "module_shifts": list(res.module.shifts),
        "minimal_input": [elem_terms(alg, g) for g in res.minimal_input],
        "steps": steps,
        "betti": betti,
        "regularity": summary["regularity"],
        "global_dimension": summary["global_dimension"],
        "status": res.status,
        "windows": list(res.windows),
        "window_policy": res.window_policy,
        "oracle": oracle,
        "timings": timings,
    }
    return doc


def render_json(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) plus a newline, byte for
    byte, in one pass: an indent turns off json's C encoder, and its
    Python one does more work per value than this one."""
    parts: List[str] = []
    _render(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _render(obj, newline: str, out) -> None:
    """Hand `out` the pieces of obj as json.dumps(obj, indent=2,
    sort_keys=True) renders it, each nested line starting with `newline`
    plus two spaces.  Strings are escaped by json's own ASCII escaper,
    ints by int.__repr__ (bools excepted) and any other scalar by json.
    A key that is not a str raises TypeError: json would render it as a
    string, and this renderer does not."""
    if isinstance(obj, str):
        out(_encode_str(obj))
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(sep + _encode_str(key) + ": ")
            _render(obj[key], inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out(sep)
            _render(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    else:  # float, bool or None; json raises TypeError on anything else
        out(json.dumps(obj))
