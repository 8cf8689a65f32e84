"""Outside-in tracing of the ncres layers.

`Tracer.install()` wraps the public functions of each layer module of
`src/ncres` (and the few public methods that carry the Groebner work) so
that every call records a span: name, start, end, parent span and run
id.  Spans stay in memory; `layer_metrics` reduces them to the per-layer
numbers the benchmark reports, and the worker writes the raw spans out
when its run ends.

A module that did `from .syzygy import minimalize_graded` holds its own
reference to the function, so wrapping only `ncres.syzygy` would leave
the resolver calling the original and the span would never fire.
`install` therefore replaces the function under every name any loaded
`ncres` module binds it to.  Methods are wrapped on their class, which
every importer shares.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

ROOT = "run"


def _ring_elems(args, kwargs, result):
    return {"elems": len(args[0].elements)}


def _raw_syzygies(args, kwargs, result):
    return {"n": len(result.generators)}


def _minimalize_counts(args, kwargs, result):
    gens = args[1] if len(args) > 1 else kwargs["gens"]
    return {"candidates": len(gens), "kept": len(result)}


def _step_generators(args, kwargs, result):
    return {"n": len(result.generators)}


# (module, attribute path, span name, counter or None)
TARGETS = [
    ("ncres.engine", "RingGB.__init__", "engine.RingGB", _ring_elems),
    ("ncres.engine", "RingGB.normal_form", "engine.RingGB.normal_form",
     None),
    ("ncres.syzygy", "syzygies_over_quotient",
     "syzygy.syzygies_over_quotient", _raw_syzygies),
    ("ncres.syzygy", "minimalize_graded", "syzygy.minimalize_graded",
     _minimalize_counts),
    ("ncres.syzygy", "ModuleGB.complete_to", "syzygy.ModuleGB.complete_to",
     None),
    ("ncres.syzygy", "ModuleGB.normal_form", "syzygy.ModuleGB.normal_form",
     None),
    ("ncres.resolver", "resolve", "resolver.resolve", None),
    ("ncres.resolver", "syzygy_step", "resolver.syzygy_step",
     _step_generators),
    ("ncres.letterplace", "iota_module_elem",
     "letterplace.iota_module_elem", None),
    ("ncres.letterplace", "letterplace_ideal_gens",
     "letterplace.letterplace_ideal_gens", None),
    ("ncres.letterplace", "build_C", "letterplace.build_C", None),
    ("ncres.letterplace", "iota_inverse_word",
     "letterplace.iota_inverse_word", None),
    ("ncres.homog", "homogenization_context", "homog.homogenization_context",
     None),
    ("ncres.homog", "eta_apply", "homog.eta_apply", None),
    ("ncres.linalg", "rref", "linalg.rref", None),
    ("ncres.freealg", "validate_presentation",
     "freealg.validate_presentation", None),
    ("ncres.jsonio", "parse_input", "jsonio.parse_input", None),
    ("ncres.jsonio", "resolution_document", "jsonio.resolution_document",
     None),
    ("ncres.jsonio", "render_json", "jsonio.render_json", None),
    ("ncres.monores", "monomial_resolution", "monores.monomial_resolution",
     None),
]


class Tracer:
    """Records spans in memory.  Each span is a list
    [name, start, end, parent index or -1, run id, counters or None]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1], self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The span that covers a whole timed run."""
        rec = self._open(ROOT)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target under every binding in the loaded ncres
        modules.  Import ncres fully before calling this."""
        for modname, path, name, counter in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            self._replace(owner, attr, original, wrapper)
            if outer:
                continue
            for other in list(sys.modules.values()):
                if other is owner or other is None:
                    continue
                if not getattr(other, "__name__", "").startswith("ncres"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._replace(other, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover.
    Spans of one thread nest, so children never overlap each other."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _outermost(spans, names) -> list:
    """Indices of spans named in `names` with no ancestor named in
    `names`, so recursive or nested calls are not counted twice."""
    covered = [False] * len(spans)  # named, or inside a named span
    out = []
    for i, s in enumerate(spans):
        in_named = s[3] >= 0 and covered[s[3]]
        covered[i] = in_named or s[0] in names
        if s[0] in names and not in_named:
            out.append(i)
    return out


def _inclusive(spans, *names) -> float:
    names = set(names)
    return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, names))


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s[0] == name)


def _counter_sum(spans, name, key) -> int:
    return sum(s[5][key] for s in spans if s[0] == name and s[5])


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced run (see NOTES.md for the map from
    each to the end-to-end metric it should move)."""
    selfs = self_times(spans)
    frame = sum(s[2] - s[1] for s in spans
                if s[0] in ("syzygy.ModuleGB.complete_to",
                            "syzygy.ModuleGB.normal_form")
                and s[3] >= 0 and spans[s[3]][0] == "resolver.syzygy_step")
    steps = [s for s in spans if s[0] == "resolver.syzygy_step"]
    candidates = _counter_sum(spans, "syzygy.minimalize_graded",
                              "candidates")
    kept = _counter_sum(spans, "syzygy.minimalize_graded", "kept")
    return {
        "engine.ring_gb_s": _inclusive(spans, "engine.RingGB"),
        "engine.ring_gb_calls": _calls(spans, "engine.RingGB"),
        "engine.ring_basis_elems": _counter_sum(spans, "engine.RingGB",
                                                "elems"),
        "engine.ring_nf_s": _inclusive(spans, "engine.RingGB.normal_form"),
        "engine.ring_nf_calls": _calls(spans, "engine.RingGB.normal_form"),
        "syzygy.raw_s": _inclusive(spans, "syzygy.syzygies_over_quotient"),
        "syzygy.minimalize_s": _inclusive(spans,
                                          "syzygy.minimalize_graded"),
        "syzygy.frame_gb_s": frame,
        "syzygy.raw_syzygies": _counter_sum(
            spans, "syzygy.syzygies_over_quotient", "n"),
        "syzygy.candidates": candidates,
        "syzygy.kept": kept,
        "syzygy.kept_ratio": kept / candidates if candidates else 0.0,
        "resolver.self_s": sum(
            selfs[i] for i, s in enumerate(spans)
            if s[0] in ("resolver.resolve", "resolver.syzygy_step")),
        "resolver.steps": len(steps),
        "resolver.generators_out": _counter_sum(
            spans, "resolver.syzygy_step", "n"),
        "resolver.step_max_s": max((s[2] - s[1] for s in steps),
                                   default=0.0),
        "letterplace.encode_s": _inclusive(
            spans, "letterplace.iota_module_elem",
            "letterplace.letterplace_ideal_gens", "letterplace.build_C"),
        "letterplace.decode_s": _inclusive(spans,
                                           "letterplace.iota_inverse_word"),
        "homog.eta_s": _inclusive(spans, "homog.homogenization_context",
                                  "homog.eta_apply"),
        "linalg.rref_s": _inclusive(spans, "linalg.rref"),
        "linalg.rref_calls": _calls(spans, "linalg.rref"),
        "freealg.validate_s": _inclusive(spans,
                                         "freealg.validate_presentation"),
        "jsonio.parse_s": _inclusive(spans, "jsonio.parse_input"),
        "jsonio.render_s": _inclusive(spans, "jsonio.resolution_document",
                                      "jsonio.render_json"),
        "monores.oracle_s": _inclusive(spans,
                                       "monores.monomial_resolution"),
    }
