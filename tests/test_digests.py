"""A byte net over random non-monomial input: the rendered JSON of 60
seeded random modules, resolved with compression on and off at degree
bound 6 and length 4, must hash to the SHA-256 digests in
tests/data/random-nonmonomial-digests.json.  The golden files pin the
flagship only; this pins the output on many small algebras, so a change
to which pairs or elements the engines keep cannot move a byte unseen.

Rewrite the fixture only for an intended output change:

    PYTHONPATH=src:tests python3 tests/test_digests.py
"""

import hashlib
import json
import re
from pathlib import Path

from helpers import nonmonomial_modules
from ncres.jsonio import render_json, resolution_document
from ncres.resolver import ResolutionRequest, resolve

FIXTURE = Path(__file__).resolve().parent / "data" / \
    "random-nonmonomial-digests.json"
SEED, COUNT, DEGREE_BOUND, LENGTH = 20261019, 60, 6, 4


# a rational coefficient that is not an integer, as rendered: "-3/2"
RATIO_RE = re.compile(r'"-?[0-9]+/[0-9]+"')


def documents() -> dict:
    out = {}
    for k, mod in enumerate(nonmonomial_modules(SEED, COUNT)):
        for tshift in (True, False):
            res = resolve(ResolutionRequest(mod, degree_bound=DEGREE_BOUND,
                                            length_bound=LENGTH,
                                            tshift=tshift))
            out[f"{k}-{'tshift' if tshift else 'no-tshift'}"] = \
                render_json(resolution_document(res))
    return out


def digests(docs: dict) -> dict:
    return {key: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for key, text in docs.items()}


def test_random_nonmonomial_resolves_render_the_recorded_bytes():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert want["seed"] == SEED and len(want["digests"]) == 2 * COUNT
    docs = documents()
    got = digests(docs)
    assert [k for k in want["digests"] if got[k] != want["digests"][k]] == []
    # the net covers non-integral coefficients, not only integral ones
    assert any(RATIO_RE.search(text) for text in docs.values())


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {"seed": SEED, "count": COUNT, "degree_bound": DEGREE_BOUND,
         "length_bound": LENGTH, "digests": digests(documents())},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
