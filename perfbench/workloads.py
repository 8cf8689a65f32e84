"""Inputs and output checks for the three benchmark workloads.

nilpotent-q / nilpotent-fp resolve the reference presentation (the
enveloping algebra of the free class-2 nilpotent Lie algebra on three
letters, eight cubic relations) at degree bound 10, length 7, trusting
termination, through the same parse -> resolve -> render path as
`ncres resolve --format json`.  monomial-corpus resolves a seeded stream
of random monomial instances and compares each table with the
combinatorial oracle, as `ncres resolve --oracle-compare` does.

Everything here imports ncres lazily, inside the functions, so that the
benchmark process can time the import as part of set-up.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

NILPOTENT = {"nilpotent-q": "Q", "nilpotent-fp": {"Fp": 32003}}
NILPOTENT_DEGREE_BOUND = 10
NILPOTENT_LENGTH = 7

# The pinned reference resolution: regularity 3, global dimension 6.
REFERENCE_TABLE = {(0, 0): 1, (1, 0): 3, (2, 1): 8, (3, 1): 6,
                   (3, 2): 6, (4, 2): 8, (5, 3): 3, (6, 3): 1}
REFERENCE_REGULARITY = 3
REFERENCE_GLOBAL_DIMENSION = 6

WORKLOADS = ("nilpotent-q", "nilpotent-fp", "monomial-corpus")

CORPUS_LENGTH = 4
CORPUS_SIZE = 50
DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def nilpotent_document(workload: str) -> str:
    """The input document of a nilpotent workload, as the CLI reads it."""
    doc = json.loads((DATA / "flagship.json").read_text(encoding="utf-8"))
    doc["field"] = NILPOTENT[workload]
    return json.dumps(doc)


def golden_path(workload: str) -> Path:
    return DATA / f"golden-{workload}.json"


def random_monomial_instance(rng: random.Random):
    """One draw of the cross-validation generator: 1-3 letters, 0-4 word
    relations of degree 2-4, rank 1-2, shifts 0-2, 1-3 generator words
    of length 1-3 outside the ideal.  Returns (n_letters, relation
    words, shifts, generators); generators may come out empty."""
    from ncres.monores import in_ideal, monomial_ideal

    n = rng.randint(1, 3)
    rels = [tuple(rng.randrange(n) for _ in range(rng.randint(2, 4)))
            for _ in range(rng.randint(0, 4))]
    ideal = monomial_ideal(rels)
    r = rng.randint(1, 2)
    shifts = tuple(rng.randint(0, 2) for _ in range(r))
    gens = []
    for _ in range(rng.randint(1, 3)):
        for _ in range(20):
            w = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
            if not in_ideal(ideal, w):
                gens.append((rng.randrange(r), w))
                break
    return n, ideal.basis, shifts, gens


def monomial_corpus(seed: int, count: int):
    """The first `count` instances with at least one generator drawn from
    random.Random(seed); the same seed always gives the same corpus."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = random_monomial_instance(rng)
        if inst[3]:
            out.append(inst)
    return out


def corpus_request(inst):
    """(resolution request, oracle ideal, oracle module) for an instance,
    at the certifying degree bound `monomial_degree_bound` gives."""
    from ncres.field import rationals
    from ncres.freealg import AlgebraPresentation, ModulePresentation
    from ncres.monores import MonomialModule, monomial_ideal
    from ncres.resolver import ResolutionRequest, monomial_degree_bound

    QQ = rationals()
    n, basis, shifts, gens = inst
    ideal = monomial_ideal(basis)
    top = max(shifts[c] + len(w) for c, w in gens)
    D = monomial_degree_bound(top, max(ideal.max_degree, 2), CORPUS_LENGTH)
    alg = AlgebraPresentation(QQ, tuple("abc"[:n]),
                              [{v: QQ.one} for v in basis])
    mod = ModulePresentation(alg, shifts, [{g: QQ.one} for g in gens])
    req = ResolutionRequest(mod, degree_bound=D, length_bound=CORPUS_LENGTH)
    return req, ideal, MonomialModule(shifts, list(gens))


def check_nilpotent(res, rendered: str, golden: str) -> list:
    """Problems with a nilpotent run: the table, the summary and the
    rendered document against the golden bytes."""
    from ncres.resolver import betti_summary

    problems = []
    if res.status != "certified":
        problems.append(f"status {res.status}")
    if res.table.entries != REFERENCE_TABLE:
        problems.append("Betti table differs from the reference")
    summary = betti_summary(res.table)
    if summary["regularity"] != REFERENCE_REGULARITY:
        problems.append(f"regularity {summary['regularity']}")
    if summary["global_dimension"] != REFERENCE_GLOBAL_DIMENSION:
        problems.append(f"global dimension {summary['global_dimension']}")
    if rendered != golden:
        problems.append("rendered JSON differs from the golden file")
    return problems


def check_corpus_instance(res, oracle_table) -> list:
    """Problems with one corpus instance: the full table against the
    oracle, and the status it owes: `certified` when the oracle's
    resolution ends inside the length bound (the degree bound certifies
    every window), else truncated at the top window."""
    problems = []
    expected = ("certified" if not oracle_table.truncated
                else f"truncated({max(res.windows)})")
    if res.status != expected:
        problems.append(f"status {res.status}, expected {expected}")
    if res.table.entries != oracle_table.entries:
        problems.append("Betti table differs from the monomial oracle")
    return problems
