#!/usr/bin/env python3
"""Print one SHA-256 over the rendered JSON of a fixed set of resolves,
so that two trees can be compared byte for byte in one line.

The default set is 472 resolves:
- the flagship (perfbench/data/flagship.json) over Q and over F_32003,
  compression on and off, degree bound none, 7 and 10, length 7;
- the first 60 `nonmonomial_modules` of each of seeds 1, 2 and 3
  (tests/helpers.py), compression on and off, degree bound 6, length 4;
- the 50-instance monomial corpora of seeds 0 and 1
  (perfbench/workloads.py), each at its certifying degree bound.

A resolve that raises contributes its exception's type and message.
--modules and --corpus shrink the two random parts for a quick run.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from helpers import nonmonomial_modules
from ncres.jsonio import parse_input, render_json, resolution_document
from ncres.resolver import ResolutionRequest, resolve
from workloads import corpus_request, monomial_corpus, nilpotent_document


def requests(modules: int, corpus: int):
    for workload in ("nilpotent-q", "nilpotent-fp"):
        mod = parse_input(nilpotent_document(workload))
        for tshift in (True, False):
            for bound in (None, 7, 10):
                yield ResolutionRequest(mod, degree_bound=bound,
                                        length_bound=7, tshift=tshift)
    for seed in (1, 2, 3):
        for mod in nonmonomial_modules(seed, modules):
            for tshift in (True, False):
                yield ResolutionRequest(mod, degree_bound=6, length_bound=4,
                                        tshift=tshift)
    for seed in (0, 1):
        for inst in monomial_corpus(seed, corpus):
            yield corpus_request(inst)[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modules", type=int, default=60,
                    help="non-monomial modules per seed (default 60)")
    ap.add_argument("--corpus", type=int, default=50,
                    help="monomial corpus instances per seed (default 50)")
    args = ap.parse_args()

    digest = hashlib.sha256()
    count = 0
    for req in requests(args.modules, args.corpus):
        try:
            out = render_json(resolution_document(resolve(req)))
        except Exception as exc:  # the failure is part of the output
            out = f"{type(exc).__name__}: {exc}\n"
        digest.update(out.encode("utf-8"))
        count += 1
    print(f"{digest.hexdigest()}  {count} resolves")


if __name__ == "__main__":
    main()
