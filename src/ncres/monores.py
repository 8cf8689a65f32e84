"""Syzygies over monomial algebras by suffix-prefix overlap enumeration.

Over an algebra presented by monomial relations, the kernel of the map
sending a basis element to a normal word w is generated, modulo the
relation ideal, by the words u with w*u = t*v for some relation word v
straddling the product boundary (so deg u < deg v).  Iterating the
per-generator kernels yields a resolution whose every level is exact by
construction: generators are read off combinatorially, with no degree
window involved.  This is the independent oracle the letterplace
pipeline is checked against on monomial inputs.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

from .freealg import Word, word_contains
from .resolver import BettiTable, monomial_degree_bound


class WInIdeal(ValueError):
    """Raised when a supposedly normal word lies in the monomial ideal."""


class MonomialIdeal(NamedTuple):
    """Two-sided monomial ideal held by an interreduced word basis."""
    basis: Tuple[Word, ...]

    @property
    def max_degree(self) -> int:
        return max((len(v) for v in self.basis), default=0)


def monomial_ideal(words: Sequence[Word]) -> MonomialIdeal:
    kept: List[Word] = []
    for w in sorted(set(words), key=lambda w: (len(w), w)):
        if not any(word_contains(w, v) for v in kept):
            kept.append(w)
    return MonomialIdeal(tuple(kept))


def in_ideal(ideal: MonomialIdeal, w: Word) -> bool:
    return any(word_contains(w, v) for v in ideal.basis)


class MonomialModule(NamedTuple):
    shifts: Tuple[int, ...]
    generators: List[Tuple[int, Word]]  # (component, normal word)


def right_colon_gens(ideal: MonomialIdeal, w: Word) -> List[Word]:
    """Words generating {f : w*f in ideal} as a right ideal.

    Every generator is either an overlap word u (some relation word ends
    with u and the rest of it is a suffix of w) or a relation word whose
    occurrences start past the boundary.  The overlap words are
    interreduced for right multiplication (a word with a kept proper
    prefix is dropped) and the ideal's basis words ride along unreduced,
    since they generate two-sidedly.  Callers working modulo the ideal
    keep the normal words only.
    """
    if in_ideal(ideal, w):
        raise WInIdeal(f"word of length {len(w)} lies in the ideal")
    found: Set[Word] = set()
    for v in ideal.basis:
        for s in range(1, min(len(w), len(v) - 1) + 1):
            if w[len(w) - s:] == v[:s]:
                u = v[s:]
                if not in_ideal(ideal, u):
                    found.add(u)
    out: List[Word] = []
    for u in sorted(found, key=lambda t: (len(t), t)):
        if not any(u[:len(p)] == p for p in out):
            out.append(u)
    return sorted(out + list(ideal.basis), key=lambda t: (len(t), t))


def annihilator_gens(ideal: MonomialIdeal, w: Word) -> List[Word]:
    """The normal words among the colon generators: a minimal generating
    set of the right annihilator of w's coset."""
    return [u for u in right_colon_gens(ideal, w) if not in_ideal(ideal, u)]


def minimal_monomial_gens(gens: Sequence[Tuple[int, Word]]
                          ) -> List[Tuple[int, Word]]:
    """Drop generators with a same-component proper prefix in the family.

    The prefix cofactor is a suffix of a normal word, hence normal, so
    prefix interreduction is exactly minimality here.  Duplicates count
    as redundant.
    """
    kept: List[Tuple[int, Word]] = []
    for comp, w in sorted(set(gens), key=lambda g: (len(g[1]), g)):
        if not any(c == comp and w[:len(p)] == p and len(p) < len(w)
                   for c, p in kept):
            kept.append((comp, w))
    return kept


def monomial_syzygy_step(ideal: MonomialIdeal,
                         degrees: Sequence[int],
                         words: Sequence[Word],
                         ) -> Tuple[List[Tuple[int, Word]], List[int]]:
    """Kernel generators for a minimal family of normal words with the
    given total degrees.  Minimality makes the kernel split into one
    annihilator per generator, so components never interact."""
    d = ideal.max_degree
    out: List[Tuple[int, Word]] = []
    degs: List[int] = []
    for j, w in enumerate(words):
        for u in annihilator_gens(ideal, w):
            if len(u) > d - 1:
                raise AssertionError("colon generator beats the degree bound")
            out.append((j, u))
            degs.append(degrees[j] + len(u))
    return out, degs


def monomial_resolution(ideal: MonomialIdeal, module: MonomialModule,
                        length_bound: int) -> BettiTable:
    """Betti table of the ambient-modulo-module quotient, levels up to
    length_bound.  Every computed level is exact; only the length is cut."""
    if length_bound < 1:
        raise ValueError("length bound must be at least 1")
    for _, w in module.generators:
        if in_ideal(ideal, w):
            raise WInIdeal("module generator lies in the ideal")

    entries: Dict[Tuple[int, int], int] = {}
    for s in module.shifts:
        entries[(0, s)] = entries.get((0, s), 0) + 1

    gens = minimal_monomial_gens(module.generators)
    degrees = [module.shifts[c] + len(w) for c, w in gens]
    words = [w for _, w in gens]
    for dg in degrees:
        entries[(1, dg - 1)] = entries.get((1, dg - 1), 0) + 1

    base = max(degrees, default=0)
    d_rel = max(ideal.max_degree, 1)
    terminated = not words
    for step in range(1, length_bound):
        if terminated:
            break
        new, degs = monomial_syzygy_step(ideal, degrees, words)
        if not new:
            terminated = True
            break
        level = step + 1
        bound = monomial_degree_bound(base, d_rel, level)
        if max(degs) > bound:
            raise AssertionError("level degree beats the global bound")
        for dg in degs:
            key = (level, dg - level)
            entries[key] = entries.get(key, 0) + 1
        words = [u for _, u in new]
        degrees = degs
    return BettiTable(entries, truncated=not terminated)
