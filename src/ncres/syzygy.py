"""Module Groebner bases, syzygies over free and quotient rings, and
graded minimalization.

Module terms are (component, monomial) pairs ordered block-first (main
components before ghost components), then by shifted degree, then by the
ring order, with the lower component index winning ties.  Syzygies are
collected Schreyer-style: every input generator g_j carries a ghost
component eps_j, an S-polynomial whose main part reduces to zero leaves
its multiplier record in the ghost block, and that record is a syzygy.

Which S-pairs are formed.  Ring-by-ring pairs never are: the ring basis
is finished before any module element arrives.  A module element h and
a ring element r whose leads are coprime form no pair either (the
product criterion): the S-polynomial equals r*tail(h) - tail(r)*h, which
has a standard representation, and in a collecting basis the pair's
syzygy is r*ghost(h) modulo the syzygies of other pairs, which is zero
over the quotient (Schreyer's argument; La Scala & Stillman, J. Symb.
Comp. 26 (1998); Erocal, Motsak, Schreyer & Steenpass, J. Symb. Comp. 74
(2016)).  Every pair of two module elements in the same component is
kept, coprime or not: no product criterion holds between two module
elements, and those pairs carry the Koszul syzygies of the generators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import (Mono, Poly, RingGB, mono_coprime, mono_deg, mono_div,
                     mono_key, mono_lcm, mono_mask, mono_mul)
from .letterplace import WindowTooSmall

Term = Tuple[int, Mono]
ModElem = Dict[Term, object]


def elem_sdeg(shifts: Sequence[int], elem: ModElem) -> int:
    degs = {mono_deg(m) + shifts[comp] for comp, m in elem}
    if len(degs) != 1:
        raise ValueError("module element is not homogeneous")
    return degs.pop()


class ModuleGB:
    """Incremental truncated module Groebner basis over a quotient ring.

    ring is a completed (truncated) RingGB whose elements act on every
    component; RingGB(field, ()) is the polynomial ring itself.
    collect_syzygies switches on ghost tracking for the generators added
    through add_generator.
    """

    def __init__(self, field, main_shifts: Sequence[int], ring: RingGB,
                 cap: int, collect_syzygies: bool = False):
        self.field = field
        self.shifts = list(main_shifts)
        self.ring = ring
        self._ring_leads = [(lead, mono_mask(lead))
                            for lead, _ in ring.elements]
        self.cap = cap
        self.collect = collect_syzygies
        self.elements: List[tuple] = []  # (lead_term, terms, ghost)
        self.buckets: Dict[Tuple[int, int], list] = {}
        self.pairs: list = []
        self.syzygies: List[ModElem] = []
        self.n_ghost = 0
        self._kc: Dict[Term, tuple] = {}

    # -- order ------------------------------------------------------------

    def _term_key(self, term: Term):
        k = self._kc.get(term)
        if k is None:
            comp, m = term
            k = (mono_deg(m) + self.shifts[comp], mono_key(m), -comp)
            self._kc[term] = k
        return k

    # -- reducer lookup ----------------------------------------------------

    def _find_module(self, comp: int, m: Mono):
        lst = self.buckets.get((comp, -1))
        if lst:
            lead, terms, ghost = lst[0]
            return m, terms, ghost
        for v, _ in m:
            lst = self.buckets.get((comp, v))
            if lst is None:
                continue
            for lead, terms, ghost in lst:
                q = mono_div(m, lead)
                if q is not None:
                    return q, terms, ghost
        return None

    # -- reduction ----------------------------------------------------------

    def _nf(self, main: ModElem, ghost: Optional[ModElem]):
        """Full normal form; consumes main, updates ghost in place."""
        field = self.field
        sub, mul = field.sub, field.mul
        zero = field.zero
        out: ModElem = {}
        key_of = self._term_key
        while main:
            term = max(main, key=key_of)
            c = main.pop(term)
            comp, m = term
            hit = self._find_module(comp, m)
            if hit is not None:
                q, terms, red_ghost = hit
                for (tc2, tm), tcoef in terms[1:]:
                    # the subtracted terms sit strictly below `term` in the
                    # module order, so they can only land in `main`
                    key = (tc2, mono_mul(tm, q) if q else tm)
                    s = sub(main.get(key, zero), mul(c, tcoef))
                    if s == zero:
                        main.pop(key, None)
                    else:
                        main[key] = s
                if ghost is not None and red_ghost:
                    for (gcomp, gm), gc in red_ghost.items():
                        key = (gcomp, mono_mul(gm, q) if q else gm)
                        s = sub(ghost.get(key, zero), mul(c, gc))
                        if s == zero:
                            ghost.pop(key, None)
                        else:
                            ghost[key] = s
                continue
            rhit = self.ring._find(m)
            if rhit is not None:
                q, rterms = rhit
                for tm, tcoef in rterms[1:]:
                    key = (comp, mono_mul(tm, q) if q else tm)
                    s = sub(main.get(key, zero), mul(c, tcoef))
                    if s == zero:
                        main.pop(key, None)
                    else:
                        main[key] = s
                continue
            out[term] = c
        return out

    def normal_form(self, elem: ModElem) -> ModElem:
        return self._nf(dict(elem), None)

    # -- basis growth --------------------------------------------------------

    def _monic(self, main: ModElem, ghost: Optional[ModElem], lead: Term):
        lc = main[lead]
        if lc == self.field.one:
            return main, ghost
        inv = self.field.inv(lc)
        mul = self.field.mul
        main = {t: mul(inv, c) for t, c in main.items()}
        if ghost is not None:
            ghost = {t: mul(inv, c) for t, c in ghost.items()}
        return main, ghost

    def _push_pairs(self, t: int) -> None:
        lead_t, _, _ = self.elements[t]
        comp, m = lead_t
        shift = self.shifts[comp]
        for i in range(t):
            lead_i, _, _ = self.elements[i]
            if lead_i[0] != comp:
                continue
            l = mono_lcm(lead_i[1], m)
            deg = mono_deg(l) + shift
            if deg <= self.cap:
                heapq.heappush(self.pairs, (deg, 0, l, comp, i, t))
        mask = mono_mask(m)
        for k, (rlead, rmask) in enumerate(self._ring_leads):
            # product criterion (module docstring); disjoint masks mean
            # coprime leads, overlapping ones need the exact test
            if not rmask & mask or mono_coprime(rlead, m):
                continue
            l = mono_lcm(rlead, m)
            deg = mono_deg(l) + shift
            if deg <= self.cap:
                heapq.heappush(self.pairs, (deg, 1, l, comp, k, t))

    def _install(self, main: ModElem, ghost: Optional[ModElem]) -> None:
        lead = max(main, key=self._term_key)
        main, ghost = self._monic(main, ghost, lead)
        terms = sorted(main.items(), key=lambda t: self._term_key(t[0]),
                       reverse=True)
        t = len(self.elements)
        self.elements.append((lead, terms, ghost))
        comp, m = lead
        bucket = (comp, m[0][0] if m else -1)
        self.buckets.setdefault(bucket, []).append((m, terms, ghost))
        self._push_pairs(t)

    def add_generator(self, elem: ModElem) -> None:
        """Insert a generator, tracking it with a fresh ghost component
        when syzygy collection is on.  Ghost components are numbered from
        the end of the main block in input order."""
        if not elem:
            raise ValueError("zero generator")
        ghost = None
        if self.collect:
            j = self.n_ghost
            self.n_ghost += 1
            ghost = {(j, ()): self.field.one}
        self._install(dict(elem), ghost)

    def _dispatch(self, main: ModElem, ghost: Optional[ModElem]) -> None:
        main = self._nf(main, ghost)
        if main:
            self._install(main, ghost)
        elif ghost:
            self.syzygies.append(ghost)

    def _spoly(self, kind: int, l: Mono, comp: int, i: int, t: int):
        """S-polynomial of pair (i, t).  Module-by-module pairs are taken
        as q_i e_i - q_t e_t (earlier element positive); module-by-ring
        pairs as q_t e_t - q_r r."""
        field = self.field
        sub, mul = field.sub, field.mul
        zero = field.zero
        lead_t, terms_t, ghost_t = self.elements[t]
        qt = mono_div(l, lead_t[1])
        tsign = field.neg(field.one) if kind == 0 else field.one
        main: ModElem = {}
        for (tc2, tm), tcoef in terms_t:
            main[(tc2, mono_mul(tm, qt) if qt else tm)] = mul(tsign, tcoef)
        ghost: Optional[ModElem] = None
        if self.collect:
            ghost = {}
            if ghost_t:
                for (gc2, gm), gcoef in ghost_t.items():
                    ghost[(gc2, mono_mul(gm, qt) if qt else gm)] = \
                        mul(tsign, gcoef)
        if kind == 0:
            lead_i, terms_i, ghost_i = self.elements[i]
            qi = mono_div(l, lead_i[1])
            for (tc2, tm), tcoef in terms_i:
                key = (tc2, mono_mul(tm, qi) if qi else tm)
                s = field.add(main.get(key, zero), tcoef)
                if s == zero:
                    main.pop(key, None)
                else:
                    main[key] = s
            if ghost is not None and ghost_i:
                for (gc2, gm), gcoef in ghost_i.items():
                    key = (gc2, mono_mul(gm, qi) if qi else gm)
                    s = field.add(ghost.get(key, zero), gcoef)
                    if s == zero:
                        ghost.pop(key, None)
                    else:
                        ghost[key] = s
        else:
            rlead, rterms = self.ring.elements[i]
            qr = mono_div(l, rlead)
            for tm, tcoef in rterms:
                key = (comp, mono_mul(tm, qr) if qr else tm)
                s = sub(main.get(key, zero), tcoef)
                if s == zero:
                    main.pop(key, None)
                else:
                    main[key] = s
        return main, ghost

    def complete_to(self, d: int) -> None:
        """Process all S-pairs of shifted degree <= d."""
        while self.pairs and self.pairs[0][0] <= d:
            deg, kind, l, comp, i, t = heapq.heappop(self.pairs)
            main, ghost = self._spoly(kind, l, comp, i, t)
            self._dispatch(main, ghost)


@dataclass
class SyzygyResult:
    generators: List[ModElem]  # components index the INPUT generators
    degrees: List[int]


def reduce_components(ring: RingGB, elem: ModElem) -> ModElem:
    """elem with each component's coefficient in normal form modulo ring;
    components are kept in first-appearance order."""
    by_comp: Dict[int, Poly] = {}
    for (j, m), c in elem.items():
        by_comp.setdefault(j, {})[m] = c
    return {(j, m): c for j, poly in by_comp.items()
            for m, c in ring.normal_form(poly).items()}


def syzygies_over_quotient(field, gens: Sequence[ModElem],
                           main_shifts: Sequence[int], ring: RingGB,
                           cap: int) -> SyzygyResult:
    """Generators of the syzygy module of gens over the quotient by the
    finished ring basis, complete through shifted degree cap.
    Coefficients are returned in normal form modulo the ring; syzygies
    reducing entirely to zero are dropped."""
    gen_degs = [elem_sdeg(main_shifts, g) for g in gens]
    for d in gen_degs:
        if d > cap:
            raise WindowTooSmall(
                f"generator of degree {d} exceeds the window {cap}")
    gb = ModuleGB(field, main_shifts, ring, cap, collect_syzygies=True)
    for g in gens:
        gb.add_generator(g)
    gb.complete_to(cap)
    kept: List[ModElem] = []
    degrees: List[int] = []
    for syz in gb.syzygies:
        syz = reduce_components(ring, syz)
        if syz:
            kept.append(syz)
            degrees.append(elem_sdeg(gen_degs, syz))
    return SyzygyResult(kept, degrees)


def minimalize_graded(field, gens: Sequence[ModElem],
                      main_shifts: Sequence[int], ring: RingGB) -> List[int]:
    """Indices of a minimal generating subset of gens over the quotient by
    the finished ring basis.

    Processes candidates by ascending degree, then input order; a
    candidate is dropped iff its normal form modulo the already-kept ones
    (and the ring) vanishes.  The kept counts per degree are
    basis-independent; the representatives are whatever survived.  The
    resolver uses this only on its input generators; each syzygy step
    does its own single degree-ordered pass (resolver.syzygy_step).
    """
    if not gens:
        return []
    degs = [elem_sdeg(main_shifts, g) for g in gens]
    order = sorted(range(len(gens)), key=lambda i: (degs[i], i))
    gb = ModuleGB(field, main_shifts, ring, max(degs))
    kept: List[int] = []
    for i in order:
        gb.complete_to(degs[i])
        nf = gb.normal_form(gens[i])
        if nf:
            gb._install(nf, None)
            kept.append(i)
    return kept
