"""Module Groebner bases, syzygies over free and quotient rings, and
graded minimalization.

A module basis takes its whole context from one finished truncated
letterplace RingGB: the field, the window (ring.cap bounds shifted
degrees), the alphabet, the reducers and the pair rule.

Module terms are (component, monomial) pairs, the monomial a bit mask
as in the ring (engine docstring).  The main components 0 .. r-1 are
ordered by shifted degree, then by the ring order, with the lower
component index winning ties.  Components from r on are ghosts:
their terms sort below every main term, so they never lead.  A ghost
term is otherwise an ordinary term: no module element leads in a ghost
component, so the ring alone reduces it.  Syzygies are collected
Schreyer-style: input generator g_j carries eps_j, the unit of ghost
component r + j, so the ghost part of every element records its
cofactors modulo the ring; when an S-polynomial's main part reduces to
zero, its ghost part, renumbered from 0, is a syzygy, already in normal
form modulo the ring.

Which S-pairs are formed.  Ring-by-ring pairs never are: the ring basis
is finished before any module element arrives.  Two bare elements, each
a lead with no other term, form no pair, module-by-module or
module-by-ring: their S-polynomial is exactly zero.  Ghost terms count
as terms, and every element of a collecting basis carries one (its main
part is its ghost part applied to the generators, modulo the ring, so an
element with no ghost term would reduce to zero).  A module element h
and a ring element r whose leads are coprime form no pair either (the
product criterion): the S-polynomial equals r*tail(h) - tail(r)*h,
which has a standard representation, and in a collecting basis the
pair's syzygy is r*ghost(h) modulo the syzygies of other pairs, which is
zero over the quotient (Schreyer's argument; La Scala & Stillman,
J. Symb. Comp. 26 (1998); Erocal, Motsak, Schreyer & Steenpass, J. Symb.
Comp. 74 (2016)).  No product criterion holds between two module
elements: those pairs carry the Koszul syzygies of the generators.  One
more rule holds, the one the letterplace ring applies to its own pairs
(engine docstring): no pair is formed whose lcm holds a place collision
x_a(p)x_b(p), or a variable below place shifts[c] of its component c
(RingGB.letterplace_lcm, floor 0 in the ring; La Scala & Levandovskyy,
J. Symb. Comp. 44 (2009)).  The
collecting basis and minimalize_graded have zero shifts, so only
collisions count there; the shifted basis of
checks.check_dimension_equalities has the module's shifts.

Proof that nothing is lost.  Call a main term of shifted degree d in
component c letterplace when its monomial covers places shifts[c] ..
d - 1, one letter at each, and a ghost term eps_j*u letterplace when u
covers places deg(g_j) .. d - 1.  The encoded generators and their
ghost units are letterplace, and ring reduction keeps each term's
places.  So when a pair's lcm passes the
rule, its S-polynomial and that S-polynomial's normal form are
letterplace: by induction every element is.  When it fails, a cofactor
holds a variable x(p) at a place that the lead it multiplies already
covers, or below the floor, and every term of the S-polynomial holds a
collision, which is zero, or a variable below its own floor.  Such a
term is a multiple of a forced-block element e_k*x(p), p < deg(g_k)
(letterplace.build_C): in a shifted basis directly, in a collecting
basis as a ghost term beside a main part that is zero, so the pair's
syzygy lies in the block.  The terms below a floor span a monomial
submodule B that no element or raw syzygy meets.  So
syzygies_over_quotient returns generators of the syzygy module modulo
B, and no ghost term of a raw syzygy lies below its generator's degree
(the resolver's stair rows, built from the raw syzygies, need no block
either); a shifted basis runs Buchberger in the free module modulo B
without installing B, and spans the same module as with every pair
formed and B installed.

Masks.  Every term is letterplace, so a cofactor, which covers the
places of an lcm past its lead's, shares no place with any term of its
element: each product is an or of masks, and no reduction leaves the
places of the term it rewrites.  A normal form is engine.reduce_terms
on one int key per term (ModuleGB._term_key): ((X << B) + m << 32) plus
the component, with X ordering shifted degree, then degree, ghosts last,
and B the bit width of the places up to the input's last; the key's low
32 bits give the component back, the B bits above them the mask.  The
pair heap breaks ties by engine.variables of the lcm, as the ring's does.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .engine import (Mono, RingGB, _place_bits, difference, monic,
                     reduce_terms, variables)
from .letterplace import WindowTooSmall

Term = Tuple[int, Mono]
ModElem = Dict[Term, object]


def elem_sdeg(shifts: Sequence[int], elem: ModElem) -> int:
    degs = {m.bit_count() + shifts[comp] for comp, m in elem}
    if len(degs) != 1:
        raise ValueError("module element is not homogeneous")
    return degs.pop()


class ModuleGB:
    """Incremental truncated module Groebner basis over a quotient ring.

    ring is a completed truncated letterplace basis whose elements act on
    every component.  Field, window (ring.cap) and alphabet come from
    ring, and so do its reducers (ring._find), the ring leads a module
    lead meets (ring.leads_meeting, ring.element) and the pair rule
    (ring.letterplace_lcm).  The
    main block ends at len(main_shifts); components past it are ghosts,
    reduced by the ring only, and syzygies collects the ghost parts found
    (module docstring).  A term of main component c is read from place
    main_shifts[c] on, and the basis is complete modulo the terms below
    that place.
    """

    def __init__(self, ring: RingGB, main_shifts: Sequence[int]):
        self.field = ring.field
        self.shifts = list(main_shifts)
        self.ring = ring
        self.cap = ring.cap
        self.elements: List[tuple] = []  # (lead_term, descending terms)
        # main comp -> {lowest bit of the lead, 0 for the unit:
        # [(lead monomial, tail)]}
        self.buckets: Dict[int, Dict[int, list]] = {}
        self.pairs: list = []
        self.syzygies: List[ModElem] = []
        # X of a ghost term of degree 0: above every main term's X; a
        # degree is at most cap
        self._ghost = 1 + self.cap - min(self.shifts + [0]) * (self.cap + 1)

    def _term_key(self, term: Term, B: Optional[int] = None) -> int:
        """An int ascending from the greatest term: shifted degree, ring
        order, lower component first (below 2^32 components).  A ghost
        term sorts below every main term and is otherwise ordered like
        one (module docstring).  Keys compare when their monomials lie
        below 1 << B, the window's bit width by default."""
        comp, m = term
        d = m.bit_count()
        if comp < len(self.shifts):
            x = -(d + self.shifts[comp]) * (self.cap + 1) - d
        else:
            x = self._ghost - d
        B = self.cap * self.ring.n_letters if B is None else B
        return (((x << B) + m) << 32) + comp

    # -- reducer lookup ----------------------------------------------------

    def _find_module(self, comp: int, m: Mono):
        by_bit = self.buckets.get(comp)
        if by_bit is None:
            return None
        lst = by_bit.get(0)
        if lst:
            return m, lst[0][1]
        w = m
        while w:
            low = w & -w
            for lead, tail in by_bit.get(low, ()):
                if m & lead == lead:
                    return m ^ lead, tail
            w ^= low
        return None

    # -- reduction ----------------------------------------------------------

    def _nf(self, work: ModElem) -> ModElem:
        """Full normal form; consumes work.  The result lists its terms
        in descending order, so main terms come before ghost terms.  It is
        engine.reduce_terms keyed by _term_key (module docstring): the
        order is multiplicative and ghosts stay below mains, so a module
        reducer, tried first, or a ring reducer adds only lower terms."""
        key_of, find_module = self._term_key, self._find_module
        ring_find = self.ring._find
        # every term the normal form meets lies on the places up to the
        # input's last (module docstring)
        B = _place_bits(max((m for _, m in work), default=0),
                        self.ring.n_letters)
        low = (1 << B) - 1

        def find(term):
            comp, m = term
            hit = find_module(comp, m)
            if hit is not None:
                q, tail = hit
                return [((tc, tm | q), x) for (tc, tm), x in tail]
            products = ring_find(m)
            return None if products is None else \
                [((comp, pm), x) for pm, x in products]
        return reduce_terms(self.field, work, lambda t: key_of(t, B),
                            lambda k: (k & 0xFFFFFFFF, k >> 32 & low), find)

    def normal_form(self, elem: ModElem) -> ModElem:
        return self._nf(dict(elem))

    # -- basis growth --------------------------------------------------------

    def _push_pairs(self, t: int) -> None:
        lead_t, terms_t = self.elements[t]
        bare = len(terms_t) == 1  # ghost terms count: see module docstring
        comp, m = lead_t
        shift, ring = self.shifts[comp], self.ring
        lcms = [(0, i, lead_i[1] | m)
                for i, (lead_i, terms_i) in enumerate(self.elements[:t])
                if lead_i[0] == comp and not (bare and len(terms_i) == 1)]
        # the ring leads that share a variable with m (product criterion),
        # bar a bare pair (module docstring)
        lcms += [(1, ref, rlead | m)
                 for ref, rlead, rbare in ring.leads_meeting(m)
                 if not (bare and rbare)]
        for kind, i, l in lcms:
            deg = l.bit_count() + shift
            if deg <= self.cap and ring.letterplace_lcm(l, shift):
                heapq.heappush(self.pairs,
                               (deg, kind, variables(l), l, comp, i, t))

    def _install(self, elem: ModElem) -> None:
        """Add elem, made monic; its largest term is a main term."""
        B = _place_bits(max(m for _, m in elem), self.ring.n_letters)
        terms = monic(self.field, sorted(
            elem.items(), key=lambda t: self._term_key(t[0], B)))
        lead = terms[0][0]
        self.elements.append((lead, terms))
        comp, m = lead
        self.buckets.setdefault(comp, {}).setdefault(m & -m, []).append(
            (m, terms[1:]))
        self._push_pairs(len(self.elements) - 1)

    def add_generator(self, elem: ModElem) -> None:
        """Insert elem, unreduced.  Ghost terms (components from
        len(main_shifts) on) never lead, so elem needs a main term, and
        its shifted degree must lie within the window."""
        B = _place_bits(max(m for _, m in elem), self.ring.n_letters)
        lead = min(elem, key=lambda t: self._term_key(t, B))
        if lead[0] >= len(self.shifts):
            raise ValueError("generator has no main term")
        d = lead[1].bit_count() + self.shifts[lead[0]]
        if d > self.cap:
            raise WindowTooSmall(
                f"generator of degree {d} exceeds the window {self.cap}")
        self._install(elem)

    def _spoly(self, kind: int, l: Mono, comp: int, i: int, t: int):
        """S-polynomial of pair (i, t): q_i e_i - q_t e_t for two module
        elements (earlier element positive), q_t e_t - q_r r for a module
        element and a ring element."""
        if kind == 0:
            lead_p, terms_p = self.elements[i]
            lead_n, terms_n = self.elements[t]
            qn = l ^ lead_n[1]
            minus = (((tc, tm | qn), x) for (tc, tm), x in terms_n)
        else:
            lead_p, terms_p = self.elements[t]
            rlead, rterms = self.ring.element(i)
            qn = l ^ rlead
            minus = (((comp, tm | qn), x) for tm, x in rterms)
        qp = l ^ lead_p[1]
        return difference(self.field,
                          (((tc, tm | qp), x) for (tc, tm), x in terms_p),
                          minus)

    def complete_to(self, d: int) -> None:
        """Process all S-pairs of shifted degree <= d."""
        r = len(self.shifts)
        while self.pairs and self.pairs[0][0] <= d:
            kind, _, l, comp, i, t = heapq.heappop(self.pairs)[1:]
            nf = self._nf(self._spoly(kind, l, comp, i, t))
            if nf and next(iter(nf))[0] < r:  # main terms come first
                self._install(nf)
            elif nf:
                self.syzygies.append(
                    {(j - r, m): c for (j, m), c in nf.items()})


class SyzygyResult(NamedTuple):
    generators: List[ModElem]  # components index the INPUT generators
    degrees: List[int]


def syzygies_over_quotient(ring: RingGB, gens: Sequence[ModElem],
                           main_shifts: Sequence[int]) -> SyzygyResult:
    """Generators of the syzygy module of gens over the quotient by the
    finished ring basis, complete through shifted degree ring.cap, with
    coefficients in normal form modulo the ring."""
    gen_degs = [elem_sdeg(main_shifts, g) for g in gens]
    gb = ModuleGB(ring, main_shifts)
    one = ring.field.from_int(1)  # an int over Q, where field.one is not
    for j, g in enumerate(gens):  # g_j carries the unit of ghost eps_j
        gb.add_generator({**g, (len(main_shifts) + j, 0): one})
    gb.complete_to(ring.cap)
    return SyzygyResult(gb.syzygies,
                        [elem_sdeg(gen_degs, syz) for syz in gb.syzygies])


def minimalize_graded(ring: RingGB, gens: Sequence[ModElem],
                      main_shifts: Sequence[int]) -> List[int]:
    """Indices of a minimal generating subset of gens over the quotient by
    the finished ring basis.

    Processes candidates by ascending degree, then input order; a
    candidate is dropped iff its normal form modulo the already-kept ones
    (and the ring) vanishes.  The kept counts per degree are
    basis-independent; the representatives are whatever survived.  The
    resolver uses this only on its input generators; a syzygy step
    picks its generators by row elimination on its stair rows
    (resolver.syzygy_step).
    """
    degs = [elem_sdeg(main_shifts, g) for g in gens]
    order = sorted(range(len(gens)), key=lambda i: (degs[i], i))
    gb = ModuleGB(ring, main_shifts)
    kept: List[int] = []
    for i in order:
        gb.complete_to(degs[i])
        nf = gb.normal_form(gens[i])
        if nf:
            gb.add_generator(nf)
            kept.append(i)
    return kept
