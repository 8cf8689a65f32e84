"""Module Groebner bases, syzygies over free and quotient rings, and
graded minimalization.

A module basis takes its whole context from one finished truncated
letterplace RingGB: the field, the window (ring.cap bounds shifted
degrees), the alphabet and the reducers.

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
more rule holds (La Scala & Levandovskyy, J. Symb. Comp. 44 (2009)): no
pair is formed whose lcm holds a place collision x_a(p)x_b(p), or a
variable below place shifts[c] of its component c.  It is the engine's
place count: the leads of component c cover places from shifts[c] on,
one letter each (below), so two pass when their lcm has max(|lead_i|,
|lead_t|) bits, that is when one divides the other.  The collecting
basis and minimalize_graded have zero shifts; the shifted basis of
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

Masks and keys.  Every term is letterplace, so a cofactor, which covers
the places of an lcm past its lead's, shares no place with any term of
its element: each product is an or of masks, no reduction leaves the
places of the term it rewrites, and every term of an S-polynomial and of
its normal form lies on the places of the pair's lcm, whatever the
window, so none holds a collision, as ring._find requires; normal_form
drops the input terms that hold one, as zero.  A term (c, m) has the int
key ((X << B) + m << 32) + c (ModuleGB._term_key), ascending from the
greatest term: X = -s(cap + 1) - deg(m)(cap + 2) orders shifted degree,
then degree, for the shift s of c (for a ghost, one shift below every
main term's), and B is the bit width of the lcm's places.  Keys are
additive: m | q = m + q for a cofactor q, so the term times q has key k
+ ((-|q|(cap + 2) << B) + q << 32), and a ring product pm, on m's
places, has key k + (pm - m << 32).  So an element stores its terms as
(X, (m << 32) + c, coefficient), and an S-polynomial and each product
cost a few int operations per term; only a generator and the input of
normal_form are keyed term by term.  The pair heap breaks ties by
engine.variables of the lcm, as the ring's does.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .engine import (Mono, RingGB, _place_bits, difference, monic,
                     place_collision, reduce_terms, variables)
from .letterplace import WindowTooSmall

Term = Tuple[int, Mono]
ModElem = Dict[Term, object]


def elem_sdeg(shifts: Sequence[int], elem: ModElem) -> int:
    degs = {m.bit_count() + shifts[comp] for comp, m in elem}
    if len(degs) != 1:
        raise ValueError("module element is not homogeneous")
    return degs.pop()


def _times(terms: list, q: Mono, S: int, step: int) -> list:
    """Stored terms (X, (m << 32) + c, coefficient) times the cofactor q,
    keyed under S = B + 32 bits, step = (cap + 2) << S: additive keys
    (module docstring)."""
    dq = (q << 32) - q.bit_count() * step
    return [((x << S) + mc + dq, c) for x, mc, c in terms]


class ModuleGB:
    """Incremental truncated module Groebner basis over a quotient ring.

    ring is a completed truncated letterplace basis whose elements act on
    every component.  Field, window (ring.cap) and alphabet come from
    ring, and so do its reducers (ring._find) and its pairs with a
    module lead (ring.overlaps, ring.element).  The main block ends at
    len(main_shifts); components past it are ghosts, reduced by the ring
    only, and syzygies collects the ghost parts found (module docstring).
    A term of main component c is read from place main_shifts[c] on, and
    the basis is complete modulo the terms below that place.
    """

    def __init__(self, ring: RingGB, main_shifts: Sequence[int]):
        self.field = ring.field
        self.shifts = list(main_shifts)
        self.ring = ring
        self.cap = ring.cap
        self.elements: List[tuple] = []  # (lead, [(X, (m << 32) + c, x)])
        # main comp -> {lowest bit of the lead, 0 for the unit:
        # [(lead monomial, tail)]}, and the or of those bits
        self.buckets: Dict[int, Dict[int, list]] = {}
        self._lows: Dict[int, int] = {}
        self.pairs: list = []
        self.syzygies: List[ModElem] = []
        # a ghost's shift: below every main term, as a degree is <= cap
        self._ghost = min(self.shifts, default=0) - self.cap - 1

    def _term_key(self, term: Term, B: Optional[int] = None) -> int:
        """An int ascending from the greatest term: shifted degree, ring
        order, lower component first (below 2^32 components).  A ghost
        term sorts below every main term and is otherwise ordered like
        one (module docstring).  Keys compare when their monomials lie
        below 1 << B, the window's bit width by default."""
        comp, m = term
        s = self.shifts[comp] if comp < len(self.shifts) else self._ghost
        x = -s * (self.cap + 1) - m.bit_count() * (self.cap + 2)
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
        w = m & self._lows[comp]
        while w:
            low = w & -w
            for lead, tail in by_bit[low]:
                if m & lead == lead:
                    return m ^ lead, tail
            w ^= low
        return None

    # -- reduction ----------------------------------------------------------

    def _nf(self, work: dict, B: int) -> dict:
        """Full normal form of work, keyed under bit width B, which it
        consumes; its keys ascend, main terms first.  It is
        engine.reduce_terms on additive keys (module docstring): a module
        reducer, tried first, or a ring reducer adds only lower terms, on
        the places of the term it rewrites, so below 1 << B when the
        input is: B of a pair's lcm bounds its S-polynomial."""
        find_module, ring_find = self._find_module, self.ring._find
        S, low = B + 32, (1 << B) - 1
        step = (self.cap + 2) << S  # one more place, the X it costs

        def find(k):
            m = k >> 32 & low
            hit = find_module(k & 0xFFFFFFFF, m)
            if hit is not None:
                return _times(hit[1], hit[0], S, step)
            products = ring_find(m)
            if products is None:
                return None
            base = k - (m << 32)  # same degree, same component
            return [(base + (pm << 32), c) for pm, c in products]
        return reduce_terms(self.field, work, find)

    @staticmethod
    def _terms(keyed: dict, B: int, first: int = 0) -> ModElem:
        """The terms of keys under bit width B, components from first."""
        return {((k & 0xFFFFFFFF) - first, k >> 32 & (1 << B) - 1): c
                for k, c in keyed.items()}

    def normal_form(self, elem: ModElem) -> ModElem:
        """Full normal form of elem; a term holding a collision is zero."""
        L = self.ring.n_letters
        elem = {t: c for t, c in elem.items() if not place_collision(t[1], L)}
        B = _place_bits(max((m for _, m in elem), default=0), L)
        return self._terms(self._nf(
            {self._term_key(t, B): c for t, c in elem.items()}, B), B)

    # -- basis growth --------------------------------------------------------

    def _push_pairs(self, t: int) -> None:
        lead_t, terms_t = self.elements[t]
        bare = len(terms_t) == 1  # ghost terms count: see module docstring
        comp, m = lead_t
        shift, ring, pairs = self.shifts[comp], self.ring, self.pairs
        for i, (lead_i, terms_i) in enumerate(self.elements[:t]):
            if lead_i[0] == comp and not (bare and len(terms_i) == 1):
                l = lead_i[1] | m
                k = l.bit_count()  # the place count (module docstring)
                if k + shift <= self.cap and \
                        k == max(lead_i[1].bit_count(), m.bit_count()):
                    heapq.heappush(pairs, (k + shift, 0, variables(l), l,
                                           comp, i, t))
        # the ring leads that share a variable with m (product criterion)
        # and pass the pair rule, bar a bare pair (module docstring)
        for ref, l, rbare in ring.overlaps(m, shift):
            if not (bare and rbare):
                heapq.heappush(pairs, (l.bit_count() + shift, 1,
                                       variables(l), l, comp, ref, t))

    def _install(self, keyed: dict, B: int) -> None:
        """Add the element of keys under bit width B, made monic; its
        least key is a main term's."""
        S, below = B + 32, (1 << B + 32) - 1
        terms = [(k >> S, k & below, c) for k, c in
                 monic(self.field, sorted(keyed.items()))]
        comp, m = terms[0][1] & 0xFFFFFFFF, terms[0][1] >> 32
        self.elements.append(((comp, m), terms))
        self.buckets.setdefault(comp, {}).setdefault(m & -m, []).append(
            (m, terms[1:]))
        self._lows[comp] = self._lows.get(comp, 0) | m & -m
        self._push_pairs(len(self.elements) - 1)

    def add_generator(self, elem: ModElem) -> None:
        """Insert elem, unreduced.  Ghost terms (components from
        len(main_shifts) on) never lead, so elem needs a main term, and
        its shifted degree must lie within the window.  elem must be
        letterplace (module docstring), as every caller's is: an encoded
        generator or a normal form of one."""
        B = _place_bits(max(m for _, m in elem), self.ring.n_letters)
        keyed = {self._term_key(t, B): c for t, c in elem.items()}
        lead = min(keyed)
        comp, m = lead & 0xFFFFFFFF, lead >> 32 & ((1 << B) - 1)
        if comp >= len(self.shifts):
            raise ValueError("generator has no main term")
        d = m.bit_count() + self.shifts[comp]
        if d > self.cap:
            raise WindowTooSmall(
                f"generator of degree {d} exceeds the window {self.cap}")
        self._install(keyed, B)

    def _spoly(self, kind: int, l: Mono, i: int, t: int, B: int) -> dict:
        """S-polynomial of pair (i, t), keyed under bit width B: q_i e_i -
        q_t e_t for two module elements (earlier element positive), q_t
        e_t - q_r r for a module element and a ring element."""
        S, step = B + 32, (self.cap + 2) << (B + 32)
        lead_p, terms_p = self.elements[t if kind else i]
        plus = _times(terms_p, l ^ lead_p[1], S, step)
        if kind == 0:
            lead_n, terms_n = self.elements[t]
            minus = _times(terms_n, l ^ lead_n[1], S, step)
        else:
            rlead, rterms = self.ring.element(i)
            q, base = l ^ rlead, plus[0][0] - (l << 32)  # the lead's X, comp
            minus = [(base + ((tm | q) << 32), c) for tm, c in rterms]
        return difference(self.field, plus, minus)

    def complete_to(self, d: int) -> None:
        """Process all S-pairs of shifted degree <= d."""
        r, L = len(self.shifts), self.ring.n_letters
        while self.pairs and self.pairs[0][0] <= d:
            kind, _, l, _, i, t = heapq.heappop(self.pairs)[1:]
            # the lcm covers the places of every term (module docstring)
            B = _place_bits(l, L)
            nf = self._nf(self._spoly(kind, l, i, t, B), B)
            if nf and (next(iter(nf)) & 0xFFFFFFFF) < r:  # main first
                self._install(nf, B)
            elif nf:
                self.syzygies.append(self._terms(nf, B, r))


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
