"""Exact commutative polynomial arithmetic over a finite variable window,
and the truncated Groebner basis of a letterplace ideal.

Monomials are ints: bit v is set when variable v occurs.  Every monomial
the letterplace bases keep is squarefree with at most one variable per
place, so the mask is the whole monomial; polynomials are dicts mapping
masks to nonzero field elements.  The order is degree-reverse-
lexicographic where a SMALLER variable index means a GREATER variable,
matching the place-major letterplace precedence.  On masks the degree is
m.bit_count(), d divides m when m & d == d (quotient m ^ d), the lcm of
a and b is a | b, they are coprime when not a & b, and a product of
monomials on disjoint places is a | b.

RingGB is the reduced Groebner basis, truncated at `cap` places, of a
letterplace ideal over an alphabet of L = n_letters letters (variable v
sits at place v // L, in the place's block of L bits), given by its
relations at place 0.  A place collision, two bits in one block, is
zero.  Each generator must be a sum of collisions, which is dropped, or
place-multihomogeneous and anchored: every term covers places 0 .. k -
1, one variable at each (ValueError otherwise).  Then every element is
place-multihomogeneous: a cofactor covers places of the other lead that
its own element does not cover, and a reduction step keeps the places
of the term it rewrites (Implicit shifts).  An element is bare when its
term list is its lead alone; two bare elements form no pair, since
their S-polynomial is exactly zero.

The pair rule is one place count.  A letterplace monomial covers an
interval of places, one bit at each; the lcm l = a | b of two that share
a place covers the union, an interval, with two bits where a and b hold
different letters.  So l holds no collision exactly when l.bit_count()
is the number of places the union covers.  Otherwise both leads hold
one letter at such a place, and the S-polynomial consists of collisions
only; every divisor of a collision-free lcm is collision-free, so the
pair criteria lose nothing by the rule.  _queue_pairs counts an
anchored lead of k places and a lead of n places moved c < k places on:
l.bit_count() == max(k, c + n), and then the two share the letter at
place c.  overlaps counts a module lead and a moved lead, and the module
bases (syzygy.py) two leads of one component.

_find, the reducer lookup, does not test for collisions, as no monomial
it is asked about holds one: the generators are validated, S-polynomials
and normal forms of letterplace elements are letterplace (here and in
the syzygy docstring), and the products the resolver's _nf_sum and
_check_syzygies reduce and the module bases' products join monomials on
disjoint places.  The public normal forms, normal_form
(mono_normal_form through it) and ModuleGB.normal_form, drop each term
that holds a collision, as zero, before they reduce.

Shift invariance.  Let sigma move every variable one place on (v to
v + L, the mask shifted L bits up).  The letterplace ideal over W places
is generated by every window shift of the relations and by the
collisions, which are zero at every place, so it is invariant under
sigma wherever the result fits in the window.  Place-major degrevlex
commutes with sigma (every index moves by L, so every comparison keeps
its outcome), so sigma maps leads to leads and reductions to reductions.
Every element covers one interval of places: a relation does, a pair
is formed only when the two leads share a place (coprime leads need
none), and a reduction step keeps the places of the term it rewrites.
Call an element anchored when
it covers place 0.  An S-polynomial with an anchored member is then
anchored, and so is its normal form.  A pair (sigma^a f, sigma^b g) with
a <= b is sigma^a of the anchored pair (f, sigma^(b-a) g), and a
reduction of the latter to zero shifts into one of the former, since
each reducer covers places inside the pair's lcm, which fits.  So RingGB
forms only the anchored pairs whose leads overlap and whose lcm holds no
collision, and reduces by every window shift of the anchored elements
found so far; when the queue is empty, those shifts form a Groebner
basis of the window.  The reduced basis is every window shift of the
anchored elements whose lead no shift of another lead divides, each with
its tail replaced by the tail's normal form (unique modulo a Groebner
basis, so the reduced tail).  RingGB stores exactly those anchored
elements, once each, in ascending lead order, and never a shifted copy.
Its work does not grow with the window: on the reference presentation
it forms 16 pairs and makes 33 reductions at W = 10, 22 and 50, where
Buchberger over every shift (kept as the test oracle, tests/helpers.py)
takes 85, 241 and 605 pairs and 220, 580 and 1,420 reductions.

Widening.  The generators wait in the pair heap, each an entry of its
degree (places) ahead of that degree's pairs, and RingGB takes the
entries of at most `cap` places in ascending degree.  So a new element
of degree k is reduced by every shift of the stored leads, each of
degree at most k: the only stored lead a shift of its lead could divide
is an equal one, which would have reduced it, so no element is ever
redundant.  Widening from w to w' places (_grow) queues the anchored
pairs whose moved lead ends past place w, the only ones the w-place
window lacked, takes the entries of at most w' places and reduces the
tails again: it stores the basis built at w', the unique reduced one.

Implicit shifts.  The anchored elements sit in buckets by the first
letter of their lead, keyed by its bit, the lead's place-0 block.
_find(m) walks the places p of a collision-free m in ascending order,
and at each tries the leads whose first letter is the one m holds
there, in ascending lead order: m shifted down p places contains the
lead exactly when the lead moved to p divides m.  The materialized
basis, scanning its buckets by the smallest variable of each lead in
ascending lead order, finds the same reducer, because a shift keeps the
order.  The moved lead covers places p .. p + k - 1, so the product of
a tail term and the cofactor is (m ^ lead << p) | tail_term << p: the
tail term covers the lead's places, which the cofactor does not.  _find
returns those products.  A finished ring that a step reads (a
restriction) memoizes _find per monomial, in a dict of its own.
A module basis asks the ring for its pairs with a module lead m
(overlaps), under references that sort like the moved leads, and for the
moved element of a reference (element).  m is letterplace on places
f .. d - 1 of its floor f (syzygy docstring); an anchored lead of n
places moved to p < f would put a variable below the floor, and one
moved to p >= d is coprime to m.  So overlaps walks the bits of m that
hold a letter starting some lead (t starts none), tries that letter's
bucket and keeps the lcms l that pass the count, popcount(l) ==
max(d, p + n) - f; the pair's shifted degree max(d, p + n) fits when
p + n <= cap.

Restriction.  One basis also serves every narrower window and the
alphabet extended by a relation-free last letter t, with no Buchberger
run (RingGB.restrict).  The letterplace ideal is graded by places (a
variable at place p has degree e_p), and its part supported on places
below w is the ideal of the w-place window; every element of a reduced
basis is graded, so the elements whose lead ends below place w form that
window's reduced basis: the window shifts of the anchored elements of at
most w places.  Over L + 1 letters variable v becomes (v // L)(L + 1) +
v % L (each block of L bits widened by one), which keeps the order, so
leads and tails stay as they are; t occurs in no relation, and its
collisions x_a(p)t(p) are zero like any other, so the basis only
renumbers.  So a restriction is a view: the new cap and the anchored
elements that fit, renumbered once for the extended alphabet.  It equals
the basis built from the window's generators element for element.

One reduction loop.  The ring's and the module's (syzygy.py) normal
forms are reduce_terms: a work dict of coefficients keyed by int keys
that ascend from the greatest term, beside a heap of those keys.  It
pushes a key whenever it enters the dict, pops the least, skips it if
its term has been cancelled since, and otherwise subtracts the keyed
products its reducer lookup returns.  Each of them lies below the term
it rewrites (the order is multiplicative, a tail lies below its lead),
so the heap pops in the order a scan of the dict for the greatest would
take.  A ring key is the mask itself.  A ring polynomial is
place-multihomogeneous, so its terms share one degree, and within one
degree the highest variable where two squarefree monomials differ
decides: the one holding it is the smaller monomial and the larger int.
So sorted(p.items()) lists p's terms greatest first.  An inhomogeneous
input reduces correctly all the same: a reduction step keeps the degree
of the term it rewrites, so it pushes only keys above the one it pops.
mono_key, higher key = greater monomial, orders masks of any degrees.
Normal forms are linear, so each RingGB memoizes the normal form of each
monomial it is asked for (mono_normal_form) in a dict of its own that a
restriction starts empty: no step or resolution sees another's entries.
Its values are shared, so no caller may mutate them.
The pair heaps break ties between lcms of one degree by variables(lcm),
the ascending tuple of their variables, compared lexicographically.  A
finished RingGB is the whole context of the module bases over it
(syzygy.py): field, window (cap) and reducers.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

Mono = int  # bit v set when variable v occurs
Poly = Dict[Mono, object]


def mono_key(m: Mono) -> Tuple[int, int]:
    """Sort key realizing degrevlex on squarefree monomials: higher key =
    greater monomial (module docstring)."""
    return (m.bit_count(), -m)


def reduce_terms(field, work: dict, find) -> dict:
    """Full normal form of `work`, int key -> coefficient, which it
    consumes (module docstring): find(k) is the (key, coefficient)
    products to subtract, times k's coefficient, or None when k's term is
    standard."""
    sub, mul, zero = field.sub, field.mul, field.zero
    push, pop = heapq.heappush, heapq.heappop
    heap = list(work)
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        k = pop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        adds = find(k)
        if adds is None:
            out[k] = c
            continue
        for u, uc in adds:  # below k: never in out
            old = work.get(u)
            if old is None:
                work[u] = sub(zero, mul(c, uc))
                push(heap, u)
            else:
                s = sub(old, mul(c, uc))
                if s == zero:
                    del work[u]
                else:
                    work[u] = s
    return out


def difference(field, plus, minus) -> dict:
    """plus - minus, each an iterable of (term, coefficient) pairs with
    distinct terms: the core of an S-polynomial."""
    sub, zero = field.sub, field.zero
    out = dict(plus)
    for t, c in minus:
        s = sub(out.get(t, zero), c)
        if s == zero:
            out.pop(t, None)
        else:
            out[t] = s
    return out


def monic(field, terms: list) -> list:
    """A descending term list scaled to lead coefficient one."""
    lc = terms[0][1]
    if lc == field.one:
        return terms
    inv, mul = field.inv(lc), field.mul
    return [(t, mul(inv, c)) for t, c in terms]


def variables(m: Mono) -> Tuple[int, ...]:
    """The variables of m, ascending: a key that sorts like the
    (variable, exponent) tuple of a squarefree monomial."""
    bits, out = bin(m)[:1:-1], []  # bit 0 first: linear in the width
    v = bits.find("1")
    while v >= 0:
        out.append(v)
        v = bits.find("1", v + 1)
    return tuple(out)


def _place_bits(m: Mono, n_letters: int) -> int:
    """The bit width of the places up to m's last: every monomial on
    those places is below 1 << it."""
    return -(-m.bit_length() // n_letters) * n_letters


def _starts(m: Mono, n_letters: int) -> int:
    """The first bit of each place's block, up to m's last place."""
    return ((1 << _place_bits(m, n_letters)) - 1) // ((1 << n_letters) - 1)


def _covered(m: Mono, n_letters: int, starts: int) -> int:
    """The places m covers, each as its block's top bit, for starts
    marking each block's first bit up to m's last place or further:
    adding ones below each top bit carries into it when m holds one."""
    high = starts << n_letters - 1
    low = high - starts
    return ((m & low) + low | m) & high


def place_collision(m: Mono, n_letters: int) -> bool:
    """m holds x_a(p)x_b(p), two variables in one place's block of
    n_letters bits: it has more bits than places (masks as wide as m)."""
    covered = _covered(m, n_letters, _starts(m, n_letters))
    return m.bit_count() != covered.bit_count()


class RingGB:
    """Truncated reduced Groebner basis of a letterplace ideal over `cap`
    places and n_letters letters, built from its generators at place 0
    and stored as its anchored elements (module docstring).  Elements are
    (lead, descending monic term list), in ascending lead order."""

    def __init__(self, field, gens: Sequence[Poly], cap: int,
                 n_letters: int):
        self._empty(field, n_letters)
        # a sum of collisions is zero: drop it
        gens = [g for g in gens
                if g and not all(place_collision(m, n_letters) for m in g)]
        for i, g in enumerate(gens):
            # every term covers the same k places, one variable at each
            starts = _starts(max(g), n_letters)
            places = {_covered(m, n_letters, starts) for m in g}
            k = max(places).bit_count()
            if len(places) > 1 or any(m.bit_count() != k for m in g):
                raise ValueError("letterplace generator is not "
                                 "place-multihomogeneous")
            if max(g) >> (k * n_letters):
                raise ValueError("letterplace generator does not cover "
                                 "places 0 .. k - 1 of the window")
            # g waits ahead of the pairs of degree k for k places
            heapq.heappush(self._pairs, (k, (), i, g))
        self._grow(cap)

    def _empty(self, field, n_letters: int) -> None:
        self.field = field
        self.n_letters = n_letters
        self._block = (1 << n_letters) - 1
        self.cap = 0
        self._pairs: list = []
        self._mono_nf: Dict[Mono, Poly] = {}  # mono_normal_form's memo
        self.elements: List[tuple] = []  # (lead, terms)
        # reducers by the bit of their lead's first letter, or'ed into
        # _firsts, each (lead, tail, index); the unit sets _unit instead
        self.buckets: Dict[int, list] = {}
        self._unit = False
        self._firsts = 0

    def _grow(self, cap: int) -> None:
        """Widen the basis to `cap` places (module docstring)."""
        lo, self.cap = self.cap, cap
        for t in range(len(self.elements)):
            self._queue_pairs(t, lo)
        while self._pairs and self._pairs[0][0] <= cap:
            entry = heapq.heappop(self._pairs)
            if entry[1]:  # a pair, (degree, variables(l), l, a, s, c)
                l, a, s, c = entry[2:]
                self._insert(self._spoly(l, self.elements[a],
                                         self._moved(s, c)))
            else:  # a generator
                self._insert(entry[3])
        kept = [(lead, [terms[0]] + sorted(
                    self._reduce_full(dict(terms[1:])).items()))
                for lead, terms in sorted(
                    self.elements, key=lambda e: mono_key(e[0]))]
        self.elements, self.buckets, self._firsts = [], {}, 0
        for lead, terms in kept:
            self._install(lead, terms)

    def restrict(self, width: int, n_letters: int) -> "RingGB":
        """The basis of the same relations over the first `width` places,
        over this basis's alphabet of L letters (n_letters == L) or over
        it plus a relation-free last letter t (n_letters == L + 1): a view
        of the anchored elements that fit, memoizing its own lookups.  A
        narrower basis widens first, a view never (module docstring)."""
        L = self.n_letters
        if n_letters not in (L, L + 1) or width < 0 or \
                width > self.cap and isinstance(self, _RingView):
            raise ValueError(f"cannot restrict a basis over {L} letters "
                             f"and {self.cap} places to {n_letters} "
                             f"letters and {width} places")
        if width > self.cap:
            self._grow(width)
        block = self._block

        def renumber(m):
            out, p = 0, 0
            while m:
                out |= (m & block) << (p * n_letters)
                m >>= L
                p += 1
            return out
        out = _RingView.__new__(_RingView)
        out._empty(self.field, n_letters)
        out.cap, out._found = width, {}
        for lead, terms in self.elements:
            if lead.bit_count() <= width:
                if n_letters > L:
                    lead = renumber(lead)
                    terms = [(renumber(m), c) for m, c in terms]
                out._install(lead, terms)
        return out

    # -- construction ---------------------------------------------------

    def _reduce_full(self, p: Poly) -> Poly:
        """Full normal form of p: reduce_terms keyed by the masks
        themselves (module docstring)."""
        return reduce_terms(self.field, dict(p), self._find)

    def _find(self, m: Mono):
        """The terms of tail times cofactor of the reducer of m, a
        moved anchored element (module docstring), or None when m is
        standard; () when the ideal is the unit.  m holds no place
        collision: no caller asks about one (module docstring)."""
        buckets, L, block = self.buckets, self.n_letters, self._block
        w, p = m, 0
        while w:
            lst = buckets.get(w & block)
            if lst is not None:
                for lead, tail, _ in lst:
                    if w & lead == lead:
                        rest = m ^ (lead << p)
                        return [(rest | tm << p, tc) for tm, tc in tail]
            w >>= L
            p += L
        return () if self._unit else None

    def _insert(self, p: Poly) -> None:
        """Reduce p (anchored) by every window shift of the elements so
        far; if it survives, store it and queue its pairs."""
        p = self._reduce_full(p)
        if p:
            terms = monic(self.field, sorted(p.items()))
            self._install(terms[0][0], terms)
            self._queue_pairs(len(self.elements) - 1)

    def _install(self, lead: Mono, terms) -> None:
        if lead:
            first = lead & self._block
            self.buckets.setdefault(first, []).append(
                (lead, terms[1:], len(self.elements)))
            self._firsts |= first
        else:
            self._unit = True
        self.elements.append((lead, terms))

    def _moved(self, k: int, c: int) -> tuple:
        """Element k moved c places on, as (lead, terms)."""
        lead, terms = self.elements[k]
        if not c:
            return lead, terms
        s = c * self.n_letters
        return lead << s, [(m << s, x) for m, x in terms]

    def _queue_pairs(self, t: int, lo: int = 0) -> None:
        """Queue each pair of element t with an element moved c places
        on, sigma^c(b), whose lcm passes the place count (module
        docstring): (t, sigma^c(b)) for b < t from c = 0, and
        (t, sigma^c(t)), (b, sigma^c(t)) from c = 1, while the moved lead
        starts inside the first and fits in the window, and ends past
        place `lo` (a window of lo places took the others).  Every other
        pair is a shift of one of these."""
        elements, L, cap = self.elements, self.n_letters, self.cap
        bare = len(elements[t][1]) == 1
        for b in range(t + 1):
            if bare and len(elements[b][1]) == 1:
                continue  # two bare elements: the S-polynomial is zero
            for a, s in ((t, b), (b, t)) if b < t else ((t, t),):
                lead_a, lead_s = elements[a][0], elements[s][0]
                k, n = lead_a.bit_count(), lead_s.bit_count()
                for c in range(max(int(s == t), lo + 1 - n),
                               min(k, cap + 1 - n)):
                    l, d = lead_a | lead_s << (c * L), max(k, c + n)
                    if l.bit_count() == d:
                        heapq.heappush(self._pairs,
                                       (d, variables(l), l, a, s, c))

    def _spoly(self, l: Mono, elem_i: tuple, elem_j: tuple) -> Poly:
        """S-polynomial of two monic elements (lead, terms) with lcm l."""
        (lead_i, terms_i), (lead_j, terms_j) = elem_i, elem_j
        qi, qj = l ^ lead_i, l ^ lead_j
        return difference(self.field, ((tm | qi, tc) for tm, tc in terms_i),
                          ((tm | qj, tc) for tm, tc in terms_j))

    # -- queries ---------------------------------------------------------

    def normal_form(self, p: Poly) -> Poly:
        """Full normal form of p; a term holding a collision is zero."""
        L = self.n_letters
        starts = _starts(max(p, default=0), L)
        return self._reduce_full({
            m: c for m, c in p.items()
            if m.bit_count() == _covered(m, L, starts).bit_count()})

    def mono_normal_form(self, m: Mono) -> Poly:
        """Normal form of the monomial m, memoized for the life of this
        basis.  The value is shared: callers must not mutate it."""
        nf = self._mono_nf.get(m)
        if nf is None:
            nf = self._mono_nf[m] = self.normal_form(
                {m: self.field.from_int(1)})
        return nf

    def overlaps(self, m: Mono, floor: int) -> List[tuple]:
        """(ref, lcm, bare) of every window shift of an element whose
        lead pairs with the letterplace module lead m from place `floor`
        on (module docstring); refs sort like the moved leads, and
        element(ref) is the moved element."""
        L, cap, buckets = self.n_letters, self.cap, self.buckets
        d = floor + m.bit_count()
        out = []
        # m's letters that start a lead, each at its place
        w = m & self._firsts * _starts(m, L)
        while w:
            low = w & -w
            w ^= low
            p = (low.bit_length() - 1) // L
            for lead, tail, k in buckets[low >> (p * L)]:
                n = lead.bit_count()
                moved = lead << (p * L)
                l = m | moved
                if p + n <= cap and l.bit_count() == max(d, p + n) - floor:
                    out.append(((mono_key(moved), k, p), l, not tail))
        return out

    def element(self, ref: tuple) -> tuple:
        return self._moved(ref[1], ref[2])


class _RingView(RingGB):
    """A finished restriction (RingGB.restrict): _find is memoized per
    monomial in a dict of the view's own, so a step looks each monomial
    up once and no other view sees its entries.  The products are shared:
    callers must not mutate them."""

    def _find(self, m: Mono):
        found = self._found
        hit = found.get(m, found)
        if hit is found:
            hit = found[m] = RingGB._find(self, m)
        return hit
