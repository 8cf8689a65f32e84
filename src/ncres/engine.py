"""Exact commutative polynomial arithmetic over a finite variable window,
and the truncated Groebner basis of a letterplace ideal.

Monomials are tuples of (variable, exponent) pairs sorted by variable
index; polynomials are dicts mapping monomials to nonzero field elements.
The order is degree-reverse-lexicographic where a SMALLER variable index
means a GREATER variable, matching the place-major letterplace precedence.

RingGB is the reduced Groebner basis, truncated at `cap` places, of a
letterplace ideal over an alphabet of L = n_letters letters (variable v
sits at place v // L), given by its relations at place 0.  A place
collision, x_a(p)x_b(p) or x_a(p)^2, is zero: _find sends every monomial
holding one to zero, so none is ever stored.  Each generator must be a
sum of collisions, which is dropped, or place-multihomogeneous and
anchored: every term covers places 0 .. k - 1, one variable to the first
power at each (ValueError otherwise).  Then every element is
place-multihomogeneous, and a pair whose lcm holds a collision at p is
never formed: each lead holds one letter at p, so the S-polynomial
consists of collisions only.  Every divisor of a collision-free lcm is
collision-free, so the pair criteria lose nothing by it.  An element is
bare when its term list is its lead alone; two bare elements form no
pair, since their S-polynomial is exactly zero.  The module bases of
syzygy.py share the pair rule (letterplace_lcm): there a pair's lcm must
also hold no variable below its component's shift, where no module term
lies.

Shift invariance.  Let sigma move every variable one place on (v to
v + L).  The letterplace ideal over W places is generated by every window
shift of the relations and by the collisions, which are zero at every
place, so it is invariant under sigma wherever the result fits in the
window.  Place-major degrevlex commutes with sigma (every index moves by
L, so every comparison keeps its outcome), so sigma maps leads to leads
and reductions to reductions.  Every element covers one interval of
places: a relation does; a pair is formed only when the two leads share
a place (coprime leads need none, a collision at a shared place is
excluded by the pair rule), so its lcm covers the union of two
overlapping intervals; and a reduction step keeps the places of the term
it rewrites.  Call an element anchored when it covers place 0.  An
S-polynomial with an anchored member is then anchored, and so is its
normal form.  A pair (sigma^a f, sigma^b g) with a <= b is sigma^a of the
anchored pair (f, sigma^(b-a) g), and a reduction of the latter to zero
shifts into one of the former, since each reducer covers places inside
the pair's lcm, which fits.  So RingGB forms only the anchored pairs
whose leads overlap and whose lcm holds no collision, and reduces by
every window shift of the anchored elements found so far; when the queue
is empty, those shifts form a Groebner basis of the window.  The reduced
basis is every window shift of the anchored elements whose lead no shift
of another lead divides, each with its tail replaced by the tail's normal
form (unique modulo a Groebner basis, so the reduced tail).  RingGB
stores exactly those anchored elements, once each, in ascending lead
order, and never a shifted copy.  Its work does not grow with the
window: on the reference presentation it forms 16 pairs and makes 33
reductions at W = 10, 22 and 50, where Buchberger over every shift (kept
as the test oracle, tests/helpers.py) takes 85, 241 and 605 pairs and
220, 580 and 1,420 reductions.

Implicit shifts.  The anchored elements sit in buckets by the first
letter of their lead, each with the full-width bit mask of its lead.
_find(m) takes the variables v of a collision-free m in ascending order
and tries, for each, the leads whose first letter is v's, moved to v's
place p, in ascending lead order: m's mask shifted down by p places
contains the lead's mask exactly when the moved lead divides m, since
both are collision-free and divisibility is containment of variables.
The materialized basis, scanning its buckets by the smallest variable of
each lead in ascending lead order, finds the same reducer, because a
shift keeps the order.  The moved lead covers places p .. p + k - 1,
where m holds one variable each, so the cofactor is m's prefix before
those places and its suffix after them, and each term of tail times
cofactor is a concatenation: prefix, tail term moved p places, suffix.
_find returns those products.  A module basis asks the ring for the
moved leads that share a variable with a module lead (leads_meeting)
under references that sort like those leads, and for the moved element
of a reference (element).

Restriction.  One basis also serves every narrower window and the
alphabet extended by a relation-free last letter t, with no Buchberger
run (RingGB.restrict).  The letterplace ideal is graded by places (a
variable at place p has degree e_p), and its part supported on places
below w is the ideal of the w-place window; every element of a reduced
basis is graded, so the elements whose lead ends below place w form that
window's reduced basis: the window shifts of the anchored elements of at
most w places.  Over L + 1 letters variable v becomes (v // L)(L + 1) +
v % L, which keeps the order, so leads and tails stay as they are; t
occurs in no relation, and its collisions x_a(p)t(p) and t(p)^2 are zero
like any other, so the basis only renumbers.  So a restriction is a
view: the new cap and the anchored elements that fit, renumbered once
for the extended alphabet.  It equals the basis built from the window's
generators element for element.

Sort keys and reduction.  flat_key gives each monomial one flat key,
(-degree, packed) with packed = sum e << (v * w) and w the bit length of
the degree, ascending from the greatest monomial (flat_key docstring);
mono_key is the same order with the reference direction, higher key =
greater monomial.  Both are pure; each RingGB memoizes flat_key in a
table of its own (RingGB.keys) that dies with the basis, so a resolution
leaves no state behind; a restricted basis starts a fresh table.  A
normal form keeps its coefficients in a work dict and, beside it, a heap
of (key, monomial), pushing an entry whenever a monomial enters the
dict; it pops the entry of the greatest monomial and skips one whose
monomial has been cancelled since.  Every term a reduction step adds
lies below the term it rewrites (the order is multiplicative and each
tail lies below its lead), so the heap pops in the order a scan of the
dict for the greatest would take: the same reductions, in the same
order, to the same output dict.  Normal forms are linear, so each RingGB
also memoizes the normal form of each monomial it is asked for
(mono_normal_form), in a plain dict of its own that a
restricted basis starts empty: a step's ring reduces each distinct
monomial once, and no step or resolution sees another's entries.  The
memo is a dict read by a method, not a KeyTable whose key function
closes over the basis: that closure would be a reference cycle, keeping
each step's ring alive until the cyclic collector ran.  Its values are
shared, so no caller may mutate them.  A finished RingGB is the whole
context of the module bases over it (syzygy.py): field, window (cap),
key table and reducers.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

Mono = Tuple[Tuple[int, int], ...]
Poly = Dict[Mono, object]

def mono_deg(m: Mono) -> int:
    d = 0
    for _, e in m:
        d += e
    return d


def flat_key(m: Mono) -> Tuple[int, int]:
    """Flat sort key of degrevlex, ascending from the greatest monomial:
    (-degree, packed), packed = the sum of e << (v * w) over the (v, e)
    of m, w = degree.bit_length().  Each exponent is at most the degree,
    below 2^w, so no field overflows into the next, and the highest field
    where two packed values differ is the largest variable whose
    exponents differ: within one degree a larger packed is a smaller
    monomial."""
    d = 0
    for _, e in m:
        d += e
    w = d.bit_length()
    packed = 0
    for v, e in m:
        packed += e << (v * w)
    return (-d, packed)


def mono_key(m: Mono) -> Tuple[int, int]:
    """Sort key realizing degrevlex: higher key = greater monomial (the
    negated flat_key)."""
    d, packed = flat_key(m)
    return (-d, -packed)


class KeyTable(dict):
    """x -> key(x), filled on first lookup: a memo whose hits cost one
    dict lookup, so its __getitem__ is a cheap sort key."""

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, x) -> tuple:
        k = self[x] = self.key(x)
        return k


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:  # every variable of a comes first
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_div(m: Mono, d: Mono) -> Optional[Mono]:
    """m / d, or None when d does not divide m."""
    out = []
    i = 0
    lm = len(m)
    for vd, ed in d:
        while i < lm and m[i][0] < vd:
            out.append(m[i])
            i += 1
        if i >= lm or m[i][0] != vd or m[i][1] < ed:
            return None
        rem = m[i][1] - ed
        if rem:
            out.append((vd, rem))
        i += 1
    out.extend(m[i:])
    return tuple(out)


def mono_lcm(a: Mono, b: Mono) -> Mono:
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea if ea >= eb else eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_coprime(a: Mono, b: Mono) -> bool:
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, vb = a[i][0], b[j][0]
        if va == vb:
            return False
        if va < vb:
            i += 1
        else:
            j += 1
    return True


def place_collision(m: Mono, n_letters: int) -> bool:
    """m holds x_a(p)x_b(p) or x_a(p)^2 in a letterplace window of
    n_letters letters, where variable v sits at place v // n_letters."""
    prev = -1
    for v, e in m:
        place = v // n_letters
        if e > 1 or place == prev:
            return True
        prev = place
    return False


def letterplace_lcm(l: Mono, n_letters: int, floor: int = 0) -> bool:
    """A told basis, of the ring or of a module over it, forms a pair with
    lcm l: l holds no place collision and no variable below place
    `floor`, the shift of the pair's component (syzygy docstring)."""
    return not (l and l[0][0] < floor * n_letters or
                place_collision(l, n_letters))


def place_multihomogeneous(p: Poly, n_letters: int) -> bool:
    """Every term of p covers the same places, with one variable, to the
    first power, at each."""
    first = None
    for m in p:
        places = [v // n_letters for v, e in m if e == 1]
        if len(places) != len(m) or len(set(places)) != len(m):
            return False
        if first is None:
            first = places
        elif places != first:
            return False
    return True


def _require_multihomogeneous(gens: Sequence[Poly], n_letters: int) -> None:
    if not all(place_multihomogeneous(g, n_letters) for g in gens):
        raise ValueError("letterplace generator is not "
                         "place-multihomogeneous")


def shift_mono(m: Mono, k: int) -> Mono:
    """m with every variable index raised by k."""
    return tuple([(v + k, e) for v, e in m])


def _bits(m: Mono) -> int:
    """Full-width bit mask of the variables of m."""
    mask = 0
    for v, _ in m:
        mask |= 1 << v
    return mask


class RingGB:
    """Truncated reduced Groebner basis of a letterplace ideal over `cap`
    places and n_letters letters, built from its generators at place 0
    and stored as its anchored elements (module docstring).  Elements are
    (lead, descending monic term list), in ascending lead order; keys is
    the basis's own memo of flat_key."""

    def __init__(self, field, gens: Sequence[Poly], cap: int,
                 n_letters: int):
        self._empty(field, cap, n_letters)
        # a sum of collisions is zero: drop it
        gens = [g for g in gens
                if g and not all(place_collision(m, n_letters) for m in g)]
        _require_multihomogeneous(gens, n_letters)
        for g in gens:
            m = next(iter(g))
            if len(m) > cap or any(v // n_letters != k
                                   for k, (v, _) in enumerate(m)):
                raise ValueError("letterplace generator does not cover "
                                 "places 0 .. k - 1 of the window")
        self._pairs: list = []
        for g in gens:
            self._insert(g)
        while self._pairs:
            _, l, a, s, c = heapq.heappop(self._pairs)
            self._insert(self._spoly(l, self.elements[a], self._moved(s, c)))
        self._interreduce()

    def _empty(self, field, cap: int, n_letters: int) -> None:
        self.field = field
        self.cap = cap
        self.n_letters = n_letters
        self.keys = KeyTable(flat_key)
        self._mono_nf: Dict[Mono, Poly] = {}  # mono_normal_form's memo
        self.elements: List[tuple] = []  # (lead, terms)
        # reducers bucketed by the first letter of their lead (-1 for the
        # unit), each (lead mask, lead length, tail)
        self.buckets: Dict[int, list] = {}

    def restrict(self, width: int, n_letters: int) -> "RingGB":
        """The basis of the same relations over the first `width` places,
        over this basis's alphabet of L letters (n_letters == L) or over
        it plus a relation-free last letter t (n_letters == L + 1): a view
        of the anchored elements that fit, with a key table of its own.
        See the module docstring."""
        L = self.n_letters
        if n_letters not in (L, L + 1) or not 0 <= width <= self.cap:
            raise ValueError(f"cannot restrict a basis over {L} letters "
                             f"and {self.cap} places to {n_letters} "
                             f"letters and {width} places")
        def renumber(m):
            return tuple(((v // L) * n_letters + v % L, e) for v, e in m)
        out = RingGB.__new__(RingGB)
        out._empty(self.field, width, n_letters)
        for lead, terms in self.elements:
            if len(lead) <= width:
                if n_letters > L:
                    lead = renumber(lead)
                    terms = [(renumber(m), c) for m, c in terms]
                out._install(lead, terms)
        return out

    # -- construction ---------------------------------------------------

    def _reduce_full(self, p: Poly) -> Poly:
        """Full normal form of p, its terms taken greatest first off a
        heap of keys (module docstring)."""
        field = self.field
        sub, mul = field.sub, field.mul
        zero = field.zero
        key_of = self.keys.__getitem__
        push, pop = heapq.heappush, heapq.heappop
        work = dict(p)
        # a lone term is popped before anything is pushed: it needs no key
        heap = [(key_of(m), m) for m in work] if len(work) > 1 else \
            [(None, m) for m in work]
        heapq.heapify(heap)
        out: Poly = {}
        while heap:
            m = pop(heap)[1]
            c = work.pop(m, None)
            if c is None:
                continue
            products = self._find(m)
            if products is None:
                out[m] = c
                continue
            for key, tc in products:
                old = work.get(key)
                if old is None:
                    work[key] = sub(zero, mul(c, tc))
                    push(heap, (key_of(key), key))
                else:
                    s = sub(old, mul(c, tc))
                    if s == zero:
                        del work[key]
                    else:
                        work[key] = s
        return out

    def _find(self, m: Mono):
        """The terms of tail times cofactor of the reducer of m, a
        moved anchored element (module docstring), or None when m is
        standard; () when m holds a collision or the ideal is the unit."""
        L = self.n_letters
        if place_collision(m, L):
            return ()
        buckets = self.buckets
        bits = _bits(m)
        for i, (v, _) in enumerate(m):
            a = v % L
            lst = buckets.get(a)
            if lst is None:
                continue
            p = v - a
            window = bits >> p
            for mask, n, tail in lst:
                if window & mask == mask:
                    head, rest = m[:i], m[i + n:]
                    return [(head + (shift_mono(tm, p) if p else tm) + rest,
                             tc) for tm, tc in tail]
        return () if -1 in buckets else None

    def _insert(self, p: Poly) -> None:
        """Reduce p (anchored) by every window shift of the elements so
        far; if it survives, store it and queue its pairs."""
        p = self._reduce_full(p)
        if p:
            self._install(*self._monic_terms(p))
            self._queue_pairs(len(self.elements) - 1)

    def _sorted_items(self, p: Poly):
        keys = self.keys
        return sorted(p.items(), key=lambda t: keys[t[0]])

    def _monic_terms(self, p: Poly):
        """Descending monic term list; returns (lead, terms)."""
        items = self._sorted_items(p)
        lead, lc = items[0]
        field = self.field
        if lc == field.one:
            return lead, items
        inv = field.inv(lc)
        mul = field.mul
        return lead, [(m, mul(inv, c)) for m, c in items]

    def _install(self, lead: Mono, terms) -> None:
        self.elements.append((lead, terms))
        self.buckets.setdefault(lead[0][0] if lead else -1, []).append(
            (_bits(lead), len(lead), terms[1:]))

    def _moved(self, k: int, c: int) -> tuple:
        """Element k moved c places on, as (lead, terms)."""
        lead, terms = self.elements[k]
        if not c:
            return lead, terms
        s = c * self.n_letters
        return shift_mono(lead, s), [(shift_mono(m, s), x) for m, x in terms]

    def _queue_pairs(self, t: int) -> None:
        """Queue each pair of new element t with an element moved c
        places on, sigma^c(b), whose leads overlap and whose lcm holds no
        collision: (t, sigma^c(b)) for b < t from c = 0, and
        (t, sigma^c(t)), (b, sigma^c(t)) from c = 1, while the moved lead
        starts inside the first and fits in the window.  Every other pair
        is a shift of one of these."""
        elements, L, cap = self.elements, self.n_letters, self.cap
        bare = len(elements[t][1]) == 1
        for b in range(t + 1):
            if bare and len(elements[b][1]) == 1:
                continue  # two bare elements: the S-polynomial is zero
            for a, s in ((t, b), (b, t)) if b < t else ((t, t),):
                lead_a, lead_s = elements[a][0], elements[s][0]
                for c in range(int(s == t),
                               min(len(lead_a), cap - len(lead_s) + 1)):
                    moved = shift_mono(lead_s, c * L)
                    if mono_coprime(lead_a, moved):
                        continue
                    l = mono_lcm(lead_a, moved)
                    if letterplace_lcm(l, L):
                        heapq.heappush(self._pairs,
                                       (mono_deg(l), l, a, s, c))

    def _spoly(self, l: Mono, elem_i: tuple, elem_j: tuple) -> Poly:
        """S-polynomial of two monic elements (lead, terms) with lcm l."""
        sub, zero = self.field.sub, self.field.zero
        (lead_i, terms_i), (lead_j, terms_j) = elem_i, elem_j
        qi = mono_div(l, lead_i)
        qj = mono_div(l, lead_j)
        spoly: Poly = {}
        for tm, tc in terms_i:
            spoly[mono_mul(tm, qi) if qi else tm] = tc
        for tm, tc in terms_j:
            key = mono_mul(tm, qj) if qj else tm
            s = sub(spoly.get(key, zero), tc)
            if s == zero:
                spoly.pop(key, None)
            else:
                spoly[key] = s
        return spoly

    def _interreduce(self) -> None:
        """Keep the elements whose lead no window shift of another lead
        divides, reduce their tails by every shift of every element (a
        Groebner basis, so the tail's normal form is the reduced basis's
        tail), and store them again in ascending lead order."""
        L, cap, elements = self.n_letters, self.cap, self.elements
        kept = []
        for k, (lead, terms) in enumerate(elements):
            if any(mono_div(lead, shift_mono(other, c * L)) is not None
                   for j, (other, _) in enumerate(elements)
                   for c in range(int(j == k),
                                  min(len(lead), cap - len(other) + 1))):
                continue
            tail = self._reduce_full(dict(terms[1:]))
            kept.append((lead, [terms[0]] + self._sorted_items(tail)))
        self.elements = []
        self.buckets = {}
        keys = self.keys
        for lead, terms in sorted(kept, key=lambda e: keys[e[0]],
                                  reverse=True):
            self._install(lead, terms)

    # -- queries ---------------------------------------------------------

    def normal_form(self, p: Poly) -> Poly:
        return self._reduce_full(p)

    def mono_normal_form(self, m: Mono) -> Poly:
        """Normal form of the monomial m, memoized for the life of this
        basis.  The value is shared: callers must not mutate it."""
        nf = self._mono_nf.get(m)
        if nf is None:
            nf = self._mono_nf[m] = self.normal_form(
                {m: self.field.from_int(1)})
        return nf

    def leads_meeting(self, m: Mono) -> List[tuple]:
        """(ref, lead, bare) of every window shift of an element whose
        lead shares a variable with m; refs sort like their leads,
        ascending, and element(ref) is the moved element."""
        if not m:
            return []
        L, cap = self.n_letters, self.cap
        bits = _bits(m)
        lo, hi = m[0][0] // L, m[-1][0] // L
        out = []
        for k, (lead, terms) in enumerate(self.elements):
            n, mask = len(lead), _bits(lead)
            for p in range(max(lo - n + 1, 0), min(hi, cap - n) + 1):
                if bits >> (p * L) & mask:
                    moved = shift_mono(lead, p * L)
                    out.append(((mono_key(moved), k, p), moved,
                                len(terms) == 1))
        return out

    def element(self, ref: tuple) -> tuple:
        return self._moved(ref[1], ref[2])
