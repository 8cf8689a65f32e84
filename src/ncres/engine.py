"""Exact commutative polynomial arithmetic over a finite variable window.

Monomials are tuples of (variable, exponent) pairs sorted by variable
index; polynomials are dicts mapping monomials to nonzero field elements.
The order is degree-reverse-lexicographic where a SMALLER variable index
means a GREATER variable, matching the place-major letterplace precedence.

The Groebner machinery of RingGB is plain Buchberger with an optional
degree cap: S-pairs whose lcm degree exceeds the cap are discarded, which
for homogeneous input yields a truncated basis that is complete through
the cap degree (the pipeline's letterplace basis is built by ShiftRingGB
instead, below).  Of the Gebauer-Moeller criteria it keeps M, F and B, not the
chain criterion: with place collisions zero it cancels few pairs on
letterplace input (none on the reference presentation), and it costs a
table of pending pairs.  An element is bare when its term list is its
lead alone.  Two bare elements never form a pair: their S-polynomial is
exactly zero.  So a monomial ideal costs no pair at all, and the quadrics
of a letterplace ideal form none among themselves.

A RingGB told the alphabet size L of its letterplace window (variable v
sits at place v // L) treats a place collision, x_a(p)x_b(p) or
x_a(p)^2, as zero: _find sends every monomial holding one to zero, so
none is ever stored.  Its generators must be sums of collisions, which
are dropped before insertion, or place-multihomogeneous: every term
covers the same places, one variable at each.  Then so is every element,
and a pair whose lcm holds a collision at p is never formed: each lead
holds one letter at p, so the S-polynomial consists of collisions only.
Every divisor of a collision-free lcm is collision-free, so the M and F
criteria lose nothing by it.  A plain RingGB (no L) stores the L(L+1)/2
collision monomials of each place; the told basis is the plain one
without them.  The module bases of syzygy.py over a told ring share this
pair rule (letterplace_lcm): there a pair's lcm must also hold no
variable below its component's shift, where no module term lies.

Such a basis also serves every narrower window and the alphabet extended
by a relation-free last letter t, with no Buchberger run
(RingGB.restrict).  The letterplace ideal is graded by places (a
variable at place p has degree e_p), and its part supported on places
below w is the ideal of the w-place window; every element of a reduced
basis is graded, so the elements whose lead ends below place w form that
window's reduced basis.  Over L + 1 letters variable v becomes
(v // L)(L + 1) + v % L, which keeps the order, so leads and tails stay
as they are; t occurs in no relation, and its collisions x_a(p)t(p) and
t(p)^2 are zero like any other, so the basis only renumbers.  Filtering
and renumbering keep the ascending lead order that _interreduce leaves,
so the result equals the basis built from the window's generators
element for element.

Shift invariance (ShiftRingGB).  Let sigma move every variable one
place on (v to v + L).  The told letterplace ideal over W places is
invariant under sigma wherever the result fits in the window: its
generators are all window shifts of the relations, and collisions are
zero at every place.  Place-major degrevlex commutes with sigma (every
index moves by L, so every comparison keeps its outcome), so sigma maps
leads to leads and reductions to reductions.  Every element covers one
interval of places: a relation does; a pair is formed only when the two
leads share a place (coprime leads are dropped by B, a collision at a
shared place by the pair rule), so its lcm covers the union of two
overlapping intervals; and a reduction step keeps the places of the term
it rewrites.  Call an element anchored when it covers place 0.  An
S-polynomial with an anchored member is then anchored, and so is its
normal form.  A pair (sigma^a f, sigma^b g) with a <= b is sigma^a of the
anchored pair (f, sigma^(b-a) g), and a reduction of the latter to zero
shifts into one of the former, since each reducer covers places inside
the pair's lcm, which fits.  So ShiftRingGB forms only the anchored
pairs whose leads overlap and whose lcm holds no collision, and installs
every window shift of each new anchored element as a reducer; when the
queue is empty, the set of all those shifts is a Groebner basis of the
window.  The reduced basis is then every window shift of the anchored
elements whose lead no other lead divides, each with its tail replaced
by the tail's normal form (unique modulo a Groebner basis, so the
reduced tail), installed in ascending lead order: the basis RingGB
computes from the same generators, element for element and bucket for
bucket.  The generators must be exactly the window shifts of those at
place 0, as letterplace_ideal_gens gives them (ValueError otherwise:
other input would name a different ideal).  The work no longer grows
with the window: on the reference presentation it forms 16 pairs and
makes 33 reductions at W = 10, 22 and 50, where Buchberger takes 85,
241 and 605 pairs and 220, 580 and 1,420 reductions.

Cost model of RingGB's pair bookkeeping.  A new element forms one
candidate pair with each earlier one, a bare new element only with the
earlier elements that have a tail (RingGB._tailed), so a monomial costs
O(#polynomials), not O(#elements).  Candidates whose lcm degree exceeds
the cap, or in a told ring holds a collision, are dropped first: such an
lcm could only dominate lcms that are dropped too, so the criteria give
the same survivors without them.  Taken by degree, then index, a
candidate survives unless an earlier survivor's lcm divides its own: of
lower degree that is the M criterion, an equal lcm the F criterion.  Only
the lower-degree survivors are scanned for a divisor; the current
degree's survivor lcms sit in a dict, since one of equal degree divides
only by being equal.  A mask test (mono_mask, necessary for divisibility
even when variable indices alias modulo 64) gates every mono_div.  A
survivor whose leads are not coprime (B) goes onto a heap ordered by lcm
degree; nothing else is kept about it, and every popped pair is
processed.  Without the chain criterion more pairs may be processed, but
whatever they add lies in the ideal, and interreduction ends at the
unique reduced truncated basis, so the result is the same.
Interreduction reduces each tail once, in ascending lead order.

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
shared, so no caller may mutate them.  A finished truncated
RingGB is the whole context of the module bases over it (syzygy.py):
field, window (cap) and key table.
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


def mono_mask(m: Mono) -> int:
    mask = 0
    for v, _ in m:
        mask |= 1 << (v & 63)
    return mask


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


class RingGB:
    """Truncated reduced Groebner basis over the polynomial ring: plain
    Buchberger with the M, F and B criteria on a heap of S-pairs, then
    interreduction.  Elements are (lead, descending monic term list);
    keys is the basis's own memo of flat_key.

    n_letters, when given, is the alphabet size of a letterplace window:
    every generator must then be a sum of collisions, which is dropped,
    or place-multihomogeneous (ValueError otherwise), and place
    collisions are zero (module docstring)."""

    def __init__(self, field, gens: Sequence[Poly], cap: Optional[int] = None,
                 n_letters: Optional[int] = None):
        self._empty(field, cap, n_letters)
        if n_letters is not None:  # a sum of collisions is zero: drop it
            gens = [g for g in gens
                    if not all(place_collision(m, n_letters) for m in g)]
        self._build([g for g in gens if g])

    def _build(self, gens: List[Poly]) -> None:
        if self.n_letters is not None:
            _require_multihomogeneous(gens, self.n_letters)
        for g in gens:
            self._insert(g)
        self._run()
        self._interreduce()

    def _empty(self, field, cap: Optional[int],
               n_letters: Optional[int]) -> None:
        self.field = field
        self.cap = cap
        self.n_letters = n_letters
        self.keys = KeyTable(flat_key)
        self._mono_nf: Dict[Mono, Poly] = {}  # mono_normal_form's memo
        self.elements: List[tuple] = []  # (lead, terms)
        self._tailed: List[int] = []  # indices of elements with a tail
        # reducers bucketed by the smallest variable of their lead (-1 for
        # the unit), each (lead, mask, tail)
        self.buckets: Dict[int, list] = {}
        self._pairs: list = []

    def restrict(self, width: int, n_letters: int) -> "RingGB":
        """The basis of the same relations over the first `width` places,
        over this basis's alphabet of L letters (n_letters == L) or over
        it plus a relation-free last letter t (n_letters == L + 1), read
        off this finished letterplace basis with no Buchberger run; the
        result has a key table of its own.  See the module docstring."""
        L = self.n_letters
        if L is None or n_letters not in (L, L + 1) or \
                not 0 <= width <= self.cap:
            raise ValueError(f"cannot restrict a basis over {L} letters "
                             f"and {self.cap} places to {n_letters} "
                             f"letters and {width} places")
        def renumber(m):
            return tuple(((v // L) * n_letters + v % L, e) for v, e in m)
        out = RingGB.__new__(RingGB)
        out._empty(self.field, width, n_letters)
        for lead, terms in self.elements:
            if not lead or lead[-1][0] < width * L:  # ends below `width`
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
            hit = self._find(m)
            if hit is None:
                out[m] = c
                continue
            q, tail = hit
            for tm, tc in tail:
                key = mono_mul(tm, q) if q else tm
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
        """(q, tail) of a reducer whose lead times q is m, or None; in a
        told ring ((), ()), the zero reducer, when m holds a collision."""
        L = self.n_letters
        if L is not None and place_collision(m, L):
            return (), ()
        mmask = mono_mask(m)
        for v, _ in m:
            lst = self.buckets.get(v)
            if lst is None:
                continue
            for lead, mask, tail in lst:
                if mask & mmask == mask:
                    q = mono_div(m, lead)
                    if q is not None:
                        return q, tail
        unit = self.buckets.get(-1)
        if unit:
            return (), unit[0][2]
        return None

    def _insert(self, p: Poly) -> None:
        p = self._reduce_full(p)
        if not p:
            return
        lead, terms = self._monic_terms(p)
        self._update_pairs(len(self.elements), lead, len(terms) == 1)
        self._install(lead, terms)

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
        if len(terms) > 1:
            self._tailed.append(len(self.elements))
        self.elements.append((lead, terms))
        key = lead[0][0] if lead else -1
        self.buckets.setdefault(key, []).append(
            (lead, mono_mask(lead), terms[1:]))

    def _update_pairs(self, t: int, lead_t: Mono, bare: bool) -> None:
        """Queue the S-pairs of new element t that the M, F and B criteria
        keep.  A bare element t pairs only with elements that have a tail;
        in a told ring no pair whose lcm holds a collision is formed."""
        elements = self.elements
        cap, L = self.cap, self.n_letters
        cand = []
        for i in (self._tailed if bare else range(t)):
            l = mono_lcm(elements[i][0], lead_t)
            deg = mono_deg(l)
            if (cap is None or deg <= cap) and \
                    (L is None or letterplace_lcm(l, L)):
                cand.append((deg, i, l, mono_mask(l)))
        cand.sort()  # by degree, then index; indices are distinct
        # Drop a candidate whose lcm an earlier survivor's lcm divides: of
        # lower degree that is the M criterion, an equal lcm the F
        # criterion (a survivor of the same degree divides only by
        # equality, so it is looked up, not scanned).  B: coprime leads
        # reduce to zero anyway; two bare elements were never candidates.
        lower: list = []  # (lcm, mask) of the survivors of lower degree
        level: dict = {}  # lcm -> mask of the survivors of degree `cur`
        cur = None
        for deg, i, l, mask in cand:
            if deg != cur:
                lower.extend(level.items())
                level = {}
                cur = deg
            if l in level or any(m & mask == m and mono_div(l, lm)
                                 is not None for lm, m in lower):
                continue
            level[l] = mask
            if not mono_coprime(elements[i][0], lead_t):
                heapq.heappush(self._pairs, (deg, l, i, t))

    def _run(self) -> None:
        while self._pairs:
            deg, l, i, j = heapq.heappop(self._pairs)
            self._insert(self._spoly(l, self.elements[i], self.elements[j]))

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
        """Shrink to the unique (truncated) reduced basis.

        Under a degree-compatible order a tail term, and everything it
        reduces to, is smaller than its own lead, so only elements with
        smaller leads ever act on it: one pass in ascending lead order,
        each element installed after its tail is reduced, is final."""
        keys = self.keys
        elements = self.elements
        minimal: List[tuple] = []
        for k in sorted(range(len(elements)),
                        key=lambda k: keys[elements[k][0]], reverse=True):
            lead, terms = elements[k]
            mask = mono_mask(lead)
            if not any(m & mask == m and mono_div(lead, d) is not None
                       for d, m, _ in minimal):
                minimal.append((lead, mask, terms))
        self.elements = []
        self._tailed = []
        self.buckets = {}
        for lead, _, terms in minimal:
            tail = self._reduce_full(dict(terms[1:]))
            self._install(lead, [terms[0]] + self._sorted_items(tail))

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

    def polys(self) -> List[Poly]:
        return [dict(terms) for _, terms in self.elements]


def shift_mono(m: Mono, k: int) -> Mono:
    """m with every variable index raised by k."""
    return tuple((v + k, e) for v, e in m)


class ShiftRingGB(RingGB):
    """The told letterplace basis over `cap` places of a generator set
    that is closed under window shifts, built from its anchored elements
    (those covering place 0) and their shifts: the same elements, tails
    and buckets as RingGB from the same generators (module docstring).
    It is entered through RingGB.__init__ and needs cap and n_letters."""

    def _build(self, gens: List[Poly]) -> None:
        if self.n_letters is None or self.cap is None:
            raise ValueError("a shift-built basis needs n_letters and cap")
        # _shifts[k][c] is anchored element k moved c places on, as
        # (lead, terms); every one of them is installed as a reducer
        self._shifts: List[List[tuple]] = []
        for g in _anchored_generators(gens, self.n_letters, self.cap):
            self._insert(g)
        self._run()
        self._interreduce()

    def _window_shifts(self, elem: tuple) -> List[tuple]:
        """elem = (lead, terms) at place 0 and at every later start that
        still fits in the window."""
        L = self.n_letters
        lead, terms = elem
        room = self.cap - 1 - lead[-1][0] // L if lead else 0
        return [elem] + [
            (shift_mono(lead, c * L), [(shift_mono(m, c * L), x)
                                       for m, x in terms])
            for c in range(1, room + 1)]

    def _insert(self, p: Poly) -> None:
        """Reduce p (anchored) by every element so far; if it survives,
        install all its window shifts and queue its pairs."""
        p = self._reduce_full(p)
        if not p:
            return
        copies = self._window_shifts(self._monic_terms(p))
        self._shifts.append(copies)
        for lead, terms in copies:
            self._install(lead, terms)
        self._queue_pairs(len(self._shifts) - 1)

    def _queue_pairs(self, t: int) -> None:
        """Queue each pair of new anchored element t with an element
        sigma^c(b) whose leads overlap and whose lcm holds no collision:
        (t, sigma^c(b)) for b < t from c = 0, and (t, sigma^c(t)),
        (b, sigma^c(t)) from c = 1.  Every other pair is a shift."""
        shifts, L = self._shifts, self.n_letters
        bare = len(shifts[t][0][1]) == 1
        for b in range(t + 1):
            if bare and len(shifts[b][0][1]) == 1:
                continue  # two bare elements: the S-polynomial is zero
            for a, s in ((t, b), (b, t)) if b < t else ((t, t),):
                lead_a = shifts[a][0][0]
                last_a = lead_a[-1][0] // L if lead_a else -1
                for c in range(int(s == t), min(last_a + 1, len(shifts[s]))):
                    lead_s = shifts[s][c][0]
                    if mono_coprime(lead_a, lead_s):
                        continue
                    l = mono_lcm(lead_a, lead_s)
                    if letterplace_lcm(l, L):
                        heapq.heappush(self._pairs,
                                       (mono_deg(l), l, a, s, c))

    def _run(self) -> None:
        shifts = self._shifts
        while self._pairs:
            _, l, a, s, c = heapq.heappop(self._pairs)
            self._insert(self._spoly(l, shifts[a][0], shifts[s][c]))

    def _interreduce(self) -> None:
        """Keep the anchored elements whose lead no other element's lead
        divides, reduce their tails by all elements (a Groebner basis, so
        the tail's normal form is the reduced basis's tail), and install
        every window shift of them in ascending lead order."""
        keys, L = self.keys, self.n_letters
        out = []
        for k, copies in enumerate(self._shifts):
            lead, terms = copies[0]
            last = lead[-1][0] // L if lead else -1
            if any(mono_div(lead, other[c][0]) is not None
                   for j, other in enumerate(self._shifts)
                   for c in range(int(j == k), min(last + 1, len(other)))):
                continue
            tail = self._sorted_items(self._reduce_full(dict(terms[1:])))
            if tail != terms[1:]:
                copies = self._window_shifts((lead, [terms[0]] + tail))
            out += copies
        del self._shifts
        self.elements = []
        self._tailed = []
        self.buckets = {}
        for lead, terms in sorted(out, key=lambda e: keys[e[0]],
                                  reverse=True):
            self._install(lead, terms)


def _anchored_generators(gens: Sequence[Poly], n_letters: int,
                         cap: int) -> List[Poly]:
    """The generators covering place 0, once the whole list is checked to
    be exactly their window shifts (ValueError otherwise).  Only those
    at place 0 are checked to be place-multihomogeneous: any other that
    passes is a shift of one of them, so one term gives its places."""
    unclosed = ValueError("letterplace generators are not the window "
                          "shifts of those at place 0")
    anchored: List[Poly] = []
    shifted = []  # (first place, generator moved back to place 0)
    room = 0  # window shifts of the anchored generators, place 0 included
    for g in gens:
        m = next(iter(g))
        first, last = (m[0][0] // n_letters, m[-1][0] // n_letters) \
            if m else (0, -1)
        if last >= cap:
            raise unclosed
        if first:
            k = first * n_letters
            shifted.append((first, {tuple((v - k, e) for v, e in m): x
                                    for m, x in g.items()}))
        else:
            anchored.append(g)
            room += cap - last if m else 1  # a constant is its own shift
    _require_multihomogeneous(anchored, n_letters)
    index: Dict[frozenset, List[int]] = {}
    for k, g in enumerate(anchored):
        index.setdefault(frozenset(g), []).append(k)
    found = {(k, 0) for k in range(len(anchored))}
    for first, g in shifted:
        hits = [k for k in index.get(frozenset(g), ()) if anchored[k] == g]
        if not hits:
            raise unclosed
        found.update((k, first) for k in hits)
    if len(found) != room:  # found holds only shifts that fit
        raise unclosed
    return anchored


def normal_form(field, f: Poly, basis: Sequence[Poly]) -> Poly:
    """Greedy reduction of f by a list of nonzero polynomials.

    Unique when basis is a Groebner basis; otherwise some normal form with
    the divisibility and membership postconditions.
    """
    gb = RingGB(field, ())
    for p in basis:
        if p:
            lead, terms = gb._monic_terms(p)
            gb._install(lead, terms)
    return gb.normal_form(f)
