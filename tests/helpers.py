"""Shared builders for the test suite."""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, List, Optional, Tuple

from ncres import letterplace
from ncres.engine import mono_key as mask_key, variables
from ncres.field import rationals
from ncres.freealg import (AlgebraPresentation, ModulePresentation,
                           validate_presentation)
from ncres.linalg import _eliminate, rref
from ncres.resolver import _nf_sum


def nilpotent_enveloping() -> AlgebraPresentation:
    """Enveloping algebra of the free class-2 nilpotent Lie algebra on
    x, y, z: all double brackets [[a,b],c] vanish, giving 8 independent
    cubic relations."""
    QQ = rationals()
    one = QQ.one
    two = QQ.from_int(2)
    m1 = QQ.neg(one)
    m2 = QQ.neg(two)
    x, y, z = 0, 1, 2
    rels = [
        {(z, z, y): one, (z, y, z): m2, (y, z, z): one},
        {(z, y, y): one, (y, z, y): m2, (y, y, z): one},
        {(z, z, x): one, (z, x, z): m2, (x, z, z): one},
        {(y, z, x): one, (z, x, y): m1, (x, z, y): one, (y, x, z): m1},
        {(z, y, x): one, (z, x, y): m1, (y, x, z): m1, (x, y, z): one},
        {(y, y, x): one, (y, x, y): m2, (x, y, y): one},
        {(z, x, x): one, (x, z, x): m2, (x, x, z): one},
        {(y, x, x): one, (x, y, x): m2, (x, x, y): one},
    ]
    return AlgebraPresentation(QQ, ("x", "y", "z"), rels)


def augmentation_module(alg: AlgebraPresentation) -> ModulePresentation:
    """The right ideal generated by all letters, as a rank-1 module."""
    one = alg.field.one
    gens = [{(0, (i,)): one} for i in range(alg.n_letters)]
    return ModulePresentation(alg, (0,), gens)


def random_presentation(rng: random.Random, max_letters=3, max_rel_deg=4,
                        max_rels=4) -> AlgebraPresentation:
    """A random homogeneous presentation over Q with small content."""
    QQ = rationals()
    n = rng.randint(1, max_letters)
    names = tuple("abcdefg"[:n])
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        d = rng.randint(2, max_rel_deg)
        poly = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randrange(n) for _ in range(d))
            c = QQ.from_int(rng.choice([-2, -1, 1, 2, 3]))
            poly[w] = QQ.add(poly.get(w, QQ.zero), c)
        poly = {w: c for w, c in poly.items() if c != QQ.zero}
        if poly:
            rels.append(poly)
    return AlgebraPresentation(QQ, names, rels)


def random_module(rng: random.Random, alg: AlgebraPresentation,
                  max_rank=3, max_gen_deg=3) -> ModulePresentation:
    QQ = alg.field
    n = alg.n_letters
    r = rng.randint(1, max_rank)
    shifts = tuple(rng.randint(0, 2) for _ in range(r))
    gens = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(max(shifts), max(max(shifts), max_gen_deg))
        elem = {}
        for _ in range(rng.randint(1, 3)):
            comp = rng.randrange(r)
            wlen = d - shifts[comp]
            w = tuple(rng.randrange(n) for _ in range(wlen))
            c = QQ.from_int(rng.choice([-2, -1, 1, 2]))
            key = (comp, w)
            elem[key] = QQ.add(elem.get(key, QQ.zero), c)
        elem = {k: c for k, c in elem.items() if c != QQ.zero}
        if elem:
            gens.append(elem)
    if not gens:
        gens = [{(0, tuple(0 for _ in range(max(1, shifts[0])))): QQ.one}]
    return ModulePresentation(alg, shifts, gens)


def nonmonomial_modules(seed, count):
    """The first `count` valid random modules from random.Random(seed)
    whose algebra has a relation with at least two terms."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        alg = random_presentation(rng, max_rel_deg=3)
        mod = random_module(rng, alg)
        if validate_presentation(mod):
            continue
        if any(len(r) > 1 for r in alg.relations):
            out.append(mod)
    return out


# --- the evaluation kernel: the stair subspace computed without syzygies --

def row_key(key: tuple) -> tuple:
    """Column order of a stair row's term (component j, mask): component,
    then the mask's variables ascending.  The reference that the int keys
    of letterplace.ColumnKeys must sort like."""
    return key[0], variables(key[1])


def stair_frame(enc, degree):
    """Coordinate frame for degree-`degree` syzygies whose coefficients
    are plain words: pairs (component j, encoded normal word of length
    degree - deg_j over the original letters, starting after the
    generator's places), in ascending row_key order."""
    frame = []
    for j, dj in enumerate(enc.gen_degrees):
        k = degree - dj
        if k < 0 or degree > enc.win.width:
            continue
        for u in itertools.product(range(enc.n_base), repeat=k):
            mono = letterplace.iota_word(enc.win, u, dj)
            if enc.ring._find(mono) is None:
                frame.append((j, mono))
    return frame


def frame_kernel(field, images):
    """RREF basis of {w : sum_s w_s * images[s] = 0} in frame positions,
    rows in ascending pivot order: each image row is augmented with a unit
    tag and eliminated with image columns first, so the rows whose pivot
    is a tag span the kernel."""
    rows = []
    for pos, img in enumerate(images):
        row = {(0, key): c for key, c in img.items()}
        row[(1, pos)] = field.one
        rows.append(row)
    echelon = _eliminate(rows, field)
    kernel = [{key[1]: c for key, c in row.items()}
              for piv, row in echelon.items() if piv[0] == 1]
    return rref(kernel, field)[0]


def ev_image(enc, j, mono):
    """Image of the column e_j * mono under evaluation against the
    encoded generators, in normal-form coordinates: each component's
    coefficient reduced modulo the ring (resolver._nf_sum), keyed
    (component, monomial) through column keys as wide as the window.  A
    product whose factors share a variable squares it, so it is zero."""
    cols = letterplace.ColumnKeys(enc.win.width, enc.win.n_letters)
    return cols.decode(_nf_sum(enc.ring, ((comp, gm | mono, c)
                                          for (comp, gm), c
                                          in enc.gens_lp[j].items()
                                          if not gm & mono), cols))


def evaluated_stair_rows(enc, degree):
    """The RREF basis of the degree-`degree` stair subspace, keyed
    (component, monomial), read off the kernel of evaluation on the
    whole stair frame."""
    frame = stair_frame(enc, degree)
    rows = frame_kernel(enc.ring.field,
                        [ev_image(enc, j, mono) for j, mono in frame])
    return [{frame[pos]: c for pos, c in row.items()} for row in rows]


# --- tuple monomials: the reference the bit-mask kernel is checked against --
#
# A tuple monomial is a tuple of (variable, exponent) pairs sorted by
# variable; a mask monomial (src/ncres) is the int with bit v set for each
# variable v.  The converters below map the squarefree tuples to masks and
# back; everything else here works on tuples only.

def to_mask(m) -> int:
    """The mask of a squarefree tuple monomial."""
    out = 0
    for v, e in m:
        if e != 1:
            raise ValueError(f"x{v}^{e} has no mask")
        out |= 1 << v
    return out


def to_tuple(m: int):
    """The tuple monomial of a mask."""
    out = []
    while m:
        low = m & -m
        out.append((low.bit_length() - 1, 1))
        m ^= low
    return tuple(out)


def poly_to_masks(p):
    return {to_mask(m): c for m, c in p.items()}


def poly_to_tuples(p):
    return {to_tuple(m): c for m, c in p.items()}


def elem_to_tuples(elem):
    return {(comp, to_tuple(m)): c for (comp, m), c in elem.items()}


def elements_as_tuples(elements):
    """(lead, terms) elements of a mask ring as tuples."""
    return [(to_tuple(lead), [(to_tuple(m), c) for m, c in terms])
            for lead, terms in elements]


def mono_deg(m: tuple) -> int:
    return sum(e for _, e in m)


def flat_key(m: tuple) -> Tuple[int, int]:
    """Flat sort key of degrevlex, ascending from the greatest monomial:
    (-degree, packed), packed = the sum of e << (v * w) over the (v, e)
    of m, w = degree.bit_length().  Each exponent is at most the degree,
    below 2^w, so the highest field where two packed values differ is the
    largest variable whose exponents differ: within one degree a larger
    packed is a smaller monomial."""
    d = mono_deg(m)
    w = d.bit_length()
    return (-d, sum(e << (v * w) for v, e in m))


def mono_key(m: tuple) -> Tuple[int, int]:
    """Sort key realizing degrevlex: higher key = greater monomial."""
    d, packed = flat_key(m)
    return (-d, -packed)


def mono_mul(a: tuple, b: tuple) -> tuple:
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


def mono_div(m: tuple, d: tuple) -> Optional[tuple]:
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


def mono_lcm(a: tuple, b: tuple) -> tuple:
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


def mono_coprime(a: tuple, b: tuple) -> bool:
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


def shift_mono(m: tuple, k: int) -> tuple:
    """m with every variable index raised by k."""
    return tuple((v + k, e) for v, e in m)


def place_collision(m: tuple, n_letters: int) -> bool:
    """m holds x_a(p)x_b(p) or x_a(p)^2 in a letterplace window of
    n_letters letters, where variable v sits at place v // n_letters."""
    places = [v // n_letters for v, _ in m]
    return any(e > 1 for _, e in m) or len(set(places)) != len(places)


def letterplace_lcm(l: tuple, n_letters: int, floor: int = 0) -> bool:
    """A told basis forms a pair with lcm l: no place collision, no
    variable below place `floor`."""
    return not (l and l[0][0] < floor * n_letters or
                place_collision(l, n_letters))


def place_multihomogeneous(p, n_letters: int) -> bool:
    places = {tuple(v // n_letters for v, _ in m) for m in p}
    return not any(place_collision(m, n_letters) for m in p) and \
        len(places) <= 1


def mono_mask(m) -> int:
    """Bit mask of the variables of m modulo 64: necessary for
    divisibility, even where variable indices alias."""
    mask = 0
    for v, _ in m:
        mask |= 1 << (v & 63)
    return mask


def letterplace_ideal_gens(win, alg):
    """The untold letterplace ideal as tuple polynomials: every window
    shift of the encoded relations (letterplace.letterplace_ideal_gens),
    then the one-letter-per-place monomials x_a(p)x_b(p) and x_a(p)^2."""
    gens = [poly_to_tuples(g)
            for g in letterplace.letterplace_ideal_gens(win, alg)]
    L, one = win.n_letters, alg.field.from_int(1)
    for place0 in range(win.width):
        base = place0 * L
        for i in range(L):
            for j in range(i, L):
                mono = ((base + i, 2),) if i == j else \
                    ((base + i, 1), (base + j, 1))
                gens.append({mono: one})
    return gens


def iota_poly(win, p, shift=0):
    """letterplace.iota_poly with tuple monomials."""
    return poly_to_tuples(letterplace.iota_poly(win, p, shift))


# --- the Buchberger oracle ---------------------------------------------------

def rank(rows, field, col_key=None) -> int:
    """Rank of a list of sparse rows (linalg docstring)."""
    return len(_eliminate(rows, field, col_key))


class BuchbergerRing:
    """Plain Buchberger over every generator given, on tuple monomials of
    any exponent: the oracle the letterplace RingGB is checked against.
    Its normal forms take terms greatest first off a heap of flat keys,
    like RingGB's, and its _find, leads_meeting and element answer in
    tuples what RingGB's answer in masks.

    cap, when given, drops every S-pair whose lcm degree exceeds it, which
    for homogeneous input yields a truncated basis complete through the
    cap degree.  n_letters, when given, tells the alphabet size of a
    letterplace window: every generator must then be a sum of collisions,
    which is dropped, or place-multihomogeneous, place collisions are
    zero, and no pair whose lcm holds one is formed (engine docstring).
    An untold ring stores the L(L+1)/2 collision monomials of each place;
    the told basis is the untold one without them.

    Of the Gebauer-Moeller criteria it keeps M, F and B, not the chain
    criterion, and two bare elements form no pair.  A new element forms
    one candidate pair with each earlier one, a bare new element only
    with the earlier elements that have a tail (_tailed), so a monomial
    costs O(#polynomials), not O(#elements).  Candidates whose lcm degree
    exceeds the cap, or in a told ring holds a collision, are dropped
    first: such an lcm could only dominate lcms that are dropped too, so
    the criteria give the same survivors without them.  Taken by degree,
    then index, a candidate survives unless an earlier survivor's lcm
    divides its own: of lower degree that is the M criterion, an equal
    lcm the F criterion.  Only the lower-degree survivors are scanned for
    a divisor; the current degree's survivor lcms sit in a dict, since one
    of equal degree divides only by being equal.  A mask test (mono_mask)
    gates every mono_div.  A survivor whose leads are not coprime (B)
    goes onto a heap ordered by lcm degree, and every popped pair is
    processed.  Interreduction reduces each tail once, in ascending lead
    order, and leaves the elements in that order, each installed in the
    bucket of the smallest variable of its lead."""

    def __init__(self, field, gens, cap=None, n_letters=None):
        self.field = field
        self.cap = cap
        self.n_letters = n_letters
        self.elements: List[tuple] = []  # (lead, terms)
        self.buckets: Dict[int, list] = {}
        self._tailed: List[int] = []  # indices of elements with a tail
        self._pairs: list = []
        if n_letters is not None:  # a sum of collisions is zero: drop it
            gens = [g for g in gens
                    if not all(place_collision(m, n_letters) for m in g)]
            if not all(place_multihomogeneous(g, n_letters)
                       for g in gens if g):
                raise ValueError("letterplace generator is not "
                                 "place-multihomogeneous")
        for g in gens:
            if g:
                self._insert(g)
        while self._pairs:
            _, l, i, j = heapq.heappop(self._pairs)
            self._insert(self._spoly(l, self.elements[i], self.elements[j]))
        self._interreduce()

    def _reduce_full(self, p):
        field = self.field
        work = dict(p)
        heap = [(flat_key(m), m) for m in work]
        heapq.heapify(heap)
        out = {}
        while heap:
            m = heapq.heappop(heap)[1]
            c = work.pop(m, None)
            if c is None:
                continue
            products = self._find(m)
            if products is None:
                out[m] = c
                continue
            for key, tc in products:
                if key not in work:
                    heapq.heappush(heap, (flat_key(key), key))
                s = field.sub(work.get(key, field.zero), field.mul(c, tc))
                if s == field.zero:
                    work.pop(key, None)
                else:
                    work[key] = s
        return out

    def normal_form(self, p):
        return self._reduce_full(p)

    def _find(self, m):
        """Products of the first reducer in bucket order: mono_mul(tail
        term, q) for the cofactor q; () when m holds a collision in a told
        ring or the ideal is the unit."""
        L = self.n_letters
        if L is not None and place_collision(m, L):
            return ()
        mmask = mono_mask(m)
        for v, _ in m:
            for lead, mask, tail in self.buckets.get(v, ()):
                if mask & mmask == mask:
                    q = mono_div(m, lead)
                    if q is not None:
                        return [(mono_mul(tm, q), c) for tm, c in tail]
        return () if -1 in self.buckets else None

    @staticmethod
    def _sorted_items(p):
        return sorted(p.items(), key=lambda t: flat_key(t[0]))

    def _monic_terms(self, p):
        items = self._sorted_items(p)
        lead, lc = items[0]
        inv = self.field.inv(lc)
        return lead, [(m, self.field.mul(inv, c)) for m, c in items]

    def _spoly(self, l, elem_i, elem_j):
        field = self.field
        (lead_i, terms_i), (lead_j, terms_j) = elem_i, elem_j
        qi, qj = mono_div(l, lead_i), mono_div(l, lead_j)
        spoly = {mono_mul(tm, qi): tc for tm, tc in terms_i}
        for tm, tc in terms_j:
            key = mono_mul(tm, qj)
            s = field.sub(spoly.get(key, field.zero), tc)
            if s == field.zero:
                spoly.pop(key, None)
            else:
                spoly[key] = s
        return spoly

    def _insert(self, p) -> None:
        p = self._reduce_full(p)
        if not p:
            return
        lead, terms = self._monic_terms(p)
        self._update_pairs(len(self.elements), lead, len(terms) == 1)
        self._install(lead, terms)

    def _install(self, lead, terms) -> None:
        if len(terms) > 1:
            self._tailed.append(len(self.elements))
        self.elements.append((lead, terms))
        self.buckets.setdefault(lead[0][0] if lead else -1, []).append(
            (lead, mono_mask(lead), terms[1:]))

    def _update_pairs(self, t, lead_t, bare) -> None:
        """Queue the S-pairs of new element t that the M, F and B criteria
        keep (class docstring)."""
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

    def _interreduce(self) -> None:
        """Shrink to the unique (truncated) reduced basis: under a
        degree-compatible order only elements with smaller leads act on a
        tail, so one pass in ascending lead order, each element installed
        after its tail is reduced, is final."""
        elements = self.elements
        minimal = []
        for k in sorted(range(len(elements)),
                        key=lambda k: flat_key(elements[k][0]),
                        reverse=True):
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

    def leads_meeting(self, m):
        return [(k, lead, len(terms) == 1)
                for k, (lead, terms) in enumerate(self.elements)
                if not mono_coprime(lead, m)]

    def element(self, k):
        return self.elements[k]

    def polys(self):
        return [dict(terms) for _, terms in self.elements]


def normal_form(field, f, basis):
    """Greedy reduction of f by a list of nonzero tuple polynomials:
    unique when basis is a Groebner basis, otherwise some normal form with
    the divisibility and membership postconditions."""
    gb = BuchbergerRing(field, ())
    for p in basis:
        if p:
            gb._install(*gb._monic_terms(p))
    return gb.normal_form(f)


def leads_meeting(ring, m):
    """(ref, lead, bare) of every window shift of an element of a
    letterplace RingGB whose lead shares a variable with the mask m, refs
    as RingGB.overlaps makes them: the reference that overlaps, one
    bucket lookup per place, is checked against (with the pair rule
    letterplace_lcm and the window on top)."""
    if not m:
        return []
    L, cap = ring.n_letters, ring.cap
    lo, hi = ((m & -m).bit_length() - 1) // L, (m.bit_length() - 1) // L
    out = []
    for k, (lead, terms) in enumerate(ring.elements):
        n = lead.bit_count()
        for p in range(max(lo - n + 1, 0), min(hi, cap - n) + 1):
            moved = lead << (p * L)
            if m & moved:
                out.append(((mask_key(moved), k, p), moved,
                            len(terms) == 1))
    return out


def window_shifts(ring):
    """Every window shift of a letterplace RingGB's stored (anchored)
    elements, as tuple (lead, terms) in ascending lead order: the basis a
    Buchberger ring over the same window stores."""
    L = ring.n_letters
    out = [(shift_mono(lead, c * L), [(shift_mono(m, c * L), x)
                                      for m, x in terms])
           for lead, terms in elements_as_tuples(ring.elements)
           for c in range(ring.cap - len(lead) + 1 if lead else 1)]
    return sorted(out, key=lambda e: mono_key(e[0]))


class TupleModuleGB:
    """The collecting module basis of ncres.syzygy.ModuleGB on tuple
    monomials over a BuchbergerRing, told or untold: the reference for
    syzygies over a ring that keeps its collision monomials, which the
    bit-mask module basis cannot represent.  Same term order, pair rule
    and reductions as ModuleGB (syzygy docstring), with the ghost parts
    of reductions to zero collected in `syzygies`."""

    def __init__(self, ring, main_shifts):
        self.field = ring.field
        self.shifts = list(main_shifts)
        self.ring = ring
        self.cap = ring.cap
        self.elements = []  # (lead term, descending terms)
        self.pairs = []
        self.syzygies = []

    def _term_key(self, term):
        comp, m = term
        neg_d, packed = flat_key(m)
        if comp < len(self.shifts):
            return (neg_d - self.shifts[comp], neg_d, packed, comp)
        return (float("inf"), neg_d, packed, comp)

    def _find_module(self, comp, m):
        for (c, lead), terms in self.elements:
            if c == comp:
                q = mono_div(m, lead)
                if q is not None:
                    return q, terms[1:]
        return None

    def normal_form(self, elem):
        field = self.field
        work = dict(elem)
        heap = [(self._term_key(t), t) for t in work]
        heapq.heapify(heap)
        out = {}
        while heap:
            term = heapq.heappop(heap)[1]
            c = work.pop(term, None)
            if c is None:
                continue
            comp, m = term
            hit = self._find_module(comp, m)
            if hit is not None:
                q, tail = hit
                adds = [((tc, mono_mul(tm, q)), x) for (tc, tm), x in tail]
            else:
                products = self.ring._find(m)
                if products is None:
                    out[term] = c
                    continue
                adds = [((comp, pm), x) for pm, x in products]
            for key, x in adds:
                if key not in work:
                    heapq.heappush(heap, (self._term_key(key), key))
                s = field.sub(work.get(key, field.zero), field.mul(c, x))
                if s == field.zero:
                    work.pop(key, None)
                else:
                    work[key] = s
        return out

    def add_generator(self, elem):
        terms = sorted(elem.items(), key=lambda t: self._term_key(t[0]))
        lead, lc = terms[0]
        inv = self.field.inv(lc)
        terms = [(t, self.field.mul(inv, c)) for t, c in terms]
        self.elements.append((lead, terms))
        t = len(self.elements) - 1
        bare = len(terms) == 1
        comp, m = lead
        shift, L = self.shifts[comp], self.ring.n_letters
        lcms = [(0, i, mono_lcm(lead_i[1], m))
                for i, (lead_i, terms_i) in enumerate(self.elements[:t])
                if lead_i[0] == comp and not (bare and len(terms_i) == 1)]
        lcms += [(1, ref, mono_lcm(rlead, m))
                 for ref, rlead, rbare in self.ring.leads_meeting(m)
                 if not (bare and rbare)]
        for kind, i, l in lcms:
            deg = mono_deg(l) + shift
            if deg <= self.cap and (L is None or
                                    letterplace_lcm(l, L, shift)):
                heapq.heappush(self.pairs, (deg, kind, l, comp, i, t))

    def complete_to(self, d):
        field, r = self.field, len(self.shifts)
        while self.pairs and self.pairs[0][0] <= d:
            _, kind, l, comp, i, t = heapq.heappop(self.pairs)
            lead_p, terms_p = self.elements[i if kind == 0 else t]
            if kind == 0:
                lead_n, terms_n = self.elements[t]
                qn = mono_div(l, lead_n[1])
            else:
                rlead, rterms = self.ring.element(i)
                qn = mono_div(l, rlead)
                terms_n = [((comp, tm), x) for tm, x in rterms]
            qp = mono_div(l, lead_p[1])
            spoly = {(tc, mono_mul(tm, qp)): x for (tc, tm), x in terms_p}
            for (tc, tm), x in terms_n:
                key = (tc, mono_mul(tm, qn))
                s = field.sub(spoly.get(key, field.zero), x)
                if s == field.zero:
                    spoly.pop(key, None)
                else:
                    spoly[key] = s
            nf = self.normal_form(spoly)
            if nf and next(iter(nf))[0] < r:
                self.add_generator(nf)
            elif nf:
                self.syzygies.append(
                    {(j - r, m): c for (j, m), c in nf.items()})


def tuple_syzygies(ring, gens, main_shifts):
    """Raw syzygies of tuple module elements over a BuchbergerRing, as
    ncres.syzygy.syzygies_over_quotient collects them."""
    gb = TupleModuleGB(ring, main_shifts)
    one = ring.field.from_int(1)
    for j, g in enumerate(gens):
        gb.add_generator({**g, (len(main_shifts) + j, ()): one})
    gb.complete_to(ring.cap)
    return gb.syzygies
