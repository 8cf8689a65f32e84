"""Shared builders for the test suite."""

from __future__ import annotations

import heapq
import itertools
import random
from typing import List

from ncres.engine import (RingGB, _require_multihomogeneous, letterplace_lcm,
                          mono_coprime, mono_deg, mono_div, mono_key,
                          mono_lcm, mono_mul, place_collision, shift_mono)
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

def stair_frame(enc, degree):
    """Coordinate frame for degree-`degree` syzygies whose coefficients
    are plain words: pairs (component j, encoded normal word of length
    degree - deg_j over the original letters, starting after the
    generator's places), in ascending order."""
    frame = []
    L = enc.win.n_letters
    for j, dj in enumerate(enc.gen_degrees):
        k = degree - dj
        if k < 0 or degree > enc.win.width:
            continue
        for u in itertools.product(range(enc.n_base), repeat=k):
            mono = tuple(((dj + p) * L + a, 1) for p, a in enumerate(u))
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
    echelon = _eliminate(rows, field, lambda c: c)
    kernel = [{key[1]: c for key, c in row.items()}
              for piv, row in echelon.items() if piv[0] == 1]
    return rref(kernel, field)[0]


def ev_image(enc, j, mono):
    """Image of the column e_j * mono under evaluation against the
    encoded generators, in normal-form coordinates: each component's
    coefficient reduced modulo the ring (resolver._nf_sum)."""
    return _nf_sum(enc.ring, ((comp, mono_mul(gm, mono), c)
                              for (comp, gm), c in enc.gens_lp[j].items()))


def evaluated_stair_rows(enc, degree):
    """The RREF basis of the degree-`degree` stair subspace, keyed
    (component, monomial), read off the kernel of evaluation on the
    whole stair frame."""
    frame = stair_frame(enc, degree)
    rows = frame_kernel(enc.ring.field,
                        [ev_image(enc, j, mono) for j, mono in frame])
    return [{frame[pos]: c for pos, c in row.items()} for row in rows]


# --- the Buchberger oracle ---------------------------------------------------

def rank(rows, field, col_key=None) -> int:
    """Rank of a list of sparse rows (linalg docstring)."""
    return len(_eliminate(rows, field, col_key or (lambda c: c)))


def mono_mask(m) -> int:
    """Bit mask of the variables of m modulo 64: necessary for
    divisibility, even where variable indices alias."""
    mask = 0
    for v, _ in m:
        mask |= 1 << (v & 63)
    return mask


class BuchbergerRing(RingGB):
    """Plain Buchberger over every generator given: the oracle the
    letterplace RingGB is checked against, and a ring for module bases
    over ideals that are not letterplace.  It shares RingGB's normal-form
    loop, S-polynomials and key table, and serves module bases through
    the same interface (_find, leads_meeting, element).

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
        self._empty(field, cap, n_letters)
        self._tailed: List[int] = []  # indices of elements with a tail
        self._pairs: list = []
        if n_letters is not None:  # a sum of collisions is zero: drop it
            gens = [g for g in gens
                    if not all(place_collision(m, n_letters) for m in g)]
            _require_multihomogeneous([g for g in gens if g], n_letters)
        for g in gens:
            if g:
                self._insert(g)
        while self._pairs:
            _, l, i, j = heapq.heappop(self._pairs)
            self._insert(self._spoly(l, self.elements[i], self.elements[j]))
        self._interreduce()

    def _find(self, m):
        """Products of the first reducer in bucket order, as RingGB._find
        returns them: mono_mul(tail term, q) for the cofactor q."""
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
        keys = self.keys
        elements = self.elements
        minimal = []
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

    def leads_meeting(self, m):
        return [(k, lead, len(terms) == 1)
                for k, (lead, terms) in enumerate(self.elements)
                if not mono_coprime(lead, m)]

    def element(self, k):
        return self.elements[k]

    def polys(self):
        return [dict(terms) for _, terms in self.elements]


def normal_form(field, f, basis):
    """Greedy reduction of f by a list of nonzero polynomials: unique when
    basis is a Groebner basis, otherwise some normal form with the
    divisibility and membership postconditions."""
    gb = BuchbergerRing(field, ())
    for p in basis:
        if p:
            gb._install(*gb._monic_terms(p))
    return gb.normal_form(f)


def window_shifts(ring):
    """Every window shift of a letterplace RingGB's stored (anchored)
    elements, as (lead, terms) in ascending lead order: the basis a
    Buchberger ring over the same window stores."""
    L = ring.n_letters
    out = [(shift_mono(lead, c * L), [(shift_mono(m, c * L), x)
                                      for m, x in terms])
           for lead, terms in ring.elements
           for c in range(ring.cap - len(lead) + 1 if lead else 1)]
    return sorted(out, key=lambda e: mono_key(e[0]))
