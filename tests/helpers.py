"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import random

from ncres.engine import mono_mul
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
