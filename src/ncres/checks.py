"""Instance-level invariant suite behind the check subcommand.

Each check returns a list of human-readable failure strings; an empty
list is a pass.  They re-derive, on the user's own presentation, the
identities the whole pipeline rests on: graded dimension counts agree
between direct linear algebra and the word-to-places side, encode and
decode round-trip, encoding turns concatenation into shifted products,
and substituting generators commutes with encoding.  One more check,
check_hilbert_identity, takes a finished resolution and counts its
exactness against the same direct linear algebra.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from .dims import (graded_component_dim, ideal_component_dim, ideal_pivots,
                   module_component_dim, module_component_dim_from,
                   words_of_degree)
from .freealg import (AlgebraPresentation, ModulePresentation, NcModElem,
                      NcPoly, elem_degree)
from .homog import eta_apply, eta_inverse, homogenization_context
from .letterplace import (PlaceWindow, iota_inverse_elem, iota_module_elem,
                          iota_poly, iota_word, sigma_shift_mono)
from .resolver import Resolution, ResourceLimit, _ring_basis
from .syzygy import ModuleGB

WORD_GUARD = 20_000  # words one degree of check_dimension_equalities visits


def _nonzero_scalar(field, rng):
    if field.char:
        return field.from_int(rng.randint(1, field.char - 1))
    return field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))


def _random_poly(rng, field, n: int, degree: int) -> NcPoly:
    while True:
        poly: NcPoly = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randrange(n) for _ in range(degree))
            c = field.add(poly.get(w, field.zero),
                          _nonzero_scalar(field, rng))
            if c == field.zero:
                poly.pop(w, None)
            else:
                poly[w] = c
        if poly:
            return poly


def _random_elem(rng, field, n: int, shifts: Sequence[int],
                 degree: int) -> NcModElem:
    comps = [i for i, s in enumerate(shifts) if s <= degree]
    if not comps:
        return {}
    while True:
        elem: NcModElem = {}
        for _ in range(rng.randint(1, 3)):
            i = rng.choice(comps)
            w = tuple(rng.randrange(n) for _ in range(degree - shifts[i]))
            c = field.add(elem.get((i, w), field.zero),
                          _nonzero_scalar(field, rng))
            if c == field.zero:
                elem.pop((i, w), None)
            else:
                elem[(i, w)] = c
        if elem:
            return elem


def _elem_times_poly(field, elem: NcModElem, f: NcPoly) -> NcModElem:
    out: NcModElem = {}
    for (comp, w), c in elem.items():
        for u, cu in f.items():
            key = (comp, w + u)
            s = field.add(out.get(key, field.zero), field.mul(c, cu))
            if s == field.zero:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def check_dimension_equalities(module: ModulePresentation,
                               dmax: int = 5) -> List[str]:
    """Graded dimensions of the relation ideal and of the submodule,
    counted directly, against reducible-word counts on the places side,
    over the rings resolve() uses: one letterplace basis at dmax places,
    restricted to each degree.  ResourceLimit when degree dmax visits
    more than WORD_GUARD words."""
    alg = module.algebra
    field = alg.field
    n = alg.n_letters
    words = n ** dmax + sum(n ** (dmax - s) for s in module.shifts
                            if s <= dmax)
    if words > WORD_GUARD:
        raise ResourceLimit(
            f"dimension check visits {words} words at degree {dmax} over "
            f"{n} letters, beyond {WORD_GUARD}")
    failures = []
    base = _ring_basis(alg, dmax)
    for d in range(1, dmax + 1):
        win = PlaceWindow(alg.names, d)
        ring = base.restrict(d, n)
        reducible = 0
        for w in words_of_degree(n, d):
            m = {iota_word(win, w): field.one}
            if ring.normal_form(m) != m:
                reducible += 1
        direct = ideal_component_dim(alg, d)
        if reducible != direct:
            failures.append(
                f"ideal degree {d}: places count {reducible}, "
                f"direct count {direct}")

        mgb = ModuleGB(ring, list(module.shifts))
        for g in module.generators:
            if elem_degree(module.shifts, g) <= d:
                mgb.add_generator(iota_module_elem(win, g, module.shifts))
        mgb.complete_to(d)
        normal = 0
        ambient = 0
        for i, s in enumerate(module.shifts):
            e = d - s
            if e < 0:
                continue
            ambient += graded_component_dim(alg, e)
            for w in words_of_degree(n, e):
                elem = {(i, iota_word(win, w, s)): field.one}
                if mgb.normal_form(elem) == elem:
                    normal += 1
        direct_mod = module_component_dim(module, d)
        if normal != ambient - direct_mod:
            failures.append(
                f"module degree {d}: places normal count {normal}, "
                f"direct quotient count {ambient - direct_mod}")
    return failures


def check_hilbert_identity(module: ModulePresentation,
                           res: Resolution) -> List[str]:
    """The resolution's free modules against the submodule's graded
    dimensions: in each degree d the alternating sum over levels i >= 1
    of sum_{s in level_shifts[i]} dim A_{d-s}, signed (-1)^(i+1), equals
    module_component_dim(module, d).

    Checked for every d up to the smallest window and, when the last
    level's syzygies were never computed (the length bound cut the
    resolution), up to that level's smallest shift: a further level only
    starts one degree above it.  Only dims is used, no encoding and no
    Groebner basis; each degree's ideal rows are eliminated once and serve
    both sides.  The identity is necessary, not sufficient, for
    exactness: homology can cancel in the alternating sum.
    """
    levels = res.level_shifts
    last = max(levels)
    if last == 0:
        return []  # zero module: no generators, nothing to resolve
    tops = list(res.windows)
    if len(res.steps) < last:
        tops.append(min(levels[last]))
    alg = module.algebra
    # each degree's ideal rows, eliminated once for both sides
    ideal_at = functools.cache(lambda e: ideal_pivots(alg, e))
    failures = []
    for d in range(min(tops) + 1):
        total = 0
        for i in range(1, last + 1):
            for s in levels[i]:
                if d >= s:  # dim A_(d-s)
                    total += (-1) ** (i + 1) * (
                        alg.n_letters ** (d - s) - len(ideal_at(d - s)))
        direct = module_component_dim_from(module, d, ideal_at)
        if total != direct:
            failures.append(f"degree {d}: alternating sum {total}, "
                            f"submodule dimension {direct}")
    return failures


def check_round_trips(module: ModulePresentation, rng: random.Random,
                      trials: int = 25) -> List[str]:
    alg = module.algebra
    field = alg.field
    n = alg.n_letters
    shifts = list(module.shifts)
    failures = []
    ctx = homogenization_context(alg, shifts)
    for k in range(trials):
        d = max(shifts) + rng.randint(0, 3)
        elem = _random_elem(rng, field, n, shifts, d)
        if not elem:
            continue
        win = PlaceWindow(alg.names, max(d, 1))
        enc = iota_module_elem(win, elem, shifts)
        if iota_inverse_elem(win, enc, shifts) != elem:
            failures.append(f"trial {k}: places round trip broke")
        if eta_inverse(ctx, eta_apply(ctx, elem)) != elem:
            failures.append(f"trial {k}: degree-balancing round trip broke")
    return failures


def check_encoding_product_law(module: ModulePresentation,
                               rng: random.Random,
                               trials: int = 25) -> List[str]:
    """Encoding a right multiple equals the encoded element times the
    place-shifted encoded factor."""
    alg = module.algebra
    field = alg.field
    n = alg.n_letters
    shifts = list(module.shifts)
    failures = []
    for k in range(trials):
        dg = max(shifts) + rng.randint(0, 2)
        df = rng.randint(0, 2)
        g = _random_elem(rng, field, n, shifts, dg)
        f = _random_poly(rng, field, n, df)
        if not g or not f:
            continue
        win = PlaceWindow(alg.names, dg + df)
        lhs = iota_module_elem(win, _elem_times_poly(field, g, f), shifts)
        shifted = {sigma_shift_mono(win, m, dg): c
                   for m, c in iota_poly(win, f).items()}
        rhs: Dict = {}
        for (i, m), cg in iota_module_elem(win, g, shifts).items():
            for mf, cf in shifted.items():
                key = (i, m | mf)  # disjoint places
                s = field.add(rhs.get(key, field.zero), field.mul(cg, cf))
                if s == field.zero:
                    rhs.pop(key, None)
                else:
                    rhs[key] = s
        if lhs != rhs:
            failures.append(f"trial {k}: product law broke at degrees "
                            f"({dg}, {df})")
    return failures


def check_presentation_map_commutes(module: ModulePresentation,
                                    rng: random.Random,
                                    trials: int = 25) -> List[str]:
    """Sending basis elements to the module generators commutes with the
    encoding: encode-then-substitute equals substitute-then-encode."""
    alg = module.algebra
    field = alg.field
    n = alg.n_letters
    shifts = list(module.shifts)
    gens = module.generators
    if not gens:
        return []
    degrees = [elem_degree(shifts, g) for g in gens]
    failures = []
    for k in range(trials):
        e = max(degrees) + rng.randint(0, 2)
        h = {}
        image: NcModElem = {}
        for j, dj in enumerate(degrees):
            if e < dj:
                continue
            fj = _random_poly(rng, field, n, e - dj)
            for w, c in fj.items():
                h[(j, w)] = c
            for key, c in _elem_times_poly(field, gens[j], fj).items():
                s = field.add(image.get(key, field.zero), c)
                if s == field.zero:
                    image.pop(key, None)
                else:
                    image[key] = s
        if not h:
            continue
        win = PlaceWindow(alg.names, e)
        lhs = iota_module_elem(win, image, shifts)
        gens_lp = [iota_module_elem(win, g, shifts) for g in gens]
        rhs: Dict = {}
        for (j, m), c in iota_module_elem(win, h, degrees).items():
            for (i, gm), cg in gens_lp[j].items():
                key = (i, gm | m)  # disjoint places
                s = field.add(rhs.get(key, field.zero), field.mul(c, cg))
                if s == field.zero:
                    rhs.pop(key, None)
                else:
                    rhs[key] = s
        if lhs != rhs:
            failures.append(f"trial {k}: substitution did not commute "
                            f"at degree {e}")
    return failures


def run_all(module: ModulePresentation, dmax: int = 4, trials: int = 25,
            seed: int = 0) -> List[Tuple[str, List[str]]]:
    rng = random.Random(seed)
    return [
        ("dimension-equalities", check_dimension_equalities(module, dmax)),
        ("round-trips", check_round_trips(module, rng, trials)),
        ("encoding-product-law",
         check_encoding_product_law(module, rng, trials)),
        ("presentation-map-commutes",
         check_presentation_map_commutes(module, rng, trials)),
    ]
