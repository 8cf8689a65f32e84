import itertools
import random

import pytest

from helpers import (BuchbergerRing, augmentation_module, elem_to_tuples,
                     letterplace_ideal_gens, mono_key, mono_mul,
                     nilpotent_enveloping, nonmonomial_modules, normal_form,
                     place_collision, rank, to_tuple, TupleModuleGB,
                     tuple_syzygies, window_shifts)
from ncres import engine
from ncres.field import rationals
from ncres.freealg import AlgebraPresentation
from ncres.letterplace import (PlaceWindow, WindowTooSmall, build_C,
                               iota_word)
from ncres.resolver import (ResolutionRequest, _encode_step, _ring_basis,
                            resolve)
from ncres.syzygy import (ModuleGB, elem_sdeg, minimalize_graded,
                          syzygies_over_quotient)

# Module bases live over letterplace rings: a module term (j, m) holds a
# word at the places its component starts from, one letter at each.  The
# commutative cases of the module layer are those of the letterplace
# encoding of commutative algebras, k<x, y, ...> modulo the commutators.
F = rationals()
x, y, z = 0, 1, 2


def C(n):
    return F.from_int(n)


def algebra(names, *relations):
    """The algebra on `names` with relations given as {word: int}."""
    return AlgebraPresentation(F, tuple(names), [
        {w: C(c) for w, c in rel.items()} for rel in relations])


def commutative(names, *relations):
    """k[names] modulo `relations`: the free algebra modulo commutators."""
    n = len(names)
    comm = [{(a, b): 1, (b, a): -1} for a in range(n) for b in range(a + 1, n)]
    return algebra(names, *comm, *relations)


def W(alg, word, shift=0):
    """The word at places shift .. shift + len(word) - 1, as a mask."""
    return iota_word(PlaceWindow(alg.names, shift + len(word)), word, shift)


def free(cap, names="xyz"):
    """The letterplace ring of the free algebra, truncated at cap."""
    return _ring_basis(algebra(names), cap)


FREE = algebra("xyz")
KXY = commutative("xy")


def test_two_variables_single_component():
    # over k[x, y], x e_0 and y e_0 have the Koszul syzygy
    gens = [{(0, W(KXY, (x,))): C(1)}, {(0, W(KXY, (y,))): C(1)}]
    res = syzygies_over_quotient(_ring_basis(KXY, 4), gens, [0])
    assert res.generators == [{(0, W(KXY, (y,), 1)): C(-1),
                               (1, W(KXY, (x,), 1)): C(1)}]
    assert res.degrees == [2]


def test_repeated_generator():
    gens = [{(0, W(FREE, (x,))): C(1)}, {(0, W(FREE, (x,))): C(1)}]
    res = syzygies_over_quotient(free(4), gens, [0])
    assert res.generators == [{(0, 0): C(1), (1, 0): C(-1)}]
    assert res.degrees == [1]


def test_single_generator_is_free():
    res = syzygies_over_quotient(free(6), [{(0, W(FREE, (x,))): C(1)}], [0])
    assert res.generators == []


def test_quotient_single_generator_of_the_ring():
    # over k<x, y>/(xy) the class of x is annihilated by y
    alg = algebra("xy", {(x, y): 1})
    res = syzygies_over_quotient(_ring_basis(alg, 4),
                                 [{(0, W(alg, (x,))): C(1)}], [0])
    assert {(0, W(alg, (y,), 1)): C(1)} in res.generators


def test_quotient_unit_generator_has_no_syzygies():
    # coefficients live in the quotient, so ideal multiples of the unit
    # generator reduce to nothing
    alg = algebra("x", {(x, x): 1})
    res = syzygies_over_quotient(_ring_basis(alg, 5), [{(0, 0): C(1)}], [0])
    assert res.generators == []


def test_coprime_module_pair_keeps_its_koszul_syzygy():
    # over k[x, y, z]/(z^2) no module lead meets z^2's, and the leads of
    # x e_0 and y e_0 collide at place 1, so only ring pairs form; they
    # must still give the Koszul syzygy of x and y, and nothing else
    alg = commutative("xyz", {(z, z): 1})
    gens = [{(0, W(alg, (x,))): C(1)}, {(0, W(alg, (y,))): C(1)}]
    res = syzygies_over_quotient(_ring_basis(alg, 4), gens, [0])
    assert res.generators == [{(0, W(alg, (y,), 1)): C(-1),
                               (1, W(alg, (x,), 1)): C(1)}]
    assert res.degrees == [2]


def test_coprime_module_by_ring_pairs_are_not_queued():
    alg = algebra("xyz", {(z, z): 1}, {(x, z): 1})
    gb = ModuleGB(_ring_basis(alg, 4), [0])
    gb.add_generator({(0, W(alg, (x,))): C(1), (1, 0): C(1)})
    ring_pairs = [(gb.ring.element(ref)[0], gb.elements[t][0][1])
                  for _, kind, _, _, _, ref, t in gb.pairs if kind == 1]
    assert ring_pairs == [(W(alg, (x, z)), W(alg, (x,)))]
    assert all(r & m for r, m in ring_pairs)


def test_bare_module_element_pairs_with_a_ring_element_with_a_tail():
    # over k<x, y>/(xy + yy) the bare x e_0 must still pair with xy + yy:
    # their S-polynomial puts yy e_0 into the submodule
    alg = algebra("xy", {(x, y): 1, (y, y): 1})
    gb = ModuleGB(_ring_basis(alg, 4), [0])
    gb.add_generator({(0, W(alg, (x,))): C(1)})
    gb.complete_to(2)
    assert gb.normal_form({(0, W(alg, (y, y))): C(1)}) == {}


def test_bare_module_elements_queue_no_pair_between_them():
    # no ghosts: x e_0 and y e_0 are bare, and so is the ring element xz;
    # only y e_0 with the ring elements that have a tail, yy + yz among
    # them, pairs
    alg = algebra("xyz", {(x, z): 1}, {(y, y): 1, (y, z): 1})
    ring = _ring_basis(alg, 4)
    gb = ModuleGB(ring, [0])
    gb.add_generator({(0, W(alg, (x,))): C(1)})
    gb.add_generator({(0, W(alg, (y,))): C(1)})
    queued = [(kind, ring.element(k) if kind else k, t)
              for _, kind, _, _, _, k, t in gb.pairs]
    assert all(kind == 1 and t == 1 and len(elem[1]) > 1
               for kind, elem, t in queued)
    assert W(alg, (y, y)) in [elem[0] for _, elem, _ in queued]


def test_ghost_terms_are_reduced_by_the_ring_only():
    # over k<x, y>/(xx + xy) the ghost term xx eps becomes -xy eps and
    # cancels half of 2 xy eps; x e_0 leads in component 0 only, so it
    # leaves the ghost xy eps alone
    alg = algebra("xy", {(x, x): 1, (x, y): 1})
    gb = ModuleGB(_ring_basis(alg, 4), [0])
    gb.add_generator({(0, W(alg, (x,))): C(1)})
    nf = gb.normal_form({(0, W(alg, (y, y))): C(1),
                         (1, W(alg, (x, x))): C(1),
                         (1, W(alg, (x, y))): C(2)})
    assert list(nf.items()) == [((0, W(alg, (y, y))), C(1)),
                                ((1, W(alg, (x, y))), C(1))]


@pytest.mark.parametrize("second", [(x,), ()])
def test_ghost_terms_never_lead(second):
    # main shifts [3, 0], g0 = e0 + xxx e1, g1 = x^a e1: the S-polynomial
    # g0 - x^(3-a) g1 is e0 + eps_0 - x^(3-a) eps_1.  Keyed like a main
    # term with shift deg(g1) = a, x^(3-a) eps_1 ties e0 in degree and
    # wins on the monomial (for a = 0 even with shift 0); ghosts sorting
    # below every main term make e0 the lead
    alg = algebra("x")
    shifts = [3, 0]
    gens = [{(0, 0): C(1), (1, W(alg, (x, x, x))): C(1)},
            {(1, W(alg, second)): C(1)}]
    gb = ModuleGB(_ring_basis(alg, 6), shifts)
    for j, g in enumerate(gens):
        gb.add_generator({**g, (len(shifts) + j, 0): C(1)})
    gb.complete_to(6)
    leads = [lead for lead, _ in gb.elements]
    assert all(comp < len(shifts) for comp, _ in leads)
    assert (0, 0) in leads
    assert gb.syzygies == []
    res = syzygies_over_quotient(_ring_basis(alg, 6), gens, shifts)
    assert res.generators == [] and res.degrees == []


def test_module_term_keys_are_distinct_and_ghosts_sort_last():
    """The flat module term keys of every term over three main components
    and two ghosts are distinct, put every ghost term below every main
    term, and order the terms as the reference key: shifted degree
    (-inf for a ghost), then mono_key, then the lower component.  The
    monomials hold variables past bit 63."""
    shifts = [0, 2, 1]
    gb = ModuleGB(free(70, "x"), shifts)
    variables = (0, 1, 2, 63, 64, 69)
    monos = [sum(1 << v for v in vs) for d in range(4)
             for vs in itertools.combinations(variables, d)]
    terms = [(c, m) for c in range(len(shifts) + 2) for m in monos]
    keys = [gb._term_key(t) for t in terms]
    assert len(set(keys)) == len(terms)
    main = [k for (c, _), k in zip(terms, keys) if c < len(shifts)]
    ghost = [k for (c, _), k in zip(terms, keys) if c >= len(shifts)]
    assert max(main) < min(ghost)

    def reference(term):
        c, m = term
        d = m.bit_count() + shifts[c] if c < len(shifts) else float("-inf")
        return (d, mono_key(to_tuple(m)), -c)
    assert sorted(terms, key=gb._term_key) == \
        sorted(terms, key=reference, reverse=True)


def _apply_syzygy(syz, gens):
    """Compose a syzygy with the generators (tuple monomials); returns
    the module element sum_j s_j g_j."""
    acc = {}
    for (j, u), c in syz.items():
        for (comp, m), cg in gens[j].items():
            key = (comp, mono_mul(m, u) if u else m)
            s = F.add(acc.get(key, F.zero), F.mul(c, cg))
            if s == F.zero:
                acc.pop(key, None)
            else:
                acc[key] = s
    return acc


def _nf_componentwise(elem, gb_elements):
    out = {}
    for comp in {c for c, _ in elem}:
        poly = {m: c for (cc, m), c in elem.items() if cc == comp}
        for m, c in normal_form(F, poly, gb_elements).items():
            out[(comp, m)] = c
    return out


def _words(n, k):
    return itertools.product(range(n), repeat=k)


def _kernel_dim(alg, gens, shifts, gb, d):
    """dim of the degree-d kernel of the evaluation map on the columns
    e_j * u, u a normal word on the places after g_j's, over the
    letterplace quotient whose untold tuple basis is gb."""
    rows = []
    domain = 0
    for j, g in enumerate(gens):
        gd = elem_sdeg(shifts, g)
        if gd > d:
            continue
        for u in _words(alg.n_letters, d - gd):
            u = to_tuple(W(alg, u, gd))
            if normal_form(F, {u: C(1)}, gb) != {u: C(1)}:
                continue
            domain += 1
            rows.append(_nf_componentwise(
                _apply_syzygy({(0, u): C(1)}, [elem_to_tuples(g)]), gb))
    return domain - rank(rows, F)


def _span_dim(alg, syz_gens, gen_degs, d, gb):
    rows = []
    for s in syz_gens:
        sd = elem_sdeg(gen_degs, s)
        if sd > d:
            continue
        for u in _words(alg.n_letters, d - sd):
            u = to_tuple(W(alg, u, sd))
            row = _nf_componentwise(
                {(j, mono_mul(to_tuple(m), u)): c for (j, m), c in s.items()},
                gb)
            if row:
                rows.append(row)
    return rank(rows, F)


def _random_elem(rng, alg, shifts, deg):
    """A letterplace module element of shifted degree deg: words of
    length deg - shifts[c] in component c, from place shifts[c] on."""
    g = {}
    for _ in range(rng.randint(1, 3)):
        comp = rng.randrange(len(shifts))
        if shifts[comp] > deg:
            continue
        w = tuple(rng.randrange(alg.n_letters)
                  for _ in range(deg - shifts[comp]))
        g[(comp, W(alg, w, shifts[comp]))] = C(rng.randint(-3, 3) or 2)
    return g


def _check_kernel_dimensions(alg, gens, shifts, cap):
    """The raw syzygies are syzygies, reduced modulo the quotient, and
    their multiples by normal words span the kernel of evaluation in
    every degree through cap."""
    gb = BuchbergerRing(F, letterplace_ideal_gens(
        PlaceWindow(alg.names, cap), alg), cap=cap).polys()
    res = syzygies_over_quotient(_ring_basis(alg, cap), gens, shifts)
    tgens = [elem_to_tuples(g) for g in gens]
    for s in res.generators:
        ts = elem_to_tuples(s)
        assert _nf_componentwise(_apply_syzygy(ts, tgens), gb) == {}
        assert ts == _nf_componentwise(ts, gb)  # collected reduced
    gen_degs = [elem_sdeg(shifts, g) for g in gens]
    for d in range(cap + 1):
        want = _kernel_dim(alg, gens, shifts, gb, d)
        assert _span_dim(alg, res.generators, gen_degs, d, gb) == want, d


@pytest.mark.parametrize("seed", range(8))
def test_syzygies_match_kernel_dimension_free(seed):
    rng = random.Random(seed)
    alg = algebra("xyz"[:rng.randint(2, 3)])
    shifts = [rng.randint(0, 1) for _ in range(rng.randint(1, 2))]
    gens = [_random_elem(rng, alg, shifts, rng.randint(1, 2))
            for _ in range(rng.randint(2, 3))]
    gens = [g for g in gens if g]
    if gens:
        _check_kernel_dimensions(alg, gens, shifts, 5)


@pytest.mark.parametrize("seed", range(8))
def test_syzygies_match_kernel_dimension_quotient(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(2, 3)
    d = rng.randint(2, 3)
    rel = {tuple(rng.randrange(n) for _ in range(d)): rng.randint(-3, 3) or 2
           for _ in range(rng.randint(1, 3))}
    alg = algebra("xyz"[:n], rel)
    ring = _ring_basis(alg, 5)
    shifts = [0] * rng.randint(1, 2)
    # generators already in normal form, so that membership in the
    # quotient module is honest
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = _random_elem(rng, alg, shifts, rng.randint(1, 2))
        g = {(comp, m): c for comp in range(len(shifts))
             for m, c in ring.normal_form(
                 {m: c for (cc, m), c in g.items() if cc == comp}).items()}
        if g:
            gens.append(g)
    if gens:
        _check_kernel_dimensions(alg, gens, shifts, 5)


def test_minimalize_drops_multiples():
    gens = [{(0, W(FREE, (x,))): C(1)},
            {(0, W(FREE, (x, y))): C(1)},
            {(0, W(FREE, (y,))): C(2)},
            {(0, W(FREE, (x,))): C(3)}]
    kept = minimalize_graded(free(2), gens, [0])
    assert kept == [0, 2]


def test_minimalize_counts_are_order_independent():
    rng = random.Random(5)
    alg = algebra("xy")
    gens = [_random_elem(rng, alg, [0], d) for d in (1, 1, 2, 2, 3)]
    gens = [g for g in gens if g]
    base = None
    for trial in range(6):
        perm = list(range(len(gens)))
        rng.shuffle(perm)
        kept = minimalize_graded(free(3, "xy"), [gens[i] for i in perm], [0])
        degs = sorted(elem_sdeg([0], gens[perm[i]]) for i in kept)
        if base is None:
            base = degs
        else:
            assert degs == base


def test_module_gb_normal_form_membership():
    gens = [{(0, W(FREE, (x,))): C(1), (1, W(FREE, (y,))): C(-1)}]
    gb = ModuleGB(free(5), [0, 0])
    gb.add_generator(gens[0])
    gb.complete_to(5)
    # (x e_0 - y e_1) * y
    member = {(0, W(FREE, (x, y))): C(3), (1, W(FREE, (y, y))): C(-3)}
    assert gb.normal_form(member) == {}
    non = {(0, W(FREE, (x, y))): C(3), (1, W(FREE, (y, y))): C(3)}
    assert gb.normal_form(non) != {}


def test_generator_above_the_window_is_rejected():
    # xxx e_0 has degree 3 over a ring truncated at 2
    cubic = {(0, W(FREE, (x, x, x))): C(1)}
    with pytest.raises(WindowTooSmall):
        syzygies_over_quotient(free(2), [{(0, W(FREE, (x,))): C(1)}, cubic],
                               [0])
    with pytest.raises(WindowTooSmall):
        minimalize_graded(free(2), [{(0, W(FREE, (y,))): C(1)}, cubic], [0])
    # the shift counts: y e_0 sits in degree 3 when e_0 has shift 2
    with pytest.raises(WindowTooSmall):
        ModuleGB(free(2), [2]).add_generator({(0, W(FREE, (y,), 2)): C(1)})


def _step_inputs(res):
    """(ambient shifts, generators, window) of every step of res."""
    gens = res.minimal_input
    for step in res.steps:
        yield step.ambient_shifts, gens, step.window
        gens = step.generators


def _collision_syzygies_dropped(mod, bound, length, tshift):
    """Resolve mod (every step must certify, or resolve raises), then
    check each step's raw syzygies over the ring told its alphabet size
    against those over the plain ring (tuple monomials, collision
    monomials kept: helpers.TupleModuleGB); returns how many fewer the
    told ring gave."""
    alg = mod.algebra
    res = resolve(ResolutionRequest(mod, degree_bound=bound,
                                    length_bound=length, tshift=tshift))
    dropped = 0
    for shifts, gens, window in _step_inputs(res):
        enc = _encode_step(alg, shifts, gens, window, tshift)
        active = enc.ctx.extended if enc.ctx else alg
        plain = BuchbergerRing(alg.field,
                               letterplace_ideal_gens(enc.win, active),
                               cap=enc.win.width)
        L = enc.win.n_letters
        kept = [e for e in plain.elements if not place_collision(e[0], L)]
        assert window_shifts(enc.ring) == kept
        assert len(plain.elements) - len(kept) == \
            L * (L + 1) // 2 * enc.win.width
        zero = [0] * len(shifts)
        told = syzygies_over_quotient(enc.ring, enc.gens_lp, zero)
        gens_t = [elem_to_tuples(g) for g in enc.gens_lp]
        full = tuple_syzygies(plain, gens_t, zero)
        for syz in told.generators:
            assert not _nf_componentwise(
                _apply_syzygy(elem_to_tuples(syz), gens_t), plain.polys())
            # no ghost term below its generator's places: the stair rows
            # built from the raw syzygies need no forced block
            assert all(not u or (u & -u).bit_length() >
                       enc.gen_degrees[j] * L for j, u in syz)
        span = TupleModuleGB(plain, enc.gen_degrees)
        block = build_C(enc.win, alg.field, enc.gen_degrees)
        for e in told.generators + block:
            if elem_sdeg(enc.gen_degrees, e) <= plain.cap:
                span.add_generator(elem_to_tuples(e))
        span.complete_to(plain.cap)
        assert not any(span.normal_form(syz) for syz in full)
        dropped += len(full) - len(told.generators)
    return dropped


@pytest.mark.parametrize("tshift", [True, False])
def test_collision_pairs_lose_only_forced_block_syzygies(tshift):
    """Over a ring told its alphabet size, the collecting basis forms no
    pair with a place-collision monomial.  Its raw syzygies must still
    be syzygies, and together with the forced block they must generate
    every raw syzygy found over the plain ring."""
    modules = [(augmentation_module(nilpotent_enveloping()), 6, 7)]
    modules += [(mod, 5, 4) for mod in nonmonomial_modules(7, 30)]
    dropped = [_collision_syzygies_dropped(mod, bound, length, tshift)
               for mod, bound, length in modules]
    assert dropped[0] > 0  # the criterion is active on the flagship


def _queued_lcms_are_letterplace(gb, n_letters):
    """No queued pair of gb has an lcm with a place collision or with a
    variable below the shift of its component."""
    return all(not engine.place_collision(l, n_letters) and
               (l & -l).bit_length() > gb.shifts[comp] * n_letters
               for _, _, _, l, comp, _, _ in gb.pairs)


@pytest.mark.parametrize("tshift", [True, False])
def test_told_module_bases_queue_only_letterplace_pairs(tshift):
    """On the flagship's steps, neither the collecting basis nor a shifted
    basis of the kind checks.check_dimension_equalities builds (shifts
    the generator degrees, elements the step's encoded output, read from
    those shifts on) queues a pair whose lcm holds a place collision or
    a variable below its component's shift.  Completed, the shifted basis
    gives the normal forms, terms in order, that helpers.TupleModuleGB
    gives over the Buchberger oracle of the window, on the generators and
    on seeded random letterplace elements."""
    mod = augmentation_module(nilpotent_enveloping())
    alg = mod.algebra
    res = resolve(ResolutionRequest(mod, degree_bound=7, length_bound=7,
                                    tshift=tshift))
    rng = random.Random(7)
    queued = compared = reduced = 0
    for (shifts, gens, window), step in zip(_step_inputs(res), res.steps):
        enc = _encode_step(alg, shifts, gens, window, tshift)
        L, r, one = enc.win.n_letters, len(shifts), alg.field.one
        collect = ModuleGB(enc.ring, [0] * r)
        for j, g in enumerate(enc.gens_lp):
            collect.add_generator({**g, (r + j, 0): one})
            assert _queued_lcms_are_letterplace(collect, L)
        degs, cap = enc.gen_degrees, enc.ring.cap
        shifted = ModuleGB(enc.ring, degs)
        oracle = TupleModuleGB(BuchbergerRing(
            alg.field, letterplace_ideal_gens(
                enc.win, enc.ctx.extended if enc.ctx else alg),
            cap=cap, n_letters=L), degs)
        elems = []
        for elem in step.generators:
            elems.append({(j, iota_word(enc.win, w, degs[j])): c
                          for (j, w), c in elem.items()})
            shifted.add_generator(elems[-1])
            oracle.add_generator(elem_to_tuples(elems[-1]))
            assert _queued_lcms_are_letterplace(shifted, L)
        queued += len(collect.pairs) + len(shifted.pairs)
        shifted.complete_to(cap)
        oracle.complete_to(cap)
        for _ in range(30):
            d = rng.randint(min(degs), cap)
            elem = {}
            for j in rng.sample(range(len(degs)), min(3, len(degs))):
                if degs[j] <= d:
                    w = [rng.randrange(L) for _ in range(d - degs[j])]
                    elem[(j, iota_word(enc.win, w, degs[j]))] = \
                        alg.field.from_int(rng.randint(1, 5))
            if elem:
                elems.append(elem)
        for elem in elems:
            nf = shifted.normal_form(elem)
            assert list(elem_to_tuples(nf).items()) == \
                list(oracle.normal_form(elem_to_tuples(elem)).items())
            compared += 1
            reduced += not nf
    assert queued > 0 and compared > 100 and 0 < reduced < compared
