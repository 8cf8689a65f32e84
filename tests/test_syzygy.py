import itertools
import random

import pytest

from helpers import (BuchbergerRing, augmentation_module,
                     nilpotent_enveloping, nonmonomial_modules, normal_form,
                     rank, window_shifts)
from ncres.engine import (mono_coprime, mono_deg, mono_key, mono_mul,
                          place_collision)
from ncres.field import rationals
from ncres.letterplace import (WindowTooSmall, build_C, iota_word,
                               letterplace_ideal_gens)
from ncres.resolver import ResolutionRequest, _encode_step, resolve
from ncres.syzygy import (ModuleGB, elem_sdeg, minimalize_graded,
                          syzygies_over_quotient)

F = rationals()
X = ((0, 1),)
Y = ((1, 1),)
Z = ((2, 1),)
one = ()


def free(cap):
    """The polynomial ring itself, truncated at cap."""
    return BuchbergerRing(F, (), cap=cap)


def C(n):
    return F.from_int(n)


def test_two_variables_single_component():
    gens = [{(0, X): C(1)}, {(0, Y): C(1)}]
    res = syzygies_over_quotient(free(4), gens, [0])
    assert res.generators == [{(0, Y): C(1), (1, X): C(-1)}]
    assert res.degrees == [2]


def test_repeated_generator():
    gens = [{(0, X): C(1)}, {(0, X): C(1)}]
    res = syzygies_over_quotient(free(4), gens, [0])
    assert res.generators == [{(0, one): C(1), (1, one): C(-1)}]
    assert res.degrees == [1]


def test_single_generator_is_free():
    res = syzygies_over_quotient(free(6), [{(0, X): C(1)}], [0])
    assert res.generators == []


def test_quotient_single_generator_of_the_ring():
    # over k[x,y]/(xy) the class of x is annihilated by y
    ideal = [{mono_mul(X, Y): C(1)}]
    res = syzygies_over_quotient(BuchbergerRing(F, ideal, cap=4),
                                 [{(0, X): C(1)}], [0])
    assert {(0, Y): C(1)} in res.generators


def test_quotient_unit_generator_has_no_syzygies():
    # coefficients live in the quotient, so ideal multiples of the unit
    # generator reduce to nothing
    ideal = [{mono_mul(X, X): C(1)}]
    res = syzygies_over_quotient(BuchbergerRing(F, ideal, cap=5),
                                 [{(0, one): C(1)}], [0])
    assert res.generators == []


def test_coprime_module_pair_keeps_its_koszul_syzygy():
    # over k[x,y,z]/(z^2) the pairs of x e_0 and y e_0 with z^2 are
    # coprime module-by-ring pairs and are skipped; the pair of x e_0 with
    # y e_0 is coprime too but carries the Koszul syzygy, so it must stay
    ring = BuchbergerRing(F, [{mono_mul(Z, Z): C(1)}], cap=4)
    gens = [{(0, X): C(1)}, {(0, Y): C(1)}]
    res = syzygies_over_quotient(ring, gens, [0])
    assert res.generators == [{(0, Y): C(1), (1, X): C(-1)}]
    assert res.degrees == [2]


def test_coprime_module_by_ring_pairs_are_not_queued():
    ring = BuchbergerRing(F, [{mono_mul(Z, Z): C(1)},
                              {mono_mul(X, Z): C(1)}], cap=4)
    gb = ModuleGB(ring, [0])
    gb.add_generator({(0, X): C(1), (1, one): C(1)})
    ring_pairs = [(gb.ring.elements[k][0], gb.elements[t][0][1])
                  for _, kind, _, _, k, t in gb.pairs if kind == 1]
    assert ring_pairs == [(mono_mul(X, Z), X)]
    assert not any(mono_coprime(r, m) for r, m in ring_pairs)


def test_bare_module_element_pairs_with_a_ring_element_with_a_tail():
    # over k[x,y]/(xy + y^2) the bare x e_0 must still pair with
    # xy + y^2: their S-polynomial puts y^2 e_0 into the submodule
    ring = BuchbergerRing(F, [{mono_mul(X, Y): C(1), mono_mul(Y, Y): C(1)}],
                          cap=4)
    gb = ModuleGB(ring, [0])
    gb.add_generator({(0, X): C(1)})
    gb.complete_to(2)
    assert gb.normal_form({(0, mono_mul(Y, Y)): C(1)}) == {}


def test_bare_module_elements_queue_no_pair_between_them():
    # no ghosts: x e_0 and y e_0 are bare, and so is the ring element xz;
    # only y e_0 with the ring element y^2 + yz, which has a tail, pairs
    ring = BuchbergerRing(F, [{mono_mul(X, Z): C(1)},
                              {mono_mul(Y, Y): C(1), mono_mul(Y, Z): C(1)}],
                          cap=4)
    gb = ModuleGB(ring, [0])
    gb.add_generator({(0, X): C(1)})
    gb.add_generator({(0, Y): C(1)})
    queued = [(kind, ring.elements[k][0] if kind else k, t)
              for _, kind, _, _, k, t in gb.pairs]
    assert queued == [(1, mono_mul(Y, Y), 1)]


def test_ghost_terms_are_reduced_by_the_ring_only():
    # over k[x,y]/(x^2 + xy) the ghost term x^2 eps becomes -xy eps and
    # cancels half of 2xy eps; x e_0 leads in component 0 only, so it
    # leaves the ghost xy eps alone
    ring = BuchbergerRing(F, [{mono_mul(X, X): C(1), mono_mul(X, Y): C(1)}],
                          cap=4)
    gb = ModuleGB(ring, [0])
    gb.add_generator({(0, X): C(1)})
    nf = gb.normal_form({(0, mono_mul(Y, Y)): C(1),
                         (1, mono_mul(X, X)): C(1),
                         (1, mono_mul(X, Y)): C(2)})
    assert list(nf.items()) == [((0, mono_mul(Y, Y)), C(1)),
                                ((1, mono_mul(X, Y)), C(1))]


@pytest.mark.parametrize("second", [X, one])
def test_ghost_terms_never_lead(second):
    # main shifts [3, 0], g0 = e0 + x^3 e1, g1 = x^a e1: the S-polynomial
    # g0 - x^(3-a) g1 is e0 + eps_0 - x^(3-a) eps_1.  Keyed like a main
    # term with shift deg(g1) = a, x^(3-a) eps_1 ties e0 in degree and
    # wins on the monomial (for a = 0 even with shift 0); ghosts sorting
    # below every main term make e0 the lead
    shifts = [3, 0]
    gens = [{(0, one): C(1), (1, mono_mul(X, mono_mul(X, X))): C(1)},
            {(1, second): C(1)}]
    gb = ModuleGB(free(6), shifts)
    for j, g in enumerate(gens):
        gb.add_generator({**g, (len(shifts) + j, one): C(1)})
    gb.complete_to(6)
    leads = [lead for lead, _ in gb.elements]
    assert all(comp < len(shifts) for comp, _ in leads)
    assert (0, one) in leads
    assert gb.syzygies == []
    res = syzygies_over_quotient(free(6), gens, shifts)
    assert res.generators == [] and res.degrees == []


def monomials_of_degree(nvars, d):
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        yield tuple((i, combo.count(i)) for i in range(nvars)
                    if combo.count(i))


def test_module_term_keys_are_distinct_and_ghosts_sort_last():
    """The flat module term keys of every term over three main components
    and two ghosts are distinct, put every ghost term below every main
    term, and order the terms as the reference key: shifted degree
    (-inf for a ghost), then mono_key, then the lower component."""
    shifts = [0, 2, 1]
    gb = ModuleGB(free(8), shifts)
    monos = [m for d in range(4) for m in monomials_of_degree(3, d)]
    monos += [((63, 1), (64, 2)), ((64, 3),), ((1, 1), (69, 2))]
    terms = [(c, m) for c in range(len(shifts) + 2) for m in monos]
    keys = [gb._term_key(t) for t in terms]
    assert len(set(keys)) == len(terms)
    main = [k for (c, _), k in zip(terms, keys) if c < len(shifts)]
    ghost = [k for (c, _), k in zip(terms, keys) if c >= len(shifts)]
    assert max(main) < min(ghost)

    def reference(term):
        c, m = term
        d = mono_deg(m) + shifts[c] if c < len(shifts) else float("-inf")
        return (d, mono_key(m), -c)
    assert sorted(terms, key=gb._term_key) == \
        sorted(terms, key=reference, reverse=True)


def random_homog_poly(rng, nvars, deg):
    out = {}
    for _ in range(rng.randint(1, 3)):
        cuts = rng.choices(range(nvars), k=deg)
        m = tuple((i, cuts.count(i)) for i in range(nvars) if cuts.count(i))
        out[m] = F.from_int(rng.randint(-3, 3) or 2)
    return out


def _apply_syzygy(syz, gens):
    """Compose a syzygy with the generators; returns the module element
    sum_j s_j g_j."""
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


def _kernel_dim(gens, shifts, normal, nvars, d):
    """dim of the degree-d kernel of the evaluation map, over the
    quotient ring whose normal monomials are given by `normal`."""
    rows = []
    domain = 0
    gb = normal["gb"]
    for j, g in enumerate(gens):
        gd = elem_sdeg(shifts, g)
        if gd > d:
            continue
        for u in monomials_of_degree(nvars, d - gd):
            if normal_form(F, {u: C(1)}, gb) != {u: C(1)}:
                continue
            domain += 1
            row = _nf_componentwise(
                {(c, mono_mul(m, u) if u else m): cc
                 for (c, m), cc in g.items()}, gb)
            rows.append(row)
    return domain - rank(rows, F)


def _span_dim(syz_gens, gen_degs, nvars, d, gb):
    rows = []
    for s in syz_gens:
        sd = elem_sdeg(gen_degs, s)
        if sd > d:
            continue
        for u in monomials_of_degree(nvars, d - sd):
            row = _nf_componentwise(
                {(j, mono_mul(m, u) if u else m): c
                 for (j, m), c in s.items()}, gb)
            if row:
                rows.append(row)
    return rank(rows, F)


@pytest.mark.parametrize("seed", range(8))
def test_syzygies_match_kernel_dimension_free(seed):
    rng = random.Random(seed)
    nvars = rng.randint(2, 3)
    r = rng.randint(1, 2)
    shifts = [rng.randint(0, 1) for _ in range(r)]
    gens = []
    for _ in range(rng.randint(2, 3)):
        comp = rng.randrange(r)
        deg = rng.randint(1, 2)
        poly = random_homog_poly(rng, nvars, deg)
        g = {(comp, m): c for m, c in poly.items() if c != F.zero}
        if g:
            gens.append(g)
    if not gens:
        return
    cap = 6
    res = syzygies_over_quotient(free(cap), gens, shifts)
    gen_degs = [elem_sdeg(shifts, g) for g in gens]
    for s in res.generators:
        assert _apply_syzygy(s, gens) == {}
    empty = {"gb": []}
    for d in range(cap + 1):
        want = _kernel_dim(gens, shifts, empty, nvars, d)
        got = _span_dim(res.generators, gen_degs, nvars, d, [])
        assert got == want, (seed, d)


@pytest.mark.parametrize("seed", range(8))
def test_syzygies_match_kernel_dimension_quotient(seed):
    rng = random.Random(100 + seed)
    nvars = rng.randint(2, 3)
    ideal = [random_homog_poly(rng, nvars, rng.randint(2, 3))]
    ideal = [p for p in ideal if p]
    r = rng.randint(1, 2)
    shifts = [0] * r
    gens = []
    for _ in range(rng.randint(2, 3)):
        comp = rng.randrange(r)
        poly = random_homog_poly(rng, nvars, rng.randint(1, 2))
        g = {(comp, m): c for m, c in poly.items() if c != F.zero}
        if g:
            gens.append(g)
    if not gens:
        return
    cap = 5
    gb_full = BuchbergerRing(F, [dict(p) for p in ideal], cap=cap).polys()
    # work with generators already in normal form so that membership in
    # the quotient module is honest
    gens = [e for e in (_nf_componentwise(g, gb_full) for g in gens) if e]
    if not gens:
        return
    res = syzygies_over_quotient(BuchbergerRing(F, ideal, cap=cap), gens,
                                 shifts)
    gen_degs = [elem_sdeg(shifts, g) for g in gens]
    for s in res.generators:
        image = _apply_syzygy(s, gens)
        assert _nf_componentwise(image, gb_full) == {}
        assert s == _nf_componentwise(s, gb_full)  # collected reduced
    normal = {"gb": gb_full}
    for d in range(cap + 1):
        want = _kernel_dim(gens, shifts, normal, nvars, d)
        got = _span_dim(res.generators, gen_degs, nvars, d, gb_full)
        assert got == want, (seed, d)


def test_minimalize_drops_multiples():
    gens = [{(0, X): C(1)},
            {(0, mono_mul(X, Y)): C(1)},
            {(0, Y): C(2)},
            {(0, X): C(3)}]
    kept = minimalize_graded(free(2), gens, [0])
    assert kept == [0, 2]


def test_minimalize_counts_are_order_independent():
    rng = random.Random(5)
    polys = [random_homog_poly(rng, 2, d) for d in (1, 1, 2, 2, 3)]
    gens = [{(0, m): c for m, c in p.items()} for p in polys if p]
    base = None
    for trial in range(6):
        perm = list(range(len(gens)))
        rng.shuffle(perm)
        kept = minimalize_graded(free(3), [gens[i] for i in perm], [0])
        degs = sorted(elem_sdeg([0], gens[perm[i]]) for i in kept)
        if base is None:
            base = degs
        else:
            assert degs == base


def test_module_gb_normal_form_membership():
    gens = [{(0, X): C(1), (1, Y): C(-1)}]
    gb = ModuleGB(free(5), [0, 0])
    gb.add_generator(gens[0])
    gb.complete_to(5)
    member = {(0, mono_mul(X, Y)): C(3), (1, mono_mul(Y, Y)): C(-3)}
    assert gb.normal_form(member) == {}
    non = {(0, mono_mul(X, Y)): C(3), (1, mono_mul(Y, Y)): C(3)}
    assert gb.normal_form(non) != {}


def test_module_basis_needs_a_truncated_ring():
    with pytest.raises(ValueError, match="truncated"):
        ModuleGB(BuchbergerRing(F, ()), [0])


def test_generator_above_the_window_is_rejected():
    # x^3 e_0 has degree 3 over a ring truncated at 2
    cubic = {(0, mono_mul(X, mono_mul(X, X))): C(1)}
    with pytest.raises(WindowTooSmall):
        syzygies_over_quotient(free(2), [{(0, X): C(1)}, cubic], [0])
    with pytest.raises(WindowTooSmall):
        minimalize_graded(free(2), [{(0, Y): C(1)}, cubic], [0])
    # the shift counts: y e_0 sits in degree 3 when e_0 has shift 2
    with pytest.raises(WindowTooSmall):
        ModuleGB(free(2), [2]).add_generator({(0, Y): C(1)})


def _step_inputs(res):
    """(ambient shifts, generators, window) of every step of res."""
    gens = res.minimal_input
    for step in res.steps:
        yield step.ambient_shifts, gens, step.window
        gens = step.generators


def _collision_syzygies_dropped(mod, bound, length, tshift):
    """Resolve mod (every step must certify, or resolve raises), then
    check each step's raw syzygies over the ring told its alphabet size
    against those over the plain ring; returns how many fewer the told
    ring gave."""
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
        full = syzygies_over_quotient(plain, enc.gens_lp, zero)
        for syz in told.generators:
            assert not _nf_componentwise(_apply_syzygy(syz, enc.gens_lp),
                                         plain.polys())
            # no ghost term below its generator's places: the stair rows
            # built from the raw syzygies need no forced block
            assert all(not u or u[0][0] >= enc.gen_degrees[j] * L
                       for j, u in syz)
        span = ModuleGB(plain, enc.gen_degrees)
        block = build_C(enc.win, alg.field, enc.gen_degrees)
        for e in told.generators + block:
            if elem_sdeg(enc.gen_degrees, e) <= plain.cap:
                span.add_generator(e)
        span.complete_to(plain.cap)
        assert not any(span.normal_form(syz) for syz in full.generators)
        dropped += len(full.generators) - len(told.generators)
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
    return all(not place_collision(l, n_letters) and
               (not l or l[0][0] // n_letters >= gb.shifts[comp])
               for _, _, l, comp, _, _ in gb.pairs)


@pytest.mark.parametrize("tshift", [True, False])
def test_told_module_bases_queue_only_letterplace_pairs(tshift):
    """On the flagship's steps, neither the collecting basis nor a shifted
    basis of the kind checks.check_dimension_equalities builds (shifts
    the generator degrees, elements the step's encoded output, read from
    those shifts on) queues a pair whose lcm holds a place collision or
    a variable below its component's shift."""
    mod = augmentation_module(nilpotent_enveloping())
    alg = mod.algebra
    res = resolve(ResolutionRequest(mod, degree_bound=7, length_bound=7,
                                    tshift=tshift))
    queued = 0
    for (shifts, gens, window), step in zip(_step_inputs(res), res.steps):
        enc = _encode_step(alg, shifts, gens, window, tshift)
        L, r, one = enc.win.n_letters, len(shifts), alg.field.one
        collect = ModuleGB(enc.ring, [0] * r)
        for j, g in enumerate(enc.gens_lp):
            collect.add_generator({**g, (r + j, ()): one})
            assert _queued_lcms_are_letterplace(collect, L)
        shifted = ModuleGB(enc.ring, enc.gen_degrees)
        for elem in step.generators:
            shifted.add_generator(
                {(j, iota_word(enc.win, w, enc.gen_degrees[j])): c
                 for (j, w), c in elem.items()})
            assert _queued_lcms_are_letterplace(shifted, L)
        queued += len(collect.pairs) + len(shifted.pairs)
    assert queued > 0
