import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (BuchbergerRing, augmentation_module, elements_as_tuples,
                     flat_key, leads_meeting, letterplace_ideal_gens,
                     letterplace_lcm, mono_coprime, mono_deg, mono_div,
                     mono_key, mono_lcm, mono_mul, nilpotent_enveloping,
                     normal_form, place_collision, poly_to_masks,
                     poly_to_tuples, random_presentation, rank, shift_mono,
                     to_mask, to_tuple, window_shifts)
from ncres import engine
from ncres.engine import RingGB
from ncres.field import prime_field, rationals
from ncres.freealg import AlgebraPresentation
from ncres.homog import extend_algebra
from ncres.letterplace import PlaceWindow
from ncres.resolver import ResolutionRequest, _ring_basis, resolve
from ncres.syzygy import ModuleGB

F = rationals()


def dense(m, n):
    v = [0] * n
    for var, e in m:
        v[var] = e
    return v


def degrevlex_less(a, b, n):
    """Reference order: compare degree, then the reversed exponent
    vector, where the LAST variable to differ decides and a larger
    exponent there means smaller."""
    da, db = sum(a), sum(b)
    if da != db:
        return da < db
    for i in range(n - 1, -1, -1):
        if a[i] != b[i]:
            return a[i] > b[i]
    return False


def sparse(v):
    return tuple((i, e) for i, e in enumerate(v) if e)


monos = st.lists(st.integers(min_value=0, max_value=4), min_size=4,
                 max_size=4)


@given(monos, monos)
def test_mono_key_matches_reference_order(a, b):
    ka, kb = mono_key(sparse(a)), mono_key(sparse(b))
    if degrevlex_less(a, b, 4):
        assert ka < kb
    elif degrevlex_less(b, a, 4):
        assert kb < ka
    else:
        assert ka == kb


@given(monos, monos, monos)
def test_mono_key_multiplicative(a, b, c):
    if mono_key(sparse(a)) < mono_key(sparse(b)):
        ma = mono_mul(sparse(a), sparse(c))
        mb = mono_mul(sparse(b), sparse(c))
        assert mono_key(ma) < mono_key(mb)


@given(monos, monos)
def test_mono_mul_div_lcm(a, b):
    sa, sb = sparse(a), sparse(b)
    prod = mono_mul(sa, sb)
    assert dense(prod, 4) == [x + y for x, y in zip(a, b)]
    assert mono_div(prod, sb) == sa
    l = mono_lcm(sa, sb)
    assert dense(l, 4) == [max(x, y) for x, y in zip(a, b)]
    if any(x < y for x, y in zip(a, b)):
        assert mono_div(sa, sb) is None


# Sparse monomials over 70 variables: indices pass 64, where mono_mask
# aliases, and exponents up to 300 move flat_key's field width (the bit
# length of the degree) across several powers of two.
WIDE = 70
wide_monos = st.dictionaries(st.integers(0, WIDE - 1), st.integers(1, 300),
                             max_size=6)


def wide(d):
    return tuple(sorted(d.items()))


def _assert_flat_key_order(a, b):
    """flat_key ascends from the greatest monomial; mono_key is its
    reverse.  Both against the reference order."""
    ka, kb = flat_key(a), flat_key(b)
    da, db = dense(a, WIDE), dense(b, WIDE)
    if degrevlex_less(da, db, WIDE):
        assert kb < ka and mono_key(a) < mono_key(b)
    elif degrevlex_less(db, da, WIDE):
        assert ka < kb and mono_key(b) < mono_key(a)
    else:
        assert a == b and ka == kb


@given(wide_monos, wide_monos, st.data())
def test_flat_key_matches_reference_order_on_wide_monomials(a, b, data):
    a = wide(a)
    _assert_flat_key_order(a, wide(b))
    if not a:
        return
    # the same degree, one unit of exponent moved to another variable,
    # so that the packed field decides
    src = data.draw(st.sampled_from([v for v, _ in a]))
    dst = data.draw(st.integers(0, WIDE - 1))
    moved = dict(a)
    moved[src] -= 1
    moved[dst] = moved.get(dst, 0) + 1
    _assert_flat_key_order(a, wide({v: e for v, e in moved.items() if e}))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 15, 16, 255, 256, 300])
def test_flat_key_at_the_packing_boundaries(d):
    """Every monomial of degree d with exponents on variables 0, 1, 63, 64
    and 69 whose exponents are 0, 1, d - 1 or d: their flat_key order is
    the reference order, at degrees on both sides of powers of two."""
    vars_ = (0, 1, 63, 64, 69)
    monos = set()
    for exps in itertools.product((0, 1, d - 1, d), repeat=len(vars_)):
        if sum(exps) == d:
            monos.add(tuple((v, e) for v, e in zip(vars_, exps) if e))
    def cmp(a, b):
        da, db = dense(a, WIDE), dense(b, WIDE)
        return degrevlex_less(db, da, WIDE) - degrevlex_less(da, db, WIDE)
    ref = sorted(monos, key=functools.cmp_to_key(cmp), reverse=True)
    assert sorted(monos, key=flat_key) == ref
    assert len({flat_key(m) for m in monos}) == len(monos)


@given(st.integers(0, WIDE), wide_monos, wide_monos)
def test_mono_mul_concatenates_separated_factors(cut, a, b):
    """When every variable of one factor comes before every variable of
    the other, the product is their concatenation, in either argument
    order, and equals dense addition."""
    lo = wide({v: e for v, e in a.items() if v < cut})
    hi = wide({v: e for v, e in b.items() if v >= cut})
    want = [x + y for x, y in zip(dense(lo, WIDE), dense(hi, WIDE))]
    for x, y in ((lo, hi), (hi, lo)):
        prod = mono_mul(x, y)
        assert prod == lo + hi
        assert dense(prod, WIDE) == want


# --- the bit-mask kernel against the tuple reference -------------------------
#
# A monomial of the kernel is the int with bit v set for each variable v;
# the tuple monomials of helpers are the reference it replaced.  Squarefree
# monomials over 140 variables: indices pass bits 63 and 127.

MASK_WIDE = 140
variable_sets = st.frozensets(st.integers(0, MASK_WIDE - 1), max_size=8)


def _pair(vs):
    """(mask, tuple) of one squarefree monomial."""
    return sum(1 << v for v in vs), tuple((v, 1) for v in sorted(vs))


@given(variable_sets, variable_sets)
def test_mask_flat_key_sorts_like_the_tuple_reference(a, b):
    """mono_key on masks orders two monomials as the tuple key does, and
    on masks of one degree, the ring's heap key, the mask itself, ascends
    like the tuple flat_key: from the greatest monomial."""
    (ma, ta), (mb, tb) = _pair(a), _pair(b)
    assert (engine.mono_key(ma) < engine.mono_key(mb)) == \
        (mono_key(ta) < mono_key(tb))
    if ma.bit_count() == mb.bit_count():
        assert (ma < mb) == (flat_key(ta) < flat_key(tb))


@given(variable_sets, variable_sets)
@example(frozenset(range(1, 48_000, 5)), frozenset({0, 47_999}))
def test_pair_heap_tie_key_sorts_like_the_tuple(a, b):
    """The pair heaps break lcm ties by engine.variables, which orders
    masks as the (variable, exponent) tuples they were; one input is a
    mask 48,000 bits wide, as a long reserved-letter prefix makes."""
    (ma, ta), (mb, tb) = _pair(a), _pair(b)
    assert engine.variables(ma) == tuple(sorted(a))
    assert (engine.variables(ma) < engine.variables(mb)) == (ta < tb)


@given(variable_sets, st.integers(1, 5), st.data())
def test_mask_collision_is_the_tuple_collision(a, n_letters, data):
    """place_collision on a mask agrees with the tuple predicate, and the
    pair rule's place count with the tuple letterplace_lcm: on two
    letterplace monomials from a common floor, as two module leads of one
    component, where it also means that one divides the other, and on an
    anchored lead of k places and a lead moved c < k places on, as the
    ring pairs them."""
    ma, ta = _pair(a)
    want = place_collision(ta, n_letters)
    assert engine.place_collision(ma, n_letters) == want
    L = n_letters
    word = st.lists(st.integers(0, L - 1), max_size=6)

    def letterplace(w, start):
        return sum(1 << ((start + i) * L + x) for i, x in enumerate(w))
    floor = data.draw(st.integers(0, 7))
    u, v = data.draw(word), data.draw(word)
    mu, mv = letterplace(u, floor), letterplace(v, floor)
    passes = (mu | mv).bit_count() == max(len(u), len(v))
    assert passes == letterplace_lcm(to_tuple(mu | mv), L, floor)
    assert passes == (mu & mv in (mu, mv))
    u = data.draw(word.filter(bool))
    v = data.draw(word.filter(bool))
    c = data.draw(st.integers(0, len(u) - 1))
    lead, moved = letterplace(u, 0), letterplace(v, c)
    assert ((lead | moved).bit_count() == max(len(u), c + len(v))) == \
        letterplace_lcm(to_tuple(lead | moved), L)


@given(variable_sets, variable_sets, st.data())
def test_mask_arithmetic_is_the_tuple_arithmetic(a, b, data):
    """Degree, product of coprime factors, lcm, coprimality, quotient and
    place shifts on masks against the tuple operations; the divisor is
    drawn from the dividend's variables half the time."""
    if data.draw(st.booleans()):
        b = frozenset(data.draw(st.sets(st.sampled_from(sorted(a))))) \
            if a else b
    (ma, ta), (mb, tb) = _pair(a), _pair(b)
    assert ma.bit_count() == mono_deg(ta)
    assert (not ma & mb) == mono_coprime(ta, tb)
    if not ma & mb:
        assert to_tuple(ma | mb) == mono_mul(ta, tb)
    assert to_tuple(ma | mb) == mono_lcm(ta, tb)
    quotient = mono_div(ta, tb)
    assert (ma & mb == mb) == (quotient is not None)
    if quotient is not None:
        assert to_tuple(ma ^ mb) == quotient
    k = data.draw(st.integers(0, 70))
    assert to_tuple(ma << k) == shift_mono(ta, k)
    assert to_mask(ta) == ma and to_tuple(ma) == ta


def test_concatenated_collision_reduces_to_zero_in_a_told_ring():
    """A concatenated product holding a place collision is zero in a
    told ring: x(0) times z(0)x(1) covers place 0 twice."""
    alg = nilpotent_enveloping()
    L, width = alg.n_letters, 4
    told = _ring_basis(alg, width)
    a = ((0, 1),)
    b = ((2, 1), (L, 1))
    standard = to_mask(((0, 1), (L + 1, 1)))  # x(0)y(1), in normal form
    assert told.normal_form({standard: F.one}) == {standard: F.one}
    for x, y in ((a, b), (b, a)):
        prod = mono_mul(x, y)
        assert prod == a + b and place_collision(prod, L)
        prod = to_mask(prod)
        assert prod == to_mask(x) | to_mask(y)
        assert engine.place_collision(prod, L)
        assert told.normal_form({prod: F.one}) == {}
        assert told.mono_normal_form(prod) == {}
        assert told.normal_form({prod: F.one, standard: F.one}) == \
            {standard: F.one}


def test_normal_forms_reduce_terms_in_descending_key_order(monkeypatch):
    """Instrument both normal forms over a flagship resolve, the module's
    on its keyed work: each reduces its terms (the lookups of a reducer)
    in strictly ascending key order, that is greatest term first, each
    term once."""
    seqs = {"ring": [], "module": []}
    active = {"ring": [], "module": []}

    def instrument(cls, kind, reduce_name, find_name, key_of):
        real_reduce = getattr(cls, reduce_name)
        real_find = getattr(cls, find_name)

        def reduce(self, *args):
            active[kind].append((key_of(self), []))
            try:
                return real_reduce(self, *args)
            finally:
                seqs[kind].append(active[kind].pop())

        def find(self, *term):
            if active[kind]:  # inside this kind's normal form
                active[kind][-1][1].append(term)
            return real_find(self, *term)
        monkeypatch.setattr(cls, reduce_name, reduce)
        monkeypatch.setattr(cls, find_name, find)

    plain_find = RingGB._find
    instrument(RingGB, "ring", "_reduce_full", "_find",
               lambda gb: lambda term: flat_key(to_tuple(term[0])))
    instrument(ModuleGB, "module", "_nf", "_find_module",
               lambda gb: lambda term: gb._term_key(term))

    def memo_find(self, m):
        # a step's ring is a view that memoizes _find: record each of its
        # lookups once, hits included
        if active["ring"]:
            active["ring"][-1][1].append((m,))
        if m not in self._found:
            self._found[m] = plain_find(self, m)
        return self._found[m]
    monkeypatch.setattr(engine._RingView, "_find", memo_find)
    res = resolve(ResolutionRequest(
        augmentation_module(nilpotent_enveloping()), degree_bound=10,
        length_bound=7, trust_finite=True))
    assert len(res.steps) == 6
    for kind in ("ring", "module"):
        long = [(key, terms) for key, terms in seqs[kind] if len(terms) > 2]
        assert len(long) > 40, kind
        for key, terms in seqs[kind]:
            keys = [key(t) for t in terms]
            assert all(x < y for x, y in zip(keys, keys[1:])), kind


def P(*terms):
    """Build a polynomial from ((exponents...), coeff) pairs over
    implicit variables 0..len-1."""
    out = {}
    for exps, c in terms:
        out[sparse(list(exps))] = F.from_int(c)
    return out


def test_normal_form_examples():
    sq = P(((2,), 1))
    assert normal_form(F, dict(sq), [sq]) == {}
    # x0*y1 has no divisor among leads of {x0*x1}
    f = P(((1, 0, 1, 0), 1))
    basis = [P(((1, 1), 1))]
    assert normal_form(F, dict(f), basis) == f
    g = P(((1, 1, 0, 1), 1))
    assert normal_form(F, dict(g), basis) == {}


def test_groebner_drops_zero_and_keeps_monomials():
    f = P(((1, 1), 1))
    assert BuchbergerRing(F, [dict(f), {}]).polys() == [f]
    ms = [P(((2, 0, 0), 1)), P(((0, 1, 1), 1))]
    gb = BuchbergerRing(F, [dict(m) for m in ms]).polys()
    assert sorted(gb, key=repr) == sorted(ms, key=repr)


def test_groebner_small_binomial_ideal():
    # x^2 - y^2 and xy - y^2 are already a reduced basis; x^3 reduces
    # to y^3
    f1 = P(((2, 0), 1), ((0, 2), -1))
    f2 = P(((1, 1), 1), ((0, 2), -1))
    gb = BuchbergerRing(F, [dict(f1), dict(f2)]).polys()
    assert len(gb) == 2
    got = normal_form(F, P(((3, 0), 1)), gb)
    assert got == P(((0, 3), 1))


def test_groebner_invariant_under_input_order():
    gens = [P(((2, 0, 0), 1), ((0, 1, 1), -1)),
            P(((1, 1, 0), 1), ((0, 0, 2), -1)),
            P(((0, 2, 0), 1), ((1, 0, 1), -1))]
    base = None
    for perm in itertools.permutations(range(3)):
        gb = BuchbergerRing(F, [dict(gens[i]) for i in perm]).polys()
        canon = sorted(sorted(p.items()) for p in gb)
        if base is None:
            base = canon
        else:
            assert canon == base


def test_reduced_basis_lies_in_input_span():
    """Each reduced basis element of degree d is a combination of the
    degree-d monomial multiples of the inputs, also after interreduction
    has rewritten the tails."""
    cases = [
        [P(((2, 0), 1), ((0, 2), -1)), P(((1, 1), 1), ((0, 2), -1))],
        [P(((2, 0, 0), 1), ((0, 1, 1), -2)),
         P(((1, 1, 0), 1), ((0, 1, 1), 1)),
         P(((0, 2, 0), 3), ((1, 0, 1), 1), ((0, 1, 1), 5))],
    ]
    rng = random.Random(7)
    for trial in range(10):
        gens = [random_homog_poly(rng, 3, rng.randint(1, 3))
                for _ in range(rng.randint(2, 3))]
        cases.append([g for g in gens if g])
    for gens in cases:
        for p in BuchbergerRing(F, [dict(g) for g in gens], cap=6).polys():
            d = mono_deg(next(iter(p)))
            rows = []
            for g in gens:
                gd = mono_deg(next(iter(g)))
                if gd <= d:
                    rows += [{mono_mul(m, u): c for m, c in g.items()}
                             for u in monomials_of_degree(3, d - gd)]
            assert rank(rows + [p], F) == rank(rows, F)


def spoly(f, g):
    lf = max(f, key=mono_key)
    lg = max(g, key=mono_key)
    l = mono_lcm(lf, lg)
    qf, qg = mono_div(l, lf), mono_div(l, lg)
    out = {}
    for m, c in f.items():
        key = mono_mul(m, qf) if qf else m
        out[key] = F.add(out.get(key, F.zero), F.mul(F.inv(f[lf]), c))
    for m, c in g.items():
        key = mono_mul(m, qg) if qg else m
        s = F.sub(out.get(key, F.zero), F.mul(F.inv(g[lg]), c))
        if s == F.zero:
            out.pop(key, None)
        else:
            out[key] = s
    return out


def random_homog_poly(rng, nvars, deg):
    n_terms = rng.randint(1, 3)
    out = {}
    for _ in range(n_terms):
        cuts = sorted(rng.choices(range(nvars), k=deg))
        m = sparse([cuts.count(i) for i in range(nvars)])
        out[m] = F.from_int(rng.randint(-3, 3) or 1)
    return {m: c for m, c in out.items() if c != F.zero}


def test_all_spolys_reduce_to_zero():
    rng = random.Random(11)
    for trial in range(15):
        gens = [random_homog_poly(rng, 3, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb = BuchbergerRing(F, [dict(g) for g in gens]).polys()
        for f, g in itertools.combinations(gb, 2):
            assert normal_form(F, spoly(f, g), gb) == {}


def monomials_of_degree(nvars, d):
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        yield sparse([combo.count(i) for i in range(nvars)])


def test_ideal_dimension_self_check():
    """Count of degree-d monomials divisible by some lead must match the
    rank of the multiplication matrix of the generators, independently of
    the basis computation."""
    rng = random.Random(23)
    for trial in range(10):
        nvars = rng.randint(2, 3)
        gens = [random_homog_poly(rng, nvars, rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        dmax = 5
        gb = BuchbergerRing(F, [dict(g) for g in gens], cap=dmax).polys()
        leads = [max(p, key=mono_key) for p in gb]
        for d in range(dmax + 1):
            by_leads = sum(
                1 for m in monomials_of_degree(nvars, d)
                if any(mono_div(m, l) is not None for l in leads))
            rows = []
            for g in gens:
                gd = mono_deg(max(g, key=mono_key))
                if gd > d:
                    continue
                for u in monomials_of_degree(nvars, d - gd):
                    rows.append({mono_mul(m, u): c for m, c in g.items()})
            by_rank = rank(rows, F)
            assert by_leads == by_rank, (trial, d)


def test_truncation_agrees_below_cap():
    gens = [P(((2, 1, 0), 1), ((0, 0, 3), -1)),
            P(((1, 0, 2), 1), ((0, 3, 0), 1))]
    full = BuchbergerRing(F, [dict(g) for g in gens], cap=8).polys()
    trunc = BuchbergerRing(F, [dict(g) for g in gens], cap=5).polys()
    want = [p for p in full
            if mono_deg(max(p, key=mono_key)) <= 5]
    canon = lambda ps: sorted(sorted(p.items()) for p in ps)
    assert canon(trunc) == canon(want)


def _letterplace_basis(alg, width, order=None, n_letters=None):
    gens = letterplace_ideal_gens(PlaceWindow(alg.names, width), alg)
    if order is not None:
        gens = [gens[k] for k in order]
    return gens, BuchbergerRing(alg.field, gens, cap=width,
                                n_letters=n_letters)


def test_letterplace_bases_are_truncated_groebner_bases():
    """The pair criteria may only drop pairs that are redundant: on
    letterplace ideals, with and without the relation-free reserved
    letter, in a plain ring and in one told the alphabet size, the result
    reduces every input and every S-polynomial through the cap, and does
    not depend on the order of the generators."""
    rng = random.Random(2)
    for trial in range(20):
        base = random_presentation(rng)
        for alg, width in itertools.product((base, extend_algebra(base)),
                                            range(3, 7)):
            order = list(range(len(letterplace_ideal_gens(
                PlaceWindow(alg.names, width), alg))))
            rng.shuffle(order)
            for told in (None, alg.n_letters):
                gens, gb = _letterplace_basis(alg, width, n_letters=told)
                assert all(not gb.normal_form(g) for g in gens)
                polys = gb.polys()
                for f, g in itertools.combinations(polys, 2):
                    lcm = mono_lcm(max(f, key=mono_key),
                                   max(g, key=mono_key))
                    if mono_deg(lcm) <= width:
                        assert not gb.normal_form(spoly(f, g)), \
                            (trial, width, told)
                _, shuffled = _letterplace_basis(alg, width, order, told)
                assert [list(p.items()) for p in shuffled.polys()] == \
                    [list(p.items()) for p in polys], (trial, width, told)


def _scanned_pairs(gb, t, lead_t, bare):
    """The pairs of new element t that survive the M, F and B criteria,
    found by testing every earlier survivor's lcm for divisibility,
    whatever its degree (the reference for the oracle's _update_pairs),
    and the number of candidates dropped for an lcm equal to a
    survivor's."""
    cand = []
    for i in (gb._tailed if bare else range(t)):
        l = mono_lcm(gb.elements[i][0], lead_t)
        if (gb.cap is None or mono_deg(l) <= gb.cap) and \
                (gb.n_letters is None or not place_collision(l, gb.n_letters)):
            cand.append((mono_deg(l), i, l))
    cand.sort()
    kept, pushed, equal = [], [], 0
    for deg, i, l in cand:
        if any(mono_div(l, k) is not None for k in kept):
            equal += l in kept
            continue
        kept.append(l)
        if not mono_coprime(gb.elements[i][0], lead_t):
            pushed.append((deg, l, i, t))
    return sorted(pushed), equal


def test_pair_update_pushes_what_the_full_survivor_scan_keeps():
    """_update_pairs looks up same-degree survivors instead of scanning
    them; the pairs it pushes must be exactly those that the scan over
    every earlier survivor keeps, on the flagship base basis at W=13 and
    20 random presentations over both alphabets."""
    pushed_total = equal_total = 0

    class Checked(BuchbergerRing):
        def _update_pairs(self, t, lead_t, bare):
            nonlocal pushed_total, equal_total
            before = set(self._pairs)
            super()._update_pairs(t, lead_t, bare)
            want, equal = _scanned_pairs(self, t, lead_t, bare)
            assert sorted(set(self._pairs) - before) == want, (t, lead_t)
            pushed_total += len(want)
            equal_total += equal

    rng = random.Random(13)
    cases = [(nilpotent_enveloping(), 13)]
    cases += [(alg, 7) for base in (random_presentation(rng, max_rel_deg=3)
                                    for _ in range(20))
              for alg in (base, extend_algebra(base))]
    for alg, width in cases:
        Checked(alg.field,
                letterplace_ideal_gens(PlaceWindow(alg.names, width), alg),
                cap=width, n_letters=alg.n_letters)
    assert pushed_total > 0 and equal_total > 0


def test_reference_letterplace_basis_sizes():
    alg = nilpotent_enveloping()
    assert len(_letterplace_basis(alg, 10)[1].elements) == 131
    assert len(_letterplace_basis(extend_algebra(alg), 9)[1].elements) == 152


def test_monomials_form_no_pairs_among_themselves():
    gb = BuchbergerRing(F, (), cap=6)
    for exps in [(2, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 2), (0, 3, 0),
                 (1, 1, 1)]:
        gb._insert(P((exps, 1)))
        assert gb._pairs == []


def test_monomial_letterplace_basis_is_the_minimal_generators():
    """Over a monomial presentation every generator of the letterplace
    ideal is a monomial, so the basis is the divisibility-minimal subset
    of the generators, in ascending order."""
    rng = random.Random(5)
    for trial in range(20):
        n = rng.randint(1, 3)
        rels = [{tuple(rng.randrange(n) for _ in range(rng.randint(2, 4))):
                 F.one} for _ in range(rng.randint(0, 4))]
        base = AlgebraPresentation(F, tuple("abc"[:n]), rels)
        alg = extend_algebra(base) if trial % 2 else base
        width = rng.randint(2, 6)
        gens, gb = _letterplace_basis(alg, width)
        monos = {next(iter(g)) for g in gens}
        minimal = [m for m in monos
                   if not any(d != m and mono_div(m, d) is not None
                              for d in monos)]
        assert gb.polys() == [{m: F.one}
                              for m in sorted(minimal, key=mono_key)], trial


def test_monomial_still_pairs_with_a_polynomial():
    # S(x^2, xy + y^2) reduces to y^3, which only that pair produces
    gb = BuchbergerRing(F, [P(((2, 0), 1)), P(((1, 1), 1), ((0, 2), 1))])
    assert P(((0, 3), 1)) in gb.polys()


def _without_collisions(gb, n_letters):
    """The elements of gb whose lead holds no place collision."""
    return [(lead, terms) for lead, terms in gb.elements
            if not place_collision(lead, n_letters)]


def test_collision_criterion_keeps_the_letterplace_basis():
    """Told its alphabet size, the Buchberger oracle treats place
    collisions as zero; its basis must equal the one built without that
    rule minus the collision monomials, element for element, over the base
    and the t-extended alphabet, and so must every window shift of the
    letterplace RingGB's elements."""
    rng = random.Random(11)
    cases = [(nilpotent_enveloping(), 8)]
    cases += [(random_presentation(rng, max_rel_deg=3), 3 + k % 5)
              for k in range(40)]
    for k, (base, width) in enumerate(cases):
        for alg in (base, extend_algebra(base)):
            L = alg.n_letters
            gens, plain = _letterplace_basis(alg, width)
            told = BuchbergerRing(alg.field, gens, cap=width, n_letters=L)
            kept = _without_collisions(plain, L)
            assert told.elements == kept, (k, alg.names, width)
            assert window_shifts(_ring_basis(alg, width)) == kept
            # nothing of degree below 2 divides a collision monomial, so
            # exactly the L(L+1)/2 per place are removed
            assert len(plain.elements) - len(kept) == \
                L * (L + 1) // 2 * width


def test_collision_criterion_needs_place_multihomogeneous_generators():
    # over 2 letters x_a(p) is variable 2(p - 1) + a: a(1)b(2) - a(1)b(1)
    # covers place 1 twice in its second term, and so does a(1)^2
    bad = {((0, 1), (3, 1)): F.one, ((0, 1), (1, 1)): F.neg(F.one)}
    square = {((0, 1), (3, 1)): F.one, ((0, 2),): F.neg(F.one)}
    with pytest.raises(ValueError, match="place-multihomogeneous"):
        BuchbergerRing(F, [square], cap=4, n_letters=2)
    for ring, conv in ((RingGB, poly_to_masks), (BuchbergerRing, dict)):
        with pytest.raises(ValueError, match="place-multihomogeneous"):
            ring(F, [conv(bad)], cap=4, n_letters=2)
    # terms covering different places
    bad = {((0, 1), (3, 1)): F.one, ((2, 1), (5, 1)): F.one}
    for ring, conv in ((RingGB, poly_to_masks), (BuchbergerRing, dict)):
        with pytest.raises(ValueError, match="place-multihomogeneous"):
            ring(F, [conv(bad)], cap=4, n_letters=2)
    good = {((0, 1), (3, 1)): F.one, ((1, 1), (2, 1)): F.one}
    collision = {((0, 1), (1, 1)): F.one}
    told = BuchbergerRing(F, [good, collision], cap=4, n_letters=2)
    plain = BuchbergerRing(F, [good, collision], cap=4)
    assert collision in plain.polys()
    assert told.elements == _without_collisions(plain, 2)


def _shape(gb):
    """What a reader of a finished letterplace ring can see: its window,
    its alphabet and its basis, every window shift of a RingGB's stored
    elements materialized, in ascending lead order."""
    elements = gb.elements if isinstance(gb, BuchbergerRing) \
        else window_shifts(gb)
    return gb.cap, gb.n_letters, elements


def test_restriction_equals_the_basis_from_generators():
    """One finished letterplace basis over the base alphabet, restricted
    to any narrower window over the base or the t-extended alphabet, is
    the basis that Buchberger computes from that window's generators, and
    stores the elements the basis built at that window stores."""
    rng = random.Random(11)
    cases = [(nilpotent_enveloping(), 9)]
    cases += [(random_presentation(rng, max_rel_deg=3), 7)
              for _ in range(40)]
    for k, (base, top) in enumerate(cases):
        big = _ring_basis(base, top)
        for width in range(top + 1):
            for alg in (base, extend_algebra(base)):
                L = alg.n_letters
                got = big.restrict(width, L)
                assert got._found == {} and not hasattr(big, "_found")
                oracle = _letterplace_basis(alg, width, n_letters=L)[1]
                assert _shape(got) == _shape(oracle), (k, width, alg.names)
                assert got.elements == _ring_basis(alg, width).elements


def _window_monomials(L, width):
    """Every monomial with at most one variable at each of `width` places
    over L letters, and every collision of two variables."""
    monos = [()]
    for p in range(width):
        monos += [m + ((p * L + a, 1),) for m in monos for a in range(L)]
    variables = range(width * L)
    monos += [((u, 1), (v, 1)) if u < v else ((u, 2),)
              for u, v in itertools.combinations_with_replacement(
                  variables, 2) if u // L == v // L]
    return monos


def test_implicit_shifts_choose_the_buchberger_reducer():
    """For every collision-free monomial of the window, a letterplace
    ring's _find returns the products that the Buchberger oracle over the
    window's generators returns (tail times cofactor, mono_mul(tail, q),
    of the first reducer in bucket order), and every collision has normal
    form zero.  For every monomial of the window, the reference
    leads_meeting gives the oracle's meeting leads and elements in the
    oracle's ascending lead order.  For every letterplace monomial m from
    floor 0, 1 and 2 on, overlaps(m, floor) gives exactly those meeting
    leads whose lcm the tuple pair rule admits at that floor and whose
    pair fits the window, with the same refs and bare flags.  So the
    reducers and pairs, and with them the pinned module counts, are those
    of the materialized basis: on the reference presentation and seeded
    random ones, at several widths, over L and L + 1 letters."""
    rng = random.Random(29)
    cases = [(nilpotent_enveloping(), (3, 5))]
    cases += [(random_presentation(rng, max_rel_deg=3), (2, 4))
              for _ in range(10)]
    found = met = paired = 0
    for base, widths in cases:
        for width in widths:
            big = _ring_basis(base, width)
            for alg in (base, extend_algebra(base)):
                L = alg.n_letters
                ring = big.restrict(width, L)
                oracle = _letterplace_basis(alg, width, n_letters=L)[1]
                for m in _window_monomials(L, width):
                    if any(e > 1 for _, e in m):
                        continue  # a square has no mask
                    if place_collision(m, L):
                        assert ring.normal_form({to_mask(m): F.one}) == {}
                    else:
                        products = _as_tuples(ring._find(to_mask(m)))
                        assert products == oracle._find(m), (alg.names, m)
                        found += bool(products)
                    got = [(to_tuple(lead), bare,
                            elements_as_tuples([ring.element(ref)])[0])
                           for ref, lead, bare in sorted(
                               leads_meeting(ring, to_mask(m)))]
                    assert got == [(lead, bare, oracle.element(k))
                                   for k, lead, bare in
                                   oracle.leads_meeting(m)], (alg.names, m)
                    met += len(got)
                for floor in (0, 1, 2):
                    for d in range(floor, width + 1):
                        for word in itertools.product(range(L),
                                                      repeat=d - floor):
                            m = sum(1 << ((floor + i) * L + a)
                                    for i, a in enumerate(word))
                            want = [(ref, lead | m, bare) for ref, lead, bare
                                    in sorted(leads_meeting(ring, m))
                                    if letterplace_lcm(to_tuple(lead | m),
                                                       L, floor)
                                    and (lead | m).bit_count() + floor
                                    <= ring.cap]
                            assert sorted(ring.overlaps(m, floor)) == want, \
                                (alg.names, width, floor, word)
                            paired += len(want)
    assert found > 900 and met > 900 and paired > 900


def _as_tuples(products):
    """_find's products with tuple monomials; None and () as they are."""
    if products is None or products == ():
        return products
    return [(to_tuple(m), c) for m, c in products]


def test_told_ring_sends_place_collisions_to_zero():
    """A told ring, built from generators or restricted, over the base or
    the t-extended alphabet, reduces every monomial holding a place
    collision to zero, t-collisions included, in the ring and in a module
    over it, and stores no collision element; collision-free monomials
    below the relations' degree survive.  An untold ring stores them
    all."""
    alg = nilpotent_enveloping()
    width = 4
    big = _ring_basis(alg, 6)
    for ext in (alg, extend_algebra(alg)):
        L = ext.n_letters
        plain = BuchbergerRing(F, letterplace_ideal_gens(
            PlaceWindow(ext.names, width), ext), cap=width)
        assert len(plain.elements) - len(_without_collisions(plain, L)) \
            == L * (L + 1) // 2 * width
        variables = range(width * L)
        monos = [((u, 1), (v, 1)) if u < v else ((u, 2),)
                 for u, v in itertools.combinations_with_replacement(
                     variables, 2)]
        monos += [mono_mul(m, ((w, 1),)) for m in monos for w in variables]
        hits = [m for m in monos if place_collision(m, L)]
        if L > alg.n_letters:  # x_a(p)t(p) and t(p)^2 are among them
            t = L - 1
            assert ((0, 1), (t, 1)) in hits and ((t, 2),) in hits
        for gb in (_ring_basis(ext, width), big.restrict(width, L)):
            elements = elements_as_tuples(gb.elements)
            assert [e for e in elements
                    if not place_collision(e[0], L)] == elements
            module = ModuleGB(gb, [0])
            for m in monos:
                if any(e > 1 for _, e in m):
                    continue  # a square has no mask
                mask = to_mask(m)
                nf = gb.normal_form({mask: F.one})
                if place_collision(m, L):
                    assert nf == {}, m
                    assert module.normal_form({(0, mask): F.one}) == {}, m
                elif mono_deg(m) < 3:
                    assert nf == {mask: F.one}, m


def test_inhomogeneous_normal_form_is_the_sum_over_degrees():
    """The ring heaps bare masks, which sort by degrevlex only within one
    degree, so an inhomogeneous polynomial reduces by degrees apart: its
    normal form is the sum of the normal forms of its homogeneous parts,
    and equals the Buchberger oracle's.  Random presentations, windows 3
    to 6, over Q and over F_32003; collisions included."""
    rng = random.Random(26)
    fp = prime_field(32003)
    changed = 0
    for trial in range(12):
        base = random_presentation(rng, max_rel_deg=3)
        for field in (F, fp):
            alg = base._replace(field=field, relations=[
                {w: field.from_int(c) for w, c in r.items()}
                for r in base.relations])
            L = alg.n_letters
            for width in range(3, 7):
                ring = _ring_basis(alg, width)
                oracle = _letterplace_basis(alg, width, n_letters=L)[1]
                p = {}
                for _ in range(rng.randint(2, 8)):
                    places = rng.sample(range(width), rng.randint(1, width))
                    m = sum(1 << (q * L + rng.randrange(L)) for q in places)
                    if rng.random() < 0.2:  # a collision at some place
                        m |= 1 << (places[0] * L + rng.randrange(L))
                    p[m] = field.from_int(rng.choice([-2, -1, 1, 3]))
                nf = ring.normal_form(p)
                parts = {}
                for m, c in p.items():
                    parts.setdefault(m.bit_count(), {})[m] = c
                total = {}
                for part in parts.values():
                    for m, c in ring.normal_form(part).items():
                        total[m] = field.add(total.get(m, field.zero), c)
                total = {m: c for m, c in total.items() if c != field.zero}
                assert nf == total, (trial, field, width)
                assert poly_to_tuples(nf) == oracle.normal_form(
                    poly_to_tuples(p)), (trial, field, width)
                changed += nf != p and len(parts) > 1
    assert changed > 40


def test_restriction_rejects_what_it_cannot_read_off():
    """A basis refuses, with one line of error, any alphabet but its own
    or its own plus t, and a negative width; to a wider window it widens
    first.  A view holds no generator past its window, so it refuses to
    widen."""
    gb = _ring_basis(nilpotent_enveloping(), 4)
    view = gb.restrict(3, 3)
    for ring, width, letters in ((gb, 4, 2), (gb, 4, 5), (gb, -1, 3),
                                 (view, 4, 3), (view, 4, 4)):
        with pytest.raises(ValueError, match="cannot restrict") as err:
            ring.restrict(width, letters)
        assert "\n" not in str(err.value)
    assert view.cap == 3 and view.restrict(2, 4).cap == 2
    assert gb.restrict(5, 3).cap == gb.cap == 5


# --- the anchored letterplace basis -----------------------------------------

def _edge_presentations():
    """(algebra, widths): a degree-1 relation, no relations, a one-letter
    alphabet, windows below every relation degree, and the unit ideal."""
    one, m1 = F.one, F.neg(F.one)
    return [
        (AlgebraPresentation(F, ("a", "b"), [{(0,): one, (1,): m1},
                                             {(0, 1): one, (1, 0): one}]),
         range(6)),
        (AlgebraPresentation(F, ("a", "b"), [{(0,): one}]), range(5)),
        (AlgebraPresentation(F, ("a", "b"), []), range(5)),
        (AlgebraPresentation(F, ("a",), [{(0, 0, 0): one}]), range(7)),
        (AlgebraPresentation(F, ("a", "b", "c"),
                             [{(0, 1, 2, 0): one, (2, 1, 0, 0): m1}]),
         range(4)),
        (AlgebraPresentation(F, ("a", "b"), [{(): one}, {(0, 1): one}]),
         range(4)),
    ]


def test_shift_built_basis_equals_the_buchberger_basis():
    """RingGB, built from the generators at place 0, which reduces only
    pairs with a place-0 member and leaves every other element an
    implicit shift, holds the basis that Buchberger builds from the
    window's generators, element for element once its shifts are
    materialized; each restriction stores what the basis built at its
    width stores."""
    rng = random.Random(17)
    cases = [(nilpotent_enveloping(), list(range(23)) + [50])]
    for _ in range(40):
        base = random_presentation(rng, max_rel_deg=3)
        cases += [(alg, range(9)) for alg in (base, extend_algebra(base))]
    cases += _edge_presentations()
    for alg, widths in cases:
        L = alg.n_letters
        ext = extend_algebra(alg)
        direct = {}  # (letters, w) -> the elements built at width w
        for width in widths:
            oracle = _letterplace_basis(alg, width, n_letters=L)[1]
            built = _ring_basis(alg, width)
            assert _shape(built) == _shape(oracle), (alg, width)
            for w, over in itertools.product(range(width + 1), (alg, ext)):
                key = over.n_letters, w
                if key not in direct:
                    direct[key] = _ring_basis(over, w).elements
                assert built.restrict(w, over.n_letters).elements == \
                    direct[key], (alg, width, w)


def test_widened_basis_equals_the_basis_built_at_its_width():
    """A basis widened step by step (RingGB.restrict past its cap) stores
    what the basis built at the new width stores, element for element,
    and its shifts are the Buchberger basis of that window: over L and
    L + 1 letters, on the reference presentation, on random ones with
    relations of mixed degrees, and on the edge cases."""
    rng = random.Random(25)
    cases = [(nilpotent_enveloping(), (2, 3, 5, 8, 11))]
    cases += [(random_presentation(rng, max_letters=2, max_rel_deg=4),
               (1, 2, 4, 6)) for _ in range(40)]
    cases += [(alg, (0, 1, 3, max(widths)))
              for alg, widths in _edge_presentations()]
    mixed = 0
    for base, widths in cases:
        mixed += len({sum(map(len, r)) // len(r)
                      for r in base.relations}) > 1
        for alg in (base, extend_algebra(base)):
            L = alg.n_letters
            grown, jumped = _ring_basis(alg, 0), _ring_basis(alg, widths[0])
            for width in widths:
                view = grown.restrict(width, L)
                oracle = _letterplace_basis(alg, width, n_letters=L)[1]
                assert grown.cap == width
                assert grown.elements == _ring_basis(alg, width).elements
                assert _shape(grown) == _shape(oracle), (alg, width)
                assert view.elements == grown.elements
            jumped.restrict(widths[-1], L)
            assert jumped.elements == grown.elements
    assert mixed >= 10


def test_shift_built_basis_reduces_only_anchored_pairs(monkeypatch):
    """On the reference presentation the anchored construction reduces
    the same few S-pairs and stores the same 9 elements whatever the
    window, up to 1000 places, where Buchberger's count grows with it."""
    counts = []
    real_spoly = RingGB._spoly

    def counted(self, l, elem_i, elem_j):
        counts[-1] += 1
        return real_spoly(self, l, elem_i, elem_j)
    monkeypatch.setattr(RingGB, "_spoly", counted)
    alg = nilpotent_enveloping()
    stored = []
    for width in (10, 22, 50, 1000):
        counts.append(0)
        stored.append(_ring_basis(alg, width).elements)
    assert counts == [16, 16, 16, 16]
    assert len(stored[0]) == 9
    assert all(elements == stored[0] for elements in stored)


def test_ring_basis_needs_anchored_multihomogeneous_generators():
    """RingGB takes place-multihomogeneous generators that cover places
    0 .. k - 1 of its window, and it needs the window and the alphabet:
    other input is an error, never a different basis."""
    # over 2 letters x_a(p) is variable 2(p - 1) + a; `good` covers
    # places 1 and 2, so at 4 places it has shifts to places 2-3 and 3-4
    good = {((0, 1), (3, 1)): F.one, ((1, 1), (2, 1)): F.one}
    shifted = [{shift_mono(m, 2 * c): x for m, x in good.items()}
               for c in range(3)]
    gap = {((0, 1), (5, 1)): F.one}  # places 1 and 3
    for gens in ([shifted[1]], [good, shifted[2]], [gap]):
        with pytest.raises(ValueError, match="cover places") as err:
            RingGB(F, [poly_to_masks(g) for g in gens], cap=4, n_letters=2)
        assert "\n" not in str(err.value)
    built = RingGB(F, [poly_to_masks(good)], cap=4, n_letters=2)
    assert _shape(built) == \
        _shape(BuchbergerRing(F, shifted, cap=4, n_letters=2))
    # wider than the window, `good` waits until the basis widens
    waiting = RingGB(F, [poly_to_masks(good)], cap=1, n_letters=2)
    assert waiting.elements == []
    waiting.restrict(4, 2)
    assert _shape(waiting) == _shape(built)
    bad = {((0, 1), (3, 1)): F.one, ((0, 1), (1, 1)): F.neg(F.one)}
    with pytest.raises(ValueError, match="place-multihomogeneous"):
        RingGB(F, [poly_to_masks(bad)], cap=2, n_letters=2)
    with pytest.raises(TypeError):
        RingGB(F, [poly_to_masks(good)], cap=4)
    with pytest.raises(TypeError):
        RingGB(F, [poly_to_masks(good)], n_letters=2)


def test_monomial_normal_forms_are_memoized_per_basis():
    """mono_normal_form equals normal_form of the monomial, computes it
    once per basis, and a restricted basis starts with an empty memo."""
    alg = nilpotent_enveloping()
    big = _ring_basis(alg, 6)
    ring = big.restrict(5, alg.n_letters)
    assert ring._mono_nf == {} and big._mono_nf == {}
    monos = [to_mask(((0, 1), (3 + a, 1), (6 + b, 1))) for a in range(3)
             for b in range(3)]
    for m in monos:
        nf = ring.mono_normal_form(m)
        assert nf == ring.normal_form({m: F.one}), m
        assert ring.mono_normal_form(m) is nf
    assert set(ring._mono_nf) == set(monos)
    assert big._mono_nf == {}
    assert big.restrict(5, alg.n_letters)._mono_nf == {}
