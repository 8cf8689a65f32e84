"""Acceptance gate: one test per release criterion, each ending in a
single PASS line with the measured quantities.  Tolerances are exact
integer equality unless a runtime budget is stated."""

import random
import time
from collections import Counter

import pytest

from helpers import (BuchbergerRing, augmentation_module, iota_poly,
                     letterplace_ideal_gens, nilpotent_enveloping,
                     random_module, random_presentation, to_tuple)
from ncres.checks import (check_dimension_equalities,
                          check_encoding_product_law,
                          check_presentation_map_commutes, check_round_trips)
from ncres.dims import leading_word_basis
from ncres.field import rationals
from ncres.freealg import AlgebraPresentation, ModulePresentation
from ncres.jsonio import render_json, resolution_document
from ncres.letterplace import PlaceWindow, build_C
from ncres.monores import (MonomialModule, annihilator_gens,
                           minimal_monomial_gens, monomial_ideal,
                           monomial_resolution)
from ncres.resolver import (ResolutionRequest, _encode_step, betti_summary,
                            monomial_degree_bound, resolve)
from ncres.syzygy import ModuleGB, minimalize_graded, syzygies_over_quotient

QQ = rationals()

REFERENCE_TABLE = {(0, 0): 1, (1, 0): 3, (2, 1): 8, (3, 1): 6,
                   (3, 2): 6, (4, 2): 8, (5, 3): 3, (6, 3): 1}
REFERENCE_LEVELS = {0: [0], 1: [1, 1, 1], 2: [3] * 8,
                    3: [4] * 6 + [5] * 6, 4: [6] * 8, 5: [8] * 3, 6: [9]}


@pytest.fixture(scope="module")
def flagship():
    mod = augmentation_module(nilpotent_enveloping())
    t0 = time.monotonic()
    res = resolve(ResolutionRequest(mod, degree_bound=9, length_bound=7,
                                    trust_finite=True))
    return mod, res, time.monotonic() - t0


@pytest.fixture(scope="module")
def monomial_runs():
    """25 randomized monomial instances resolved along both pipelines."""
    rng = random.Random(20260814)
    runs = []
    t0 = time.monotonic()
    while len(runs) < 25:
        n = rng.randint(1, 3)
        rels = [tuple(rng.randrange(n) for _ in range(rng.randint(2, 4)))
                for _ in range(rng.randint(0, 4))]
        ideal = monomial_ideal(rels)
        r = rng.randint(1, 2)
        shifts = tuple(rng.randint(0, 2) for _ in range(r))
        gens = []
        for _ in range(rng.randint(1, 3)):
            for _ in range(20):
                w = tuple(rng.randrange(n)
                          for _ in range(rng.randint(1, 3)))
                if not any(w[k:k + len(v)] == v for v in ideal.basis
                           for k in range(len(w))):
                    gens.append((rng.randrange(r), w))
                    break
        if not gens:
            continue
        L = 4
        base = max(shifts[c] + len(w) for c, w in gens)
        D = monomial_degree_bound(base, max(ideal.max_degree, 2), L)
        table = monomial_resolution(ideal, MonomialModule(shifts, gens), L)
        alg = AlgebraPresentation(QQ, tuple("abc"[:n]),
                                  [{v: QQ.one} for v in ideal.basis])
        mod = ModulePresentation(alg, shifts, [{g: QQ.one} for g in gens])
        res = resolve(ResolutionRequest(mod, degree_bound=D, length_bound=L))
        runs.append((ideal, shifts, gens, table, res))
    return runs, time.monotonic() - t0


def test_criterion_1_reference_resolution(flagship):
    mod, res, elapsed = flagship
    assert res.status == "certified"
    assert res.table.entries == REFERENCE_TABLE
    assert res.level_shifts == REFERENCE_LEVELS
    summary = betti_summary(res.table)
    assert summary["regularity"] == 3
    assert summary["global_dimension"] == 6
    assert elapsed <= 300
    print(f"\nacceptance 1 (reference table exact, regularity 3, "
          f"global dimension 6, {elapsed:.1f}s <= 300s): PASS")


def test_criterion_2_free_augmentation_block():
    for n in (2, 3):
        alg = AlgebraPresentation(QQ, tuple("xyz"[:n]), [])
        mod = augmentation_module(alg)
        res = resolve(ResolutionRequest(mod, degree_bound=4, length_bound=4))
        assert res.status == "certified"
        assert res.table.entries == {(0, 0): 1, (1, 0): n}
        assert res.steps[0].betti == {}
        assert res.steps[0].betti_block == {2: n * n}

        # element level: the commutative-side syzygy module is generated
        # by exactly the forced one-variable-per-generator block
        enc = _encode_step(alg, [0], mod.generators, 4, True)
        raw = syzygies_over_quotient(enc.ring, enc.gens_lp, [0])
        block = build_C(enc.win, QQ, enc.gen_degrees)
        assert all(len(b) == 1 for b in block)
        assert {(j, to_tuple(m)) for b in block for j, m in b} == {
            (j, ((k, 1),)) for j in range(n) for k in range(n)}
        kept = minimalize_graded(enc.ring, block + raw.generators,
                                 enc.gen_degrees)
        assert sorted(kept) == list(range(len(block)))
        gb = ModuleGB(enc.ring, enc.gen_degrees)
        for b in block:
            gb.add_generator(b)
        gb.complete_to(enc.win.width)
        assert all(not gb.normal_form(s) for s in raw.generators)
    print("\nacceptance 2 (free augmentation n=2,3: no first syzygies, "
          "raw syzygies = forced block exactly): PASS")


def test_criterion_3_dimension_equalities():
    t0 = time.monotonic()
    rng = random.Random(2026)
    equalities = 0
    for _ in range(25):
        alg = random_presentation(rng)
        mod = random_module(rng, alg)
        failures = check_dimension_equalities(mod, dmax=5)
        assert failures == [], (alg.names, alg.relations, failures)
        equalities += 2 * 5
    print(f"\nacceptance 3 (25 presentations, {equalities} dimension "
          f"equalities at d <= 5, {time.monotonic() - t0:.1f}s): PASS")


def test_criterion_4_cross_oracle_tables(monomial_runs):
    runs, elapsed = monomial_runs
    assert len(runs) >= 25
    for ideal, shifts, gens, table, res in runs:
        assert max(i for i, _ in table.entries) <= 4
        assert table.entries == res.table.entries, (ideal.basis, gens)
    assert elapsed <= 600
    print(f"\nacceptance 4 ({len(runs)} monomial instances, tables equal "
          f"entry-for-entry through homological degree 4, "
          f"{elapsed:.1f}s <= 600s): PASS")


def test_criterion_5_monomial_degree_bounds(monomial_runs):
    runs, _ = monomial_runs
    tables = 0
    colon_words = 0
    for ideal, shifts, gens, table, res in runs:
        d = max(ideal.max_degree, 1)
        minimal = minimal_monomial_gens(gens)
        delta = max(shifts[c] + len(w) for c, w in minimal)
        for (i, j) in table.entries:
            if i >= 1:
                assert i + j <= monomial_degree_bound(delta, d, i)
        tables += 1
        for c, w in minimal:
            for u in annihilator_gens(ideal, w):
                assert len(u) <= d - 1
                colon_words += 1
    print(f"\nacceptance 5 ({tables} monomial tables within the generic "
          f"degree bound, {colon_words} colon generators within the "
          f"one-step bound, zero violations): PASS")


def _assert_step_identity(n_letters, step, input_degrees):
    n_active = n_letters + (1 if step.homogenized else 0)
    expected = Counter()
    for dg in input_degrees:
        dc = dg - step.offset
        if dc > 0:
            expected[dc + 1 + step.offset] += n_active * dc
    assert step.betti_block == {k: v for k, v in expected.items()}
    combined = Counter(step.betti) + Counter(step.betti_block)
    assert step.betti_with_block == {k: v for k, v in combined.items()}


def test_criterion_6_betti_arithmetic_identity(flagship, monomial_runs):
    mod, res, _ = flagship
    steps = 0
    for step in res.steps:
        _assert_step_identity(mod.algebra.n_letters, step,
                              res.level_shifts[step.index])
        steps += 1
    runs, _ = monomial_runs
    for ideal, shifts, gens, table, mres in runs:
        for step in mres.steps:
            _assert_step_identity(mres.module.algebra.n_letters, step,
                                  mres.level_shifts[step.index])
            steps += 1
    assert steps >= 6
    print(f"\nacceptance 6 (block histogram and stripped/unstripped "
          f"identity exact in {steps} syzygy steps): PASS")


def _compose(field, syz, basis):
    acc = {}
    for (j, w), c in syz.items():
        for (comp, u), cu in basis[j].items():
            key = (comp, u + w)
            s = field.add(acc.get(key, field.zero), field.mul(cu, c))
            if s == field.zero:
                acc.pop(key, None)
            else:
                acc[key] = s
    return acc


def test_criterion_7_algebraic_self_checks(flagship):
    mod, res, _ = flagship
    alg = mod.algebra

    # every emitted syzygy composes to zero against its input basis
    bases = {1: res.minimal_input}
    for step in res.steps:
        bases[step.index + 1] = step.generators
    rings = {}
    composed = 0
    for step in res.steps:
        basis = bases[step.index]
        for syz in step.generators:
            polys = {}
            for (comp, w), c in _compose(QQ, syz, basis).items():
                polys.setdefault(comp, {})[w] = c
            for poly in polys.values():
                width = len(next(iter(poly)))
                assert width > 0, "degree-0 residue cannot lie in the ideal"
                if width not in rings:
                    win = PlaceWindow(alg.names, width)
                    rings[width] = (win, BuchbergerRing(
                        QQ, letterplace_ideal_gens(win, alg), cap=width))
                win, ring = rings[width]
                assert ring.normal_form(iota_poly(win, poly)) == {}
            composed += 1
    assert composed == 32

    # the two encoding laws on >= 100 randomized homogeneous instances
    koszul = AlgebraPresentation(
        QQ, ("x", "y"), [{(0, 1): QQ.one, (1, 0): QQ.neg(QQ.one)}])
    shifted = ModulePresentation(
        koszul, (0, 1),
        [{(0, (0, 1)): QQ.one, (1, (0,)): QQ.neg(QQ.one)},
         {(1, (1,)): QQ.one}])
    rng = random.Random(515)
    third = random_module(rng, random_presentation(rng, max_rel_deg=3))
    product_trials = 0
    substitution_trials = 0
    for m in (mod, shifted, third):
        assert check_encoding_product_law(m, rng, trials=40) == []
        product_trials += 40
        assert check_presentation_map_commutes(m, rng, trials=40) == []
        substitution_trials += 40
        assert check_round_trips(m, rng, trials=25) == []
    assert product_trials >= 100 and substitution_trials >= 100
    print(f"\nacceptance 7 ({composed} syzygies vanish against their "
          f"bases, product law x{product_trials}, substitution law "
          f"x{substitution_trials}, round trips: zero failures): PASS")


def test_criterion_8_determinism(flagship):
    mod, res, _ = flagship
    again = resolve(ResolutionRequest(mod, degree_bound=9, length_bound=7,
                                      trust_finite=True))
    assert render_json(resolution_document(res)) == \
        render_json(resolution_document(again))

    plain = resolve(ResolutionRequest(mod, degree_bound=9, length_bound=7,
                                      trust_finite=True, tshift=False))
    assert plain.table.entries == res.table.entries
    assert len(plain.steps) == len(res.steps)
    for a, b in zip(res.steps, plain.steps):
        assert a.degrees == b.degrees
        assert a.generators == b.generators
    print("\nacceptance 8 (byte-identical JSON, compression on/off gives "
          "identical tables and identical decoded bases): PASS")


def test_generator_bound_inequality(flagship):
    # leading-word comparison, checked as an inequality only
    mod, res, _ = flagship
    alg = mod.algebra
    lead = set()
    for d in range(2, 7):
        lead |= leading_word_basis(alg, d)
    ideal = monomial_ideal(sorted(lead))
    table = monomial_resolution(
        ideal, MonomialModule((0,), [(0, (k,)) for k in range(3)]), 3)
    compared = 0
    for (i, j), v in res.table.entries.items():
        if i <= 3:
            assert i + j <= 6
            assert table.entries.get((i, j), 0) >= v, (i, j)
            compared += 1
    assert compared >= 5
    print(f"\nacceptance extra (leading-word table dominates the exact "
          f"table on {compared} entries, homological degree <= 3): PASS")
