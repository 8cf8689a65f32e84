"""Word-to-places encoding: round trips, shifts, ideal and block builders."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (letterplace_ideal_gens, nilpotent_enveloping, to_mask,
                     to_tuple)
from ncres.field import rationals
from ncres.freealg import AlgebraPresentation
from ncres.homog import extend_algebra
from ncres.letterplace import (NotLetterplace, PlaceWindow, WindowTooSmall,
                               build_C, iota_inverse_elem, iota_inverse_word,
                               iota_module_elem, iota_poly, iota_word,
                               sigma_shift_mono)

QQ = rationals()
ONE = QQ.one
WIN = PlaceWindow(("x", "y"), 6)


def test_word_encoding_is_place_major():
    assert to_tuple(iota_word(WIN, (0, 1))) == ((0, 1), (3, 1))
    assert to_tuple(iota_word(WIN, (0, 1), shift=1)) == ((2, 1), (5, 1))
    assert iota_word(WIN, ()) == 0


def test_word_must_fit_the_window():
    with pytest.raises(WindowTooSmall):
        iota_word(WIN, (0,) * 7)
    with pytest.raises(WindowTooSmall):
        iota_word(WIN, (0, 1), shift=5)
    with pytest.raises(WindowTooSmall):
        iota_word(WIN, (0,), shift=-1)


def test_decode_rejects_non_words():
    with pytest.raises(NotLetterplace):
        iota_inverse_word(WIN, to_mask(((0, 1), (1, 1))), 0)  # x1*y1
    with pytest.raises(NotLetterplace):
        iota_inverse_word(WIN, to_mask(((0, 1), (4, 1))), 0)  # gap at place 2
    with pytest.raises(NotLetterplace):
        iota_inverse_word(WIN, to_mask(((0, 1),)), 1)  # run starts too early
    with pytest.raises(NotLetterplace):
        iota_inverse_word(WIN, to_mask(((4, 1), (7, 1))), 1)  # starts late


def test_place_shift_bounds():
    m = iota_word(WIN, (0, 1), 1)
    assert sigma_shift_mono(WIN, m, 2) == iota_word(WIN, (0, 1), 3)
    assert sigma_shift_mono(WIN, m, -1) == iota_word(WIN, (0, 1), 0)
    with pytest.raises(WindowTooSmall):
        sigma_shift_mono(WIN, m, 4)
    with pytest.raises(WindowTooSmall):
        sigma_shift_mono(WIN, m, -2)


words = st.lists(st.integers(min_value=0, max_value=1), min_size=0,
                 max_size=3).map(tuple)


@settings(max_examples=80)
@given(words, st.integers(0, 3))
def test_encode_decode_round_trip(w, shift):
    m = iota_word(WIN, w, shift)
    assert iota_inverse_word(WIN, m, shift) == w


@settings(max_examples=80)
@given(words, words, st.integers(0, 2))
def test_concatenation_becomes_shifted_product(u, v, shift):
    # the multiplicative law of the encoding, checked at monomial level
    if shift + len(u) + len(v) > WIN.width:
        return
    lhs = iota_word(WIN, u + v, shift)
    rhs = iota_word(WIN, u, shift) | iota_word(WIN, v, shift + len(u))
    assert lhs == rhs
    assert iota_word(WIN, v, shift + len(u)) == \
        sigma_shift_mono(WIN, iota_word(WIN, v), shift + len(u))


@settings(max_examples=40)
@given(st.lists(st.integers(0, 2), min_size=0, max_size=5).map(tuple),
       st.sampled_from([0, 20, 21, 995, 1000]))
def test_round_trip_past_bit_63_and_at_place_1000(w, shift):
    """Masks are unbounded ints: words at places 21 and on (past bit 63
    over three letters) and at place 1000 encode and decode exactly, and
    the encoding is the tuple encoding as a mask."""
    win = PlaceWindow(("x", "y", "z"), 1005)
    if shift + len(w) > win.width:
        return
    m = iota_word(win, w, shift)
    assert iota_inverse_word(win, m, shift) == w
    assert to_tuple(m) == tuple(((shift + k) * 3 + a, 1)
                                for k, a in enumerate(w))
    assert sigma_shift_mono(win, m, -shift) == iota_word(win, w)
    assert iota_inverse_elem(win, iota_module_elem(win, {(0, w): ONE},
                                                   [shift]), [shift]) == \
        {(0, w): ONE}


def _elem_times_poly(elem, f):
    out = {}
    for (comp, w), c in elem.items():
        for u, cu in f.items():
            key = (comp, w + u)
            s = QQ.add(out.get(key, QQ.zero), QQ.mul(c, cu))
            if s == QQ.zero:
                out.pop(key, None)
            else:
                out[key] = s
    return out


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 1), words), min_size=1, max_size=3),
       words, st.lists(st.integers(0, 2), min_size=2, max_size=2),
       st.integers(1, 3))
def test_module_encoding_respects_right_multiplication(terms, u, shifts, c):
    # all terms trimmed to a common degree so the element is homogeneous
    d = max((shifts[comp] + len(w) for comp, w in terms), default=0)
    elem = {}
    for comp, w in terms:
        need = d - shifts[comp] - len(w)
        if need < 0 or len(w) + need + len(u) + shifts[comp] > WIN.width:
            return
        elem[(comp, w + (0,) * need)] = ONE
    f = {u: QQ.from_int(c)}
    lhs = iota_module_elem(WIN, _elem_times_poly(elem, f), shifts)
    step = {sigma_shift_mono(WIN, m, d): cf
            for m, cf in iota_poly(WIN, f).items()}
    rhs = {}
    for (comp, m), ce in iota_module_elem(WIN, elem, shifts).items():
        for ms, cf in step.items():
            rhs[(comp, m | ms)] = QQ.mul(ce, cf)
    assert lhs == rhs


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 1), words), min_size=1, max_size=4),
       st.lists(st.integers(0, 2), min_size=2, max_size=2))
def test_module_round_trip(terms, shifts):
    elem = {(comp, w): ONE for comp, w in terms
            if shifts[comp] + len(w) <= WIN.width}
    if not elem:
        return
    enc = iota_module_elem(WIN, elem, shifts)
    assert iota_inverse_elem(WIN, enc, shifts) == elem


def test_presentation_substitution_commutes_with_encoding():
    # mapping basis elements to generators commutes with the encoding:
    # encode-then-substitute equals substitute-then-encode
    alg = nilpotent_enveloping()
    win = PlaceWindow(alg.names, 7)
    rng = random.Random(7)
    gens = [{(0, (0,)): ONE}, {(0, (1, 2)): ONE, (0, (2, 1)): QQ.neg(ONE)}]
    degrees = [1, 2]
    gens_lp = [iota_module_elem(win, g, [0]) for g in gens]
    for _ in range(25):
        d = rng.randint(2, 4)
        h = {}
        for j, dj in enumerate(degrees):
            w = tuple(rng.randrange(3) for _ in range(d - dj))
            h[(j, w)] = QQ.from_int(rng.choice([-2, -1, 1, 2]))
        image = {}
        for (j, w), c in h.items():
            for key, cg in _elem_times_poly(gens[j], {w: c}).items():
                s = QQ.add(image.get(key, QQ.zero), cg)
                if s == QQ.zero:
                    image.pop(key, None)
                else:
                    image[key] = s
        lhs = iota_module_elem(win, image, [0])
        rhs = {}
        for (j, m), c in iota_module_elem(win, h, degrees).items():
            for (comp, gm), cg in gens_lp[j].items():
                key = (comp, gm | m)
                s = QQ.add(rhs.get(key, QQ.zero), QQ.mul(c, cg))
                if s == QQ.zero:
                    rhs.pop(key, None)
                else:
                    rhs[key] = s
        assert lhs == rhs


def test_ideal_generator_counts():
    alg = nilpotent_enveloping()
    base = PlaceWindow(alg.names, 6)
    gens = letterplace_ideal_gens(base, alg)
    # 8 cubic relations at 4 shifts each, then 6 per-place letter pairs
    # over 6 places
    assert len(gens) == 8 * 4 + 6 * 6
    ext = extend_algebra(alg)
    wide = PlaceWindow(ext.names, 6)
    assert len(letterplace_ideal_gens(wide, ext)) == 8 * 4 + 10 * 6


def test_ideal_alphabet_must_match():
    alg = nilpotent_enveloping()
    with pytest.raises(ValueError):
        letterplace_ideal_gens(PlaceWindow(("x", "y"), 4), alg)


def test_forced_block_shape():
    # one element per generator, place up to its degree, letter
    out = build_C(WIN, QQ, [2, 1, 0])
    assert len(out) == 2 * 2 + 1 * 2 + 0
    assert {(0, to_mask(((0, 1),))): ONE} in out
    assert {(0, to_mask(((3, 1),))): ONE} in out  # y at place 2
    assert all(len(e) == 1 for e in out)
    with pytest.raises(WindowTooSmall):
        build_C(WIN, QQ, [7])
