"""Degree balancing with a reserved last letter, and its inverse."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncres.field import rationals
from ncres.freealg import AlgebraPresentation, elem_degree
from ncres.homog import (NotInImage, eta_apply, eta_inverse, extend_algebra,
                         fresh_letter_name, homogenization_context)

QQ = rationals()
ONE = QQ.one
ALG = AlgebraPresentation(QQ, ("x", "y"), [])


def test_reserved_letter_goes_last_and_dodges_collisions():
    ext = extend_algebra(ALG)
    assert ext.names == ("x", "y", "t")
    assert ext.relations == []
    taken = AlgebraPresentation(QQ, ("t", "x"), [])
    assert extend_algebra(taken).names == ("t", "x", "t_")
    assert fresh_letter_name(("t", "t_")) == "t__"


def test_prefix_lengths_follow_component_shifts():
    ctx = homogenization_context(ALG, [0, 2, 1])
    t = ctx.t_letter
    elem = {(0, (0, 1)): ONE, (1, ()): ONE, (2, (1,)): ONE}
    out = eta_apply(ctx, elem)
    assert out == {(0, (0, 1)): ONE, (1, (t, t)): ONE, (2, (t, 1)): ONE}
    # every term now has the same plain word length
    assert elem_degree([0, 0, 0], out) == 2


def test_inverse_strips_prefix_and_rejects_strays():
    ctx = homogenization_context(ALG, [2])
    t = ctx.t_letter
    assert eta_inverse(ctx, {(0, (t, t, 0, 1)): ONE}) == {(0, (0, 1)): ONE}
    with pytest.raises(NotInImage):
        eta_inverse(ctx, {(0, (t, 0, 1)): ONE})  # prefix too short
    with pytest.raises(NotInImage):
        eta_inverse(ctx, {(0, (t, t, 0, t)): ONE})  # t beyond the prefix


words = st.lists(st.integers(min_value=0, max_value=1), min_size=0,
                 max_size=4).map(tuple)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 2), words), min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_round_trip_and_degree_balance(terms, delta):
    elem = {}
    for comp, w in terms:
        elem[(comp, w)] = ONE
    ctx = homogenization_context(ALG, delta)
    t = ctx.t_letter
    out = eta_apply(ctx, elem)
    assert eta_inverse(ctx, out) == elem
    for (comp, w), c in elem.items():
        assert out[(comp, (t,) * delta[comp] + w)] == c
