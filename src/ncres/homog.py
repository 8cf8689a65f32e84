"""Component homogenization of graded free-module data.

A module element living in components with shifts delta_i is turned into an
element over an algebra with one fresh letter t (always added as the last
letter) by left-multiplying each component-i coefficient with t^delta_i.
Every component then lands in shift zero and all generators of equal
degree become comparable.

The inverse direction strips the forced t-prefix and refuses anything that
is not literally in the image.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

from .freealg import AlgebraPresentation, NcModElem


class NotInImage(ValueError):
    """Raised when an element is not in the image of the homogenization map."""


class HomogenizationContext(NamedTuple):
    base: AlgebraPresentation
    extended: AlgebraPresentation
    delta: Tuple[int, ...]

    @property
    def t_letter(self) -> int:
        return self.base.n_letters


def fresh_letter_name(names: Sequence[str]) -> str:
    name = "t"
    while name in names:
        name += "_"
    return name


def extend_algebra(alg: AlgebraPresentation) -> AlgebraPresentation:
    """The same presentation over one extra (relation-free) last letter."""
    return AlgebraPresentation(
        alg.field, alg.names + (fresh_letter_name(alg.names),),
        list(alg.relations))


def homogenization_context(alg: AlgebraPresentation,
                           delta: Sequence[int]) -> HomogenizationContext:
    if any(d < 0 for d in delta):
        raise ValueError(f"negative component shift in {tuple(delta)}")
    return HomogenizationContext(alg, extend_algebra(alg), tuple(delta))


def eta_apply(ctx: HomogenizationContext, elem: NcModElem) -> NcModElem:
    t = ctx.t_letter
    out: NcModElem = {}
    for (comp, w), c in elem.items():
        prefix = (t,) * ctx.delta[comp]
        out[(comp, prefix + w)] = c
    return out


def eta_inverse(ctx: HomogenizationContext, elem: NcModElem) -> NcModElem:
    t = ctx.t_letter
    out: NcModElem = {}
    for (comp, w), c in elem.items():
        k = ctx.delta[comp]
        if w[:k] != (t,) * k:
            raise NotInImage(
                f"component {comp + 1} term lacks the t^{k} prefix")
        rest = w[k:]
        if t in rest:
            raise NotInImage(
                f"component {comp + 1} term has t beyond the forced prefix")
        out[(comp, rest)] = c
    return out

