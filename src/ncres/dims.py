"""Graded dimension counts by exhaustive linear algebra.

These routines expand a whole graded component of an ideal or submodule as
a sparse matrix over the word basis and row-reduce it exactly.  Cost grows
like n^d, so they are only usable in low degree; that is their point: they
are an independent oracle for the letterplace pipeline, sharing none of its
code path beyond the field arithmetic.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, List, Optional, Sequence, Set

from .freealg import (AlgebraPresentation, ModulePresentation, NcPoly, Word,
                      homogeneous_degree)
from .linalg import _eliminate, rref


def words_of_degree(n: int, d: int) -> Iterable[Word]:
    """All words of length d over n letters, in lex order by letter index."""
    return product(range(n), repeat=d)


def _ideal_rows(alg: AlgebraPresentation, d: int) -> List[dict]:
    """Rows spanning the degree-d component of the two-sided ideal."""
    n = alg.n_letters
    rows = []
    for f in alg.relations:
        e = homogeneous_degree(f)
        if e is None or e > d:
            continue
        for left in range(d - e + 1):
            right = d - e - left
            for u in words_of_degree(n, left):
                for v in words_of_degree(n, right):
                    rows.append({u + w + v: c for w, c in f.items()})
    return rows


def ideal_pivots(alg: AlgebraPresentation, d: int) -> dict:
    """The degree-d ideal rows eliminated into a pivot map {word: row};
    its size is the dimension of the ideal's degree-d component."""
    return _eliminate(_ideal_rows(alg, d), alg.field)


def graded_component_dim(alg: AlgebraPresentation, d: int) -> int:
    """dim of the degree-d component of the presented algebra."""
    if d < 0:
        return 0
    if d == 0:
        return 1
    return alg.n_letters ** d - len(ideal_pivots(alg, d))


def ideal_component_dim(alg: AlgebraPresentation, d: int) -> int:
    return len(ideal_pivots(alg, d))


def module_component_dim(mod: ModulePresentation, d: int) -> int:
    """dim of the degree-d component of the submodule spanned by the
    generators inside the free module (coefficients taken in the algebra,
    i.e. ideal multiples count as zero)."""
    return module_component_dim_from(
        mod, d, lambda e: ideal_pivots(mod.algebra, e))


def module_component_dim_from(mod: ModulePresentation, d: int,
                              ideal_at: Callable[[int], dict]) -> int:
    """module_component_dim(mod, d), where ideal_at(e) returns
    ideal_pivots(mod.algebra, e).  Component comp's ideal rows are those of
    degree d - shifts[comp], tagged by comp, so one pivot map per degree
    serves every component, and a caller that keeps them eliminates each
    degree once for all its counts."""
    alg = mod.algebra
    n = alg.n_letters
    pivots = {(comp, piv): {(comp, w): c for w, c in row.items()}
              for comp, s in enumerate(mod.shifts)
              for piv, row in ideal_at(d - s).items()}
    gen_rows = []
    for g in mod.generators:
        degs = {len(w) + mod.shifts[comp] for comp, w in g}
        if len(degs) != 1:
            raise ValueError("module generator is not homogeneous")
        e = degs.pop()
        if e > d:
            continue
        for v in words_of_degree(n, d - e):
            gen_rows.append({(comp, w + v): c for (comp, w), c in g.items()})
    # the pivots the generator rows add to the ideal rows' pivot map
    base = len(pivots)
    return len(_eliminate(gen_rows, alg.field, basis=pivots)) - base


def leading_word_basis(alg: AlgebraPresentation, d: int,
                       precedence: Optional[Sequence[int]] = None) -> Set[Word]:
    """Leading words of the degree-d ideal component under graded lex.

    precedence lists letter indices from greatest to least; default is the
    input order of the alphabet.  The result has exactly
    n^d - graded_component_dim(alg, d) elements.
    """
    n = alg.n_letters
    if precedence is None:
        precedence = range(n)
    pos = {letter: k for k, letter in enumerate(precedence)}
    if len(pos) != n:
        raise ValueError("precedence must list every letter once")

    def col_key(w: Word):
        return tuple(pos[a] for a in w)

    _, pivots = rref(_ideal_rows(alg, d), alg.field, col_key)
    return set(pivots)
