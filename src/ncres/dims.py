"""Graded dimension counts by exhaustive linear algebra.

These routines expand a whole graded component of an ideal or submodule as
a sparse matrix over the word basis and row-reduce it exactly.  Cost grows
like n^d, so they are only usable in low degree; that is their point: they
are an independent oracle for the letterplace pipeline, sharing none of its
code path beyond the field arithmetic.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, List, Optional, Sequence, Set

from .freealg import (AlgebraPresentation, ModulePresentation, NcPoly, Word,
                      homogeneous_degree)
from .linalg import _eliminate, rank, rref


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


def graded_component_dim(alg: AlgebraPresentation, d: int) -> int:
    """dim of the degree-d component of the presented algebra."""
    if d < 0:
        return 0
    if d == 0:
        return 1
    n = alg.n_letters
    return n ** d - rank(_ideal_rows(alg, d), alg.field)


def ideal_component_dim(alg: AlgebraPresentation, d: int) -> int:
    return rank(_ideal_rows(alg, d), alg.field)


def module_component_dim(mod: ModulePresentation, d: int) -> int:
    """dim of the degree-d component of the submodule spanned by the
    generators inside the free module (coefficients taken in the algebra,
    i.e. ideal multiples count as zero)."""
    alg = mod.algebra
    n = alg.n_letters
    ideal_rows = []
    for comp, s in enumerate(mod.shifts):
        for row in _ideal_rows(alg, d - s):
            ideal_rows.append({(comp, w): c for w, c in row.items()})
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
    key = lambda c: c
    pivots = _eliminate(ideal_rows, alg.field, key)
    base = len(pivots)
    return len(_eliminate(gen_rows, alg.field, key, pivots)) - base


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
