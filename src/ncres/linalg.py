"""Sparse exact Gaussian elimination.

Rows are dicts mapping a hashable column key to a nonzero field element.
Column keys must be totally ordered by the supplied sort key col_key.
col_key=None, the default, orders them as they compare: it is handed
straight to min and sorted, so natural order costs no key call.  The
row-space RREF is unique, so any routine built on it is independent of
the input row order; we rely on that for canonical generator
representatives.
"""

from __future__ import annotations


def _eliminate(rows, field, col_key=None, basis=None):
    """Forward-eliminate rows into a pivot map {pivot_col: row}, a new one
    or `basis` (extended in place; its rows keep their pivots).

    Each stored row is scaled monic on its pivot, and the pivot of every
    stored row is the minimal (by col_key) column of that row.
    """
    sub, mul, inv = field.sub, field.mul, field.inv
    zero = field.zero
    if basis is None:
        basis = {}
    for row in rows:
        work = dict(row)
        while work:
            piv = min(work, key=col_key)
            red = basis.get(piv)
            if red is None:
                c = inv(work[piv])
                if c != field.one:
                    work = {k: mul(c, v) for k, v in work.items()}
                basis[piv] = work
                break
            c = work[piv]
            for k, v in red.items():
                w = sub(work.get(k, zero), mul(c, v))
                if w == zero:
                    work.pop(k, None)
                else:
                    work[k] = w
    return basis


def rref(rows, field, col_key=None):
    """Return (reduced_rows, pivot_cols) for the span of `rows`.

    reduced_rows are fully back-substituted, monic, and sorted by pivot
    column; pivot_cols is the matching list of pivots.  This is the unique
    RREF of the row space.
    """
    basis = _eliminate(rows, field, col_key)
    sub, mul = field.sub, field.mul
    zero = field.zero
    pivots = sorted(basis, key=col_key)
    for i in range(len(pivots) - 1, -1, -1):
        piv = pivots[i]
        row = basis[piv]
        for j in range(i):
            upper = basis[pivots[j]]
            c = upper.get(piv)
            if c is None:
                continue
            for k, v in row.items():
                w = sub(upper.get(k, zero), mul(c, v))
                if w == zero:
                    upper.pop(k, None)
                else:
                    upper[k] = w
    return [basis[p] for p in pivots], pivots
