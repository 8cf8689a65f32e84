"""Free associative algebras, graded presentations, and module elements.

Words over a finite alphabet are tuples of letter indices; a noncommutative
polynomial is a dict mapping words to nonzero field elements; an element of
a free right module is a dict mapping (component, word) pairs to nonzero
field elements, read as sum_i e_i * f_i with the component's basis vector
on the left.

A graded algebra presentation is an alphabet (all letters in degree 1)
together with homogeneous relations of degree >= 2; a module presentation
adds component shifts and homogeneous generators of a submodule of the free
right module with those shifts.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .field import Field

Word = Tuple[int, ...]
NcPoly = Dict[Word, object]
NcModElem = Dict[Tuple[int, Word], object]


class AlgebraPresentation(NamedTuple):
    field: Field
    names: Tuple[str, ...]
    relations: Sequence[NcPoly] = ()

    @property
    def n_letters(self) -> int:
        return len(self.names)


class ModulePresentation(NamedTuple):
    algebra: AlgebraPresentation
    shifts: Tuple[int, ...]
    generators: Sequence[NcModElem] = ()

    @property
    def rank(self) -> int:
        return len(self.shifts)


def homogeneous_degree(p: NcPoly) -> Optional[int]:
    """Degree of a homogeneous polynomial, None if zero or inhomogeneous."""
    degs = {len(w) for w in p}
    return degs.pop() if len(degs) == 1 else None


def elem_degree(shifts, elem: NcModElem) -> Optional[int]:
    degs = {len(w) + shifts[comp] for comp, w in elem}
    return degs.pop() if len(degs) == 1 else None


def word_contains(w: Word, u: Word) -> bool:
    """True if u occurs as a contiguous subword of w."""
    lu = len(u)
    if lu == 0:
        return True
    return any(w[i:i + lu] == u for i in range(len(w) - lu + 1))


def validate_presentation(obj) -> List[str]:
    """Collect human-readable diagnostics; empty list means well-formed.

    Accepts an AlgebraPresentation or a ModulePresentation.  Problems are
    reported, not raised, so a CLI can show all of them at once.
    """
    if isinstance(obj, ModulePresentation):
        issues = validate_presentation(obj.algebra)
        n = obj.algebra.n_letters
        for i, s in enumerate(obj.shifts):
            if s < 0:
                issues.append(f"shift of component {i + 1} is negative ({s})")
        for j, g in enumerate(obj.generators):
            if not g:
                issues.append(f"module generator {j + 1} is zero")
                continue
            for (comp, w), c in g.items():
                if not 0 <= comp < obj.rank:
                    issues.append(
                        f"module generator {j + 1} uses component {comp + 1} "
                        f"outside 1..{obj.rank}")
                if any(not 0 <= a < n for a in w):
                    issues.append(
                        f"module generator {j + 1} uses an unknown letter")
                if c == obj.algebra.field.zero:
                    issues.append(
                        f"module generator {j + 1} stores a zero coefficient")
            if elem_degree(obj.shifts, g) is None:
                issues.append(f"module generator {j + 1} is not homogeneous")
        return issues

    alg: AlgebraPresentation = obj
    issues: List[str] = []
    if len(set(alg.names)) != len(alg.names):
        issues.append("letter names are not distinct")
    n = alg.n_letters
    for k, f in enumerate(alg.relations):
        if not f:
            issues.append(f"relation {k + 1} is zero")
            continue
        for w, c in f.items():
            if any(not 0 <= a < n for a in w):
                issues.append(f"relation {k + 1} uses an unknown letter")
            if c == alg.field.zero:
                issues.append(f"relation {k + 1} stores a zero coefficient")
        d = homogeneous_degree(f)
        if d is None:
            issues.append(f"relation {k + 1} is not homogeneous")
        elif d < 2:
            issues.append(f"relation {k + 1} has degree {d} < 2")
    return issues

