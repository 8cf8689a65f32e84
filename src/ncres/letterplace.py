"""Letterplace encoding of noncommutative data into a commutative window.

A word x_{i1} ... x_{id} maps to the commutative monomial whose variable at
place k is the k-th letter; shifting a module component by s moves its
word to places s+1, s+2, ...  Variables are numbered place-major:
var = (place - 1) * L + letter for an active alphabet of L letters, so that
smaller variable index means earlier place, then earlier letter.  The
engine's degrevlex order reads smaller index as greater variable, matching
the place-major precedence.  A monomial is the int with bit var set for
each of its variables (engine docstring): place p is the block of L bits
from (p - 1) * L.

The place window has finite width D.  The encoded two-sided ideal is the
set of all place shifts of the encoded relations that fit in the window,
together with the monomials that put two letters at one place, which the
letterplace bases treat as zero (engine docstring).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .freealg import (AlgebraPresentation, NcModElem, NcPoly, Word,
                      homogeneous_degree)

LpMono = int  # bit var set for each variable
LpPoly = Dict[LpMono, object]
LpModElem = Dict[Tuple[int, LpMono], object]


class WindowTooSmall(ValueError):
    """Raised when data does not fit in the place window."""


class NotLetterplace(ValueError):
    """Raised when a monomial is not the image of a shifted word."""


class PlaceWindow(NamedTuple):
    names: Tuple[str, ...]  # active alphabet, in variable order
    width: int              # number of places

    @property
    def n_letters(self) -> int:
        return len(self.names)

    def var_str(self, v: int) -> str:
        place0, letter = divmod(v, len(self.names))
        return f"{self.names[letter]}{place0 + 1}"


def iota_word(win: PlaceWindow, w: Word, shift: int = 0) -> LpMono:
    """Encode a word starting at place shift+1."""
    if shift < 0 or shift + len(w) > win.width:
        raise WindowTooSmall(
            f"word of length {len(w)} at shift {shift} exceeds "
            f"window {win.width}")
    L, m = win.n_letters, 0
    for k, a in enumerate(w):
        m |= 1 << ((shift + k) * L + a)
    return m


def iota_poly(win: PlaceWindow, p: NcPoly, shift: int = 0) -> LpPoly:
    return {iota_word(win, w, shift): c for w, c in p.items()}


def iota_module_elem(win: PlaceWindow, elem: NcModElem,
                     shifts: Sequence[int]) -> LpModElem:
    out: LpModElem = {}
    for (comp, w), c in elem.items():
        out[(comp, iota_word(win, w, shifts[comp]))] = c
    return out


def sigma_shift_mono(win: PlaceWindow, m: LpMono, k: int) -> LpMono:
    L = win.n_letters
    if m and (k < 0 and m & ((1 << (-k * L)) - 1) or
              -(-m.bit_length() // L) + k > win.width):
        raise WindowTooSmall(f"shift by {k} leaves the window")
    return m << (k * L) if k >= 0 else m >> (-k * L)


def iota_inverse_word(win: PlaceWindow, m: LpMono, shift: int) -> Word:
    """Decode a monomial that should be a word at the given shift."""
    L = win.n_letters
    before = m & ((1 << (shift * L)) - 1)
    if before:
        raise NotLetterplace(
            f"variable {win.var_str(before.bit_length() - 1)} lies before "
            f"the place run at shift {shift}")
    block, letters, w = (1 << L) - 1, [], m >> (shift * L)
    while w:
        b = w & block
        if not b or b & (b - 1):
            raise NotLetterplace(f"place {shift + len(letters) + 1} breaks "
                                 f"the place run at shift {shift}")
        letters.append(b.bit_length() - 1)
        w >>= L
    return tuple(letters)


def iota_inverse_elem(win: PlaceWindow, elem: LpModElem,
                      shifts: Sequence[int]) -> NcModElem:
    out: NcModElem = {}
    for (comp, m), c in elem.items():
        out[(comp, iota_inverse_word(win, m, shifts[comp]))] = c
    return out


def letterplace_ideal_gens(win: PlaceWindow,
                           alg: AlgebraPresentation) -> List[LpPoly]:
    """All window shifts of the encoded relations.  The alphabet of `alg`
    must match the window."""
    if alg.names != win.names:
        raise ValueError("algebra alphabet does not match the window")
    gens: List[LpPoly] = []
    for f in alg.relations:
        d = homogeneous_degree(f)
        if d is None:
            raise ValueError("relations must be homogeneous")
        for shift in range(win.width - d + 1):
            gens.append(iota_poly(win, f, shift))
    return gens


def build_C(win: PlaceWindow, field, gen_degrees: Sequence[int]) -> List[LpModElem]:
    """The block of forced syzygies: component j times any variable at a
    place up to that generator's encoded degree.  These are syzygies of any
    homogeneous generator set with those degrees, because a variable below
    a word's first place collides with every letter of the word."""
    L = win.n_letters
    out: List[LpModElem] = []
    for j, d in enumerate(gen_degrees):
        if d > win.width:
            raise WindowTooSmall(
                f"generator degree {d} exceeds window {win.width}")
        for place0 in range(d):
            for letter in range(L):
                out.append({(j, 1 << (place0 * L + letter)): field.one})
    return out


_REV = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))  # byte -> reversed


class ColumnKeys(dict):
    """Int column keys for module terms (j, m) whose masks lie on the
    first d places: (j, m) is keyed j * 2^(8b) - rev(m), where rev
    reverses the bits of m over b = ceil(d * L / 8) bytes, as wide as
    the d places and no wider (a window can be far wider).  The dict
    memoizes rev, an involution, so it decodes keys as well; it lives
    for one degree.  Keys of component j lie in ((j - 1) * 2^(8b),
    j * 2^(8b)], so they order by component first; among masks of one
    bit count, they order as the ascending variable tuples do (argued in
    the resolver docstring), the order of a stair row's columns."""

    def __init__(self, degree: int, n_letters: int):
        super().__init__()
        self.width = -(-degree * n_letters // 8)
        self.bits = 8 * self.width

    def __missing__(self, m: int) -> int:
        r = self[m] = int.from_bytes(
            m.to_bytes(self.width, "little").translate(_REV), "big")
        return r

    def encode(self, elem: LpModElem) -> dict:
        bits = self.bits
        return {(j << bits) - self[m]: c for (j, m), c in elem.items()}

    def decode(self, row: dict) -> LpModElem:
        bits, out = self.bits, {}
        for key, c in row.items():
            j = -(-key >> bits)
            out[j, self[(j << bits) - key]] = c
        return out
