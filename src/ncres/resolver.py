"""Minimal graded free right resolutions, one syzygy step at a time.

A step takes the current minimal generators g_1..g_s of a submodule of
(+)_i A(-delta_i), makes every component shift zero by prefixing the
reserved letter t^(delta_i - m), where the offset m is the smallest shift
(0 without compression), encodes words into the one-letter-per-place
window narrowed by m, takes the truncated Groebner basis of the encoded
quotient ring, computes syzygies of the encoded family over that ring,
strips the forced block coming from the encoding, and decodes the
survivors back over the original algebra.  The finished ring basis is
the only thing the module layer (syzygy.py) is told about the algebra.

The ring basis is built once per resolution: resolve() builds the
letterplace basis of the relations over the original alphabet at step
1's window (under an explicit degree bound no later one is wider), from
the relations at place 0, and stores only its anchored elements, whose
window shifts stay implicit (RingGB).  The input minimalization and
every step view that basis in their own window and alphabet
(RingGB.restrict, exact by the arguments in the engine docstring), at a
cost in the anchored elements, not the window; a wider heuristic window
widens the basis in place.

Decoded output is canonical: within each degree the emitted generators
are the reduced-row-echelon basis of the stair subspace (syzygies whose
coefficients are plain reserved-letter-free words) modulo the part
already generated by the forced block and lower-degree output.  Both
spaces are intrinsic to the module data, so the result is independent of
whether the window was narrowed.

The step's one module Groebner basis is the collecting one
(syzygies_over_quotient); canonicalization is row elimination on top of
it.  That basis never holds the forced block: over the letterplace ring
it forms no pair whose lcm holds a variable below its component's shift,
so its raw syzygies generate the syzygy module modulo the block (syzygy
docstring), and the block is built only to be checked and counted.  The
raw syzygies also supply each degree's stair subspace V_d: it is spanned
by the rows NF(r * u), for every raw syzygy r of degree at most d and
every standard plain word u on places deg r .. d - 1.  The syzygy module
is graded by places, and by the places that hold the reserved letter
past a component's prefix: the ring's relations are plain, and an
encoded generator holds the letter exactly on its prefix.  The stair
subspace is its part that covers places 0 .. d - 1 once each and holds
no reserved letter past a prefix.  The raw syzygies generate the module
modulo the forced block, each is homogeneous and plain (an S-pair's
cofactors divide leads of one component, whose reserved letters lie on
its prefix), and no block element covers each place once (each holds a
doubled place); so that part is the sum of r times the plain words on
the places r leaves free.  Its RREF, under the column order below, is
unique, so it does not depend on which rows span it.

V_d is built from V_{d-1}, one degree at a time from the lowest raw
degree up (the degree-by-degree strategy of La Scala & Stillman).  A
standard plain word of length k >= 1 is u'x with u' standard (a word
with a reducible prefix is reducible) and x one letter at place d - 1,
and NF(r * u'x) = NF(NF(r * u') * x).  So U_d, the span of NF(v * x)
over the rows v of V_{d-1} and the plain letters x at place d - 1, is
the part of V_d that the raw syzygies of lower degree generate, and V_d
is U_d plus the raw syzygies of degree d, already in normal form
(syzygy docstring).  A degree whose raw syzygies lie in U_d needs no
generators.  Otherwise the kept rows are the RREF rows of V_d whose
pivot is no pivot of U_d, emitted in ascending pivot order: a vector of
V_d leads at the pivot of the first RREF row it uses, so row v_i lies in
U_d plus the rows after it exactly when some vector of U_d leads at its
pivot, and the kept rows are a basis of V_d modulo U_d.  So V_d is U_d
plus the kept rows, and by induction U_d is the part of V_d that the
output of lower degree generates.  Every term (j, mono) of a kept row
must lie on places deg(g_j) on, so each product g_j * mono is
letterplace and holds no collision, and every kept row must evaluate to
zero against the encoded generators.  By induction every row of V_d, and
so every raw syzygy, is a combination of checked rows times words.  So
the emitted generators and the block (certified by its places,
_check_forced_block) span the syzygy module through the window and are
independent modulo lower degrees, and their count per degree is the
Betti number.

The column order is by component, then by the ascending variable tuple
of the monomial; the rows carry it as one int per column (ColumnKeys).
Within one component at degree d every monomial has the same bit count,
d minus the component's degree.  Of two such masks, the one that holds
the lowest bit where they differ has the smaller variable tuple: the
tuples agree up to that variable, and there one holds it while the
other holds a larger one, since it has as many variables left.  Reversed
over b bytes, that lowest differing bit becomes the highest one, so the
mask with the smaller tuple has the larger reversal, and j * 2^(8b) minus
the reversal orders the columns as the tuples do.  b = ceil(d * L / 8)
follows the degree, as the masks lie on places 0 .. d - 1; it does not
follow the window, which can be far wider.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import and_
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .engine import RingGB, _covered, _starts
from .freealg import (AlgebraPresentation, ModulePresentation, NcModElem,
                      elem_degree, homogeneous_degree, validate_presentation)
from .homog import HomogenizationContext, eta_apply, homogenization_context
from .letterplace import (ColumnKeys, LpModElem, PlaceWindow,
                          WindowTooSmall, build_C, iota_inverse_word,
                          iota_module_elem, letterplace_ideal_gens)
from .linalg import _eliminate, rref
from .syzygy import minimalize_graded, syzygies_over_quotient

STAIR_GUARD = 10_000
WINDOW_GUARD = 1_000_000  # places: keys and masks are as wide as a window
BLOCK_GUARD = 50_000  # forced-block elements: build_C is quadratic in them


class ResourceLimit(RuntimeError):
    """The instance needs more than a fixed size guard allows."""


def monomial_degree_bound(max_gen_degree: int, max_rel_degree: int,
                          index: int) -> int:
    """Largest degree where level-`index` syzygy generators can live over
    a monomial presentation (level 1 being the module's own generators)."""
    if index < 1:
        raise ValueError("homological index starts at 1")
    return max_gen_degree + (index - 1) * (max_rel_degree - 1)


class _StepEncoding(NamedTuple):
    """Everything the commutative side needs for one syzygy step."""
    ctx: Optional[HomogenizationContext]
    win: PlaceWindow
    offset: int
    gens_lp: List[LpModElem]
    gen_degrees: List[int]  # encoded degrees, lowered by the offset
    ring: RingGB
    n_base: int  # letters of the original algebra (reserved one excluded)


def _offset(ambient_shifts: Sequence[int], use_tshift: bool) -> int:
    """The offset m a step's window narrows by: the smallest shift when
    compression is on and some shift is positive, else 0."""
    if use_tshift and any(s > 0 for s in ambient_shifts):
        return max(min(ambient_shifts), 0)
    return 0


def _ring_basis(alg: AlgebraPresentation, width: int) -> RingGB:
    """The letterplace basis of alg's relations over `width` places and
    alg's own alphabet: the one basis every step's ring is restricted
    from (RingGB.restrict).  It is built from the generators at place 0,
    read off the encoding of a window as wide as the widest relation; a
    relation wider than `width` waits until the basis widens.  The window
    shifts of its elements are the basis Buchberger computes from every
    generator of the window.  It is never a step's ring itself, so no
    step's lookups or monomial normal forms outlive the step."""
    top = max((homogeneous_degree(r) for r in alg.relations), default=0)
    win = PlaceWindow(alg.names, top)
    place0 = (1 << win.n_letters) - 1
    gens = [g for g in letterplace_ideal_gens(win, alg)
            if all(not m or m & place0 for m in g)]
    return RingGB(alg.field, gens, cap=width, n_letters=win.n_letters)


def _encode_step(alg: AlgebraPresentation, ambient_shifts: Sequence[int],
                 gens: Sequence[NcModElem], window: int,
                 use_tshift: bool,
                 base: Optional[RingGB] = None) -> _StepEncoding:
    """Homogenize relative to the offset m: component i gets the prefix
    t^(delta_i - m) and the window narrows by m.  The ring is `base`
    (a _ring_basis, widened to the narrowed window if it is narrower)
    restricted to the window and the active alphabet; without a base, one
    is built at the window's width."""
    degs = []
    for g in gens:
        d = elem_degree(ambient_shifts, g)
        if d is None:
            raise ValueError("generators must be homogeneous")
        degs.append(d)
    if degs and max(degs) > window:
        raise WindowTooSmall(
            f"generator degree {max(degs)} exceeds degree bound {window}")
    need_t = any(s > 0 for s in ambient_shifts)
    m = _offset(ambient_shifts, use_tshift)
    size = (alg.n_letters + need_t) * sum(d - m for d in degs)
    if size > BLOCK_GUARD:
        raise ResourceLimit(f"a forced block of {size} elements is above "
                            f"the block guard of {BLOCK_GUARD}")
    if need_t:
        ctx: Optional[HomogenizationContext] = homogenization_context(
            alg, [s - m for s in ambient_shifts])
        hgens = [eta_apply(ctx, g) for g in gens]
        active = ctx.extended
    else:
        ctx = None
        hgens = [dict(g) for g in gens]
        active = alg
    win = PlaceWindow(active.names, window - m)
    zero_shifts = [0] * len(ambient_shifts)
    lp = [iota_module_elem(win, g, zero_shifts) for g in hgens]
    if base is None:
        base = _ring_basis(alg, win.width)
    ring = base.restrict(win.width, win.n_letters)
    return _StepEncoding(ctx, win, m, lp, [d - m for d in degs], ring,
                         alg.n_letters)


def _check_forced_block(enc: _StepEncoding,
                        block: Sequence[LpModElem]) -> Counter:
    """The block's degree histogram, once each element is checked to be
    new and a syzygy, and the histogram to be L * deg(g_j) elements in
    degree deg(g_j) + 1 for each generator g_j.  Each element must be
    e_j * x, x one variable at a place all terms of g_j cover (one mask
    per generator): its products with g_j are place collisions, zero.
    Elements are keyed (j, variable index), no block-wide mask."""
    L = enc.win.n_letters
    starts = _starts(max(gm for g in enc.gens_lp for _, gm in g), L)
    tops = [reduce(and_, (_covered(gm, L, starts) for _, gm in g))
            for g in enc.gens_lp]
    places = [(t << 1) - (t >> L - 1) for t in tops]  # top bits to blocks
    seen, hist = set(), Counter()
    for elem in block:
        j, x = next(iter(elem))
        if len(elem) != 1 or x.bit_count() != 1 or not x & places[j]:
            raise AssertionError(
                "forced-block element is not a syzygy; encoding broken")
        seen.add((j, x.bit_length()))
        hist[enc.gen_degrees[j] + 1] += 1
    if len(seen) != len(block):
        raise AssertionError("forced-block element is redundant")
    expected: Counter = Counter()
    for dj in enc.gen_degrees:
        expected[dj + 1] += L * dj
    if hist != +expected:
        raise AssertionError("forced-block degree histogram is off")
    return hist


def _nf_sum(ring: RingGB, terms, cols: ColumnKeys) -> dict:
    """Sum of c * NF(m) in component comp over the (comp, m, c) of
    `terms`, under the column keys `cols`.  Normal forms are linear, so
    the sum adds the terms' monomial normal forms, which the ring
    memoizes: each distinct monomial is reduced once per step.  A
    monomial in its own normal form is standard, and that normal form is
    the monomial itself, so its coefficient is taken as it is."""
    add, mul, zero = ring.field.add, ring.field.mul, ring.field.zero
    bits = cols.bits
    out: dict = {}
    for comp, m, c in terms:
        nf = ring.mono_normal_form(m)
        base = comp << bits
        for n, x in ((m, c),) if m in nf else \
                [(n, mul(c, a)) for n, a in nf.items()]:
            key = base - cols[n]
            if key not in out:
                out[key] = x
            else:
                s = add(out[key], x)
                if s == zero:
                    del out[key]
                else:
                    out[key] = s
    return out


def _stair_space(enc: _StepEncoding, below: Sequence[LpModElem],
                 raw_rows: List[dict], d: int,
                 cols: ColumnKeys) -> Tuple[dict, List[dict]]:
    """(U_d, V_d) at degree d (module docstring), rows under the degree's
    column keys `cols`.  U_d is the pivot map {pivot: row} of an echelon
    basis of NF(v * x), over the rows v of V_{d-1} (`below`, keyed
    (j, m)) and the plain letters x at place d - 1.  V_d is U_d's rows
    when the raw rows of degree d lie in U_d, else the RREF rows, in
    ascending pivot order, of U_d and the raw rows."""
    field, L = enc.ring.field, enc.win.n_letters
    letters = [1 << (d - 1) * L + a for a in range(enc.n_base)]
    if len(below) * len(letters) > STAIR_GUARD:
        raise ResourceLimit(
            f"more than {STAIR_GUARD} stair rows at degree {d}; "
            f"this instance is out of desk scale")
    # v's terms end at place d - 1, where x lies
    lower = _eliminate([_nf_sum(enc.ring, ((j, m | x, c)
                                           for (j, m), c in v.items()), cols)
                        for v in below for x in letters], field)
    if _spans(lower, raw_rows, field):
        return lower, list(lower.values())
    return lower, rref(list(lower.values()) + raw_rows, field)[0]


def _check_syzygies(enc: _StepEncoding, elems: Sequence[LpModElem],
                    message: str) -> None:
    """Every element of `elems` must lie on places deg(g_j) on in each
    term (j, mono) and evaluate to zero against the encoded generators,
    or AssertionError(message) is raised: in each component, the sum of
    c * g_j * mono over its terms must reduce to zero modulo the ring.
    Each product gm | mono then joins disjoint places, so it holds no
    collision, as the ring's reducer lookup requires.  The sum is formed
    before it is reduced, so its cancellations cost nothing."""
    ring, L = enc.ring, enc.win.n_letters
    add, mul, zero = ring.field.add, ring.field.mul, ring.field.zero
    floors = [1 << d * L for d in enc.gen_degrees]
    for elem in elems:
        image: Dict[int, dict] = {}
        for (j, mono), c in elem.items():
            if 0 < mono & -mono < floors[j]:  # a variable below deg(g_j)
                raise AssertionError(message)
            for (comp, gm), cg in enc.gens_lp[j].items():
                m = gm | mono
                poly = image.setdefault(comp, {})
                s = add(poly.get(m, zero), mul(c, cg))
                if s == zero:
                    poly.pop(m, None)
                else:
                    poly[m] = s
        if any(ring._reduce_full(p) for p in image.values()):
            raise AssertionError(message)


def _spans(pivots: dict, rows: Sequence[dict], field) -> bool:
    """Whether every row lies in the span of the echelon rows `pivots`,
    a pivot map {pivot: row} as linalg._eliminate keeps them, all rows
    under int column keys."""
    return len(_eliminate(rows, field, basis=dict(pivots))) == len(pivots)


class ResolutionStep(NamedTuple):
    index: int
    ambient_shifts: List[int]
    window: int
    offset: int
    homogenized: bool
    generators: List[NcModElem]
    degrees: List[int]
    betti: Dict[int, int]
    betti_with_block: Dict[int, int]
    betti_block: Dict[int, int]


def syzygy_step(alg: AlgebraPresentation, ambient_shifts: Sequence[int],
                gens: Sequence[NcModElem], window: int,
                use_tshift: bool = True, index: int = 1,
                base: Optional[RingGB] = None) -> ResolutionStep:
    """One level of the resolution: the minimal syzygies (complete through
    `window`) of a minimal homogeneous generating family.  The ring is
    restricted from `base` as in _encode_step."""
    field = alg.field
    enc = _encode_step(alg, ambient_shifts, gens, window, use_tshift, base)
    raw = syzygies_over_quotient(enc.ring, enc.gens_lp,
                                 [0] * len(ambient_shifts))
    hist_block = _check_forced_block(
        enc, build_C(enc.win, field, enc.gen_degrees))

    raw_at: Dict[int, List[LpModElem]] = {}
    for e, d in zip(raw.generators, raw.degrees):
        raw_at.setdefault(d, []).append(e)
    below: List[LpModElem] = []  # V_{d-1}
    hist_rest: Counter = Counter()
    out_elems: List[NcModElem] = []
    out_degrees: List[int] = []
    for d in range(min(raw_at, default=0), max(raw_at, default=-1) + 1):
        cols = ColumnKeys(d, enc.win.n_letters)
        lower, stair = _stair_space(
            enc, below, [cols.encode(e) for e in raw_at.get(d, ())], d, cols)
        below = [cols.decode(row) for row in stair]
        fresh = [v for row, v in zip(stair, below) if min(row) not in lower]
        _check_syzygies(enc, fresh, f"stair row at degree {d} is not a syzygy")
        for lp_elem in fresh:  # ascending pivots
            nc = {(j, iota_inverse_word(enc.win, mono, enc.gen_degrees[j])): c
                  for (j, mono), c in lp_elem.items()}
            out_elems.append(nc)
            out_degrees.append(d + enc.offset)
        hist_rest[d] = len(fresh)

    restore = lambda h: {d + enc.offset: v for d, v in h.items() if v}
    return ResolutionStep(
        index=index,
        ambient_shifts=list(ambient_shifts),
        window=window,
        offset=enc.offset,
        homogenized=enc.ctx is not None,
        generators=out_elems,
        degrees=out_degrees,
        betti=restore(hist_rest),
        betti_with_block=restore(hist_block + hist_rest),
        betti_block=restore(hist_block),
    )


class ResolutionRequest(NamedTuple):
    module: ModulePresentation
    degree_bound: Optional[int] = None
    length_bound: int = 7
    tshift: bool = True
    trust_finite: bool = False


class BettiTable(NamedTuple):
    entries: Dict[Tuple[int, int], int]  # (homological, internal - homological)
    truncated: bool
    truncation_degree: Optional[int] = None


class Resolution(NamedTuple):
    module: ModulePresentation
    minimal_input: List[NcModElem]
    steps: List[ResolutionStep]
    table: BettiTable
    status: str
    level_shifts: Dict[int, List[int]]
    windows: List[int]
    window_policy: str  # "explicit" | "heuristic"


def _is_monomial(module: ModulePresentation) -> bool:
    alg = module.algebra
    return all(len(r) == 1 for r in alg.relations) and \
        all(len(g) == 1 for g in module.generators)


def resolve(req: ResolutionRequest) -> Resolution:
    module = req.module
    alg = module.algebra
    problems = validate_presentation(module)
    if problems:
        raise ValueError("; ".join(problems))
    if req.length_bound < 1:
        raise ValueError("length bound must be at least 1")

    shifts = list(module.shifts)
    gens = [dict(g) for g in module.generators]
    degs = [elem_degree(shifts, g) for g in gens]
    rel_deg = max((homogeneous_degree(r) for r in alg.relations), default=0)

    def step_window(level_degs: List[int]) -> int:
        if req.degree_bound is not None:
            return req.degree_bound
        return max(level_degs) + max(rel_deg, 2) - 1

    if (req.degree_bound or 0) > WINDOW_GUARD:
        raise ResourceLimit(f"degree bound {req.degree_bound} is above the "
                            f"window guard of {WINDOW_GUARD} places")
    if gens:
        top = max(degs)
        if req.degree_bound is not None and req.degree_bound < top:
            raise ValueError(
                f"degree bound {req.degree_bound} below generator degree "
                f"{top}")
        # the one ring basis of the resolution, at step 1's window
        window = step_window(degs) if req.length_bound > 1 else max(top, 1)
        base = _ring_basis(alg, window - _offset(shifts, req.tshift))
        enc0 = _encode_step(alg, shifts, gens, max(top, 1), req.tshift, base)
        kept = minimalize_graded(enc0.ring, enc0.gens_lp, [0] * len(shifts))
        gens = [gens[i] for i in kept]
        degs = [degs[i] for i in kept]

    level_shifts: Dict[int, List[int]] = {0: sorted(shifts)}
    if gens:
        level_shifts[1] = sorted(degs)

    steps: List[ResolutionStep] = []
    windows: List[int] = []
    basis, basis_ambient, basis_degs = gens, shifts, degs
    terminated = not gens
    for i in range(1, req.length_bound):
        if terminated:
            break
        D = step_window(basis_degs)
        step = syzygy_step(alg, basis_ambient, basis, D,
                           use_tshift=req.tshift, index=i, base=base)
        steps.append(step)
        windows.append(D)
        if not step.generators:
            terminated = True
            break
        level_shifts[i + 1] = sorted(step.degrees)
        basis_ambient = basis_degs
        basis = step.generators
        basis_degs = step.degrees

    top_window = max(windows) if windows else (max(degs) if degs else 0)
    certified = False
    if terminated:
        # with no minimal generator, 0 -> F_0 is the whole resolution
        if req.trust_finite or not gens:
            certified = True
        elif _is_monomial(module):
            gen_top = max(degs)
            d_rel = max(rel_deg, 1)
            certified = all(
                windows[s - 1] >= monomial_degree_bound(gen_top, d_rel, s + 1)
                for s in range(1, len(windows) + 1))
    status = "certified" if certified else f"truncated({top_window})"
    entries = dict(Counter((i, d - i) for i, level in level_shifts.items()
                           for d in level))
    table = BettiTable(entries, truncated=not certified,
                       truncation_degree=None if certified else top_window)
    return Resolution(
        module=module,
        minimal_input=gens,
        steps=steps,
        table=table,
        status=status,
        level_shifts=level_shifts,
        windows=windows,
        window_policy="explicit" if req.degree_bound is not None
        else "heuristic",
    )


def betti_summary(table: BettiTable) -> dict:
    entries = {k: v for k, v in table.entries.items() if v}
    regularity = max((j for (_, j) in entries), default=None)
    top = max((i for (i, _) in entries), default=0)
    if table.truncated:
        gdim: object = f">= {top} (truncated)"
    else:
        gdim = top
    tor = {(i, i + j): v for (i, j), v in sorted(entries.items())}
    return {"regularity": regularity, "global_dimension": gdim,
            "tor_dimensions": tor}


def render_betti_text(table: BettiTable) -> str:
    entries = {k: v for k, v in table.entries.items() if v}
    if not entries:
        return "(empty table)\n"
    imax = max(i for (i, _) in entries)
    jmin = min(j for (_, j) in entries)
    jmax = max(j for (_, j) in entries)
    width = max(len(str(v)) for v in entries.values())
    width = max(width, len(str(imax)), 3)
    lines = []
    header = "      " + "".join(f"{i:>{width + 2}}" for i in range(imax + 1))
    lines.append(header)
    lines.append("      " + "-" * ((width + 2) * (imax + 1)))
    for j in range(jmin, jmax + 1):
        cells = []
        for i in range(imax + 1):
            v = entries.get((i, j))
            cells.append(f"{v if v is not None else '.':>{width + 2}}")
        lines.append(f"{j:>4}: " + "".join(cells))
    if table.truncated:
        lines.append(f"(truncated at degree {table.truncation_degree})")
    return "\n".join(lines) + "\n"
