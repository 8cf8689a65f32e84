"""Resolution pipeline: step encoding, per-step reports, tables."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from helpers import (BuchbergerRing, augmentation_module, ev_image,
                     evaluated_stair_rows, iota_poly, letterplace_ideal_gens,
                     nilpotent_enveloping, nonmonomial_modules,
                     place_collision, random_module, random_presentation,
                     row_key, stair_frame, to_tuple, window_shifts)
from ncres.field import rationals
from ncres.freealg import (AlgebraPresentation, ModulePresentation,
                           validate_presentation)
from ncres.letterplace import PlaceWindow, build_C, iota_word
import ncres.cli as cli
import ncres.resolver as resolver
from ncres import engine
from ncres.engine import RingGB, _place_bits
from ncres.jsonio import parse_input, render_json, resolution_document
from ncres.resolver import BettiTable, ResolutionRequest, betti_summary, \
    monomial_degree_bound, render_betti_text, resolve, syzygy_step
from ncres.syzygy import ModuleGB, SyzygyResult

QQ = rationals()
ONE = QQ.one


def _mod(alg, words):
    return ModulePresentation(alg, (0,), [{(0, w): ONE} for w in words])


def _free(*names):
    return AlgebraPresentation(QQ, tuple(names), [])


def _poly_ring_2():
    """K[x, y] presented as the free algebra mod the commutator."""
    return AlgebraPresentation(
        QQ, ("x", "y"), [{(0, 1): ONE, (1, 0): QQ.neg(ONE)}])


def _x_square_zero():
    alg = AlgebraPresentation(QQ, ("x",), [{(0, 0): ONE}])
    return ModulePresentation(alg, (0,), [{(0, (0,)): ONE}])


# --- degree bound arithmetic ---------------------------------------------

def test_degree_bound_examples():
    assert monomial_degree_bound(1, 2, 3) == 3
    assert monomial_degree_bound(5, 3, 1) == 5
    assert monomial_degree_bound(1, 3, 4) == 7


def test_degree_bound_rejects_bad_index():
    with pytest.raises(ValueError):
        monomial_degree_bound(1, 2, 0)


# --- step encoding -------------------------------------------------------

def test_encode_without_shift_has_no_offset():
    alg = _free("x", "y")
    enc = resolver._encode_step(alg, [0, 0], [{(0, (0, 1)): ONE}], 4, True)
    assert enc.offset == 0 and enc.ctx is None
    assert enc.win == PlaceWindow(("x", "y"), 4)
    assert enc.gens_lp == [{(0, iota_word(enc.win, (0, 1))): ONE}]
    assert enc.gen_degrees == [2]


def test_encode_divides_uniform_prefix():
    # t t x at shift 2 is encoded as x at place 1
    enc = resolver._encode_step(_free("x"), [2], [{(0, (0,)): ONE}], 4, True)
    assert enc.offset == 2
    assert enc.win == PlaceWindow(("x", "t"), 2)
    assert enc.gens_lp == [{(0, iota_word(enc.win, (0,))): ONE}]
    assert enc.gen_degrees == [1]


def test_encode_mixed_shifts_uses_minimum():
    gens = [{(0, (0,)): ONE}, {(1, ()): ONE}]  # t t x and t t t
    enc = resolver._encode_step(_free("x"), [2, 3], gens, 5, True)
    assert enc.offset == 2
    assert enc.win.width == 3
    assert enc.gens_lp == [{(0, iota_word(enc.win, (0,))): ONE},
                           {(1, iota_word(enc.win, (1,))): ONE}]
    assert enc.gen_degrees == [1, 1]


def test_encode_without_compression_keeps_full_window():
    gens = [{(0, (0,)): ONE}, {(1, ()): ONE}]
    enc = resolver._encode_step(_free("x"), [2, 3], gens, 5, False)
    assert enc.offset == 0
    assert enc.win == PlaceWindow(("x", "t"), 5)
    assert enc.gens_lp == [{(0, iota_word(enc.win, (1, 1, 0))): ONE},
                           {(1, iota_word(enc.win, (1, 1, 1))): ONE}]
    assert enc.gen_degrees == [3, 3]


# --- single steps ----------------------------------------------------------

def test_free_letters_have_no_syzygies():
    alg = _free("x", "y")
    gens = [{(0, (0,)): ONE}, {(0, (1,)): ONE}]
    step = syzygy_step(alg, [0], gens, window=3)
    assert step.generators == []
    assert step.betti == {}
    # the forced one-variable-per-place relations are all that remains
    assert step.betti_block == {2: 4}
    assert step.betti_with_block == {2: 4}
    assert not step.homogenized and step.offset == 0


def test_koszul_syzygy_of_two_variables():
    alg = _poly_ring_2()
    gens = [{(0, (0,)): ONE}, {(0, (1,)): ONE}]
    step = syzygy_step(alg, [0], gens, window=3)
    assert len(step.generators) == 1
    assert step.generators[0] == {(0, (1,)): ONE, (1, (0,)): QQ.neg(ONE)}
    assert step.degrees == [2]


def test_redundant_forced_block_element_is_an_internal_error(monkeypatch):
    build_C = resolver.build_C
    monkeypatch.setattr(resolver, "build_C",
                        lambda *args: build_C(*args) * 2)
    gens = [{(0, (0,)): ONE}, {(0, (1,)): ONE}]
    with pytest.raises(AssertionError,
                       match="forced-block element is redundant"):
        syzygy_step(_poly_ring_2(), [0], gens, window=3)


def test_short_forced_block_is_an_internal_error(monkeypatch):
    build_C = resolver.build_C
    monkeypatch.setattr(resolver, "build_C",
                        lambda *args: build_C(*args)[:-1])
    gens = [{(0, (0,)): ONE}, {(0, (1,)): ONE}]
    with pytest.raises(AssertionError,
                       match="forced-block degree histogram is off"):
        syzygy_step(_poly_ring_2(), [0], gens, window=3)


@pytest.mark.parametrize("tshift", [True, False])
def test_forced_block_is_certified_without_evaluation(monkeypatch, tshift):
    """Every term of g_j holds a letter at each of g_j's places, so each
    forced-block element of the flagship's steps is certified by its
    mask tests alone: none reaches the evaluation of _check_syzygies."""
    evaluated = []
    real = resolver._check_syzygies

    def recording(enc, elems, message):
        if message.startswith("forced-block"):
            evaluated.extend(elems)
        return real(enc, elems, message)
    monkeypatch.setattr(resolver, "_check_syzygies", recording)
    res = resolve(ResolutionRequest(augmentation_module(
        nilpotent_enveloping()), degree_bound=7, length_bound=7,
        tshift=tshift))
    assert sum(sum(step.betti_block.values()) for step in res.steps) > 100
    assert evaluated == []


def test_a_term_below_its_generator_fails_the_syzygy_check(monkeypatch):
    """A term e_j * x(p) with p below deg(g_j) is no stair-row term: each
    product of it with g_j holds a place collision, so it evaluates to
    zero, and _check_syzygies rejects it by its places.  Every kept row of
    the flagship's steps at D=7, with one such term added, fails the
    check, for each component j of the row, place p and letter."""
    kept = []
    real = resolver._check_syzygies
    monkeypatch.setattr(resolver, "_check_syzygies",
                        lambda enc, elems, message: kept.extend(
                            (enc, row) for row in elems)
                        or real(enc, elems, message))
    resolve(ResolutionRequest(augmentation_module(nilpotent_enveloping()),
                              degree_bound=7, length_bound=7))
    variants = 0
    for enc, row in kept:
        for j in {j for j, _ in row}:
            for v in range(enc.gen_degrees[j] * enc.win.n_letters):
                with pytest.raises(AssertionError, match="term below"):
                    real(enc, [{**row, (j, 1 << v): enc.ring.field.one}],
                         "term below")
                variants += 1
    assert len(kept) > 20 and variants > 600


def test_flagship_reduces_each_monomial_once_and_no_collision(monkeypatch):
    """The only RingGB.normal_form calls of a flagship resolve at D=10
    over F_32003 are the memo misses of mono_normal_form (108), each on
    one collision-free monomial: no check reduces an evaluation through
    it, and none reduces a product that holds a place collision."""
    doc = json.loads(FLAGSHIP.read_text(encoding="utf-8"))
    doc["field"] = {"Fp": 32003}
    mod = parse_input(json.dumps(doc))
    calls = []
    real = RingGB.normal_form

    def counting(self, p):
        calls.append((p, self.n_letters))
        return real(self, p)
    monkeypatch.setattr(RingGB, "normal_form", counting)
    resolve(ResolutionRequest(mod, degree_bound=10, length_bound=7))
    assert 0 < len(calls) <= 110
    assert all(len(p) == 1 and not engine.place_collision(min(p), L)
               for p, L in calls)


def test_forced_block_non_syzygy_is_an_internal_error(monkeypatch, tmp_path,
                                                      capsys):
    build_C = resolver.build_C

    def with_non_syzygy(win, field, gen_degrees):
        # component 0 times the first letter just past generator 0's places
        mono = 1 << (gen_degrees[0] * win.n_letters)
        return build_C(win, field, gen_degrees) + [{(0, mono): field.one}]

    monkeypatch.setattr(resolver, "build_C", with_non_syzygy)
    gens = [{(0, (0,)): ONE}, {(0, (1,)): ONE}]
    with pytest.raises(AssertionError,
                       match="forced-block element is not a syzygy"):
        syzygy_step(_poly_ring_2(), [0], gens, window=3)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({
        "field": "Q", "generators": ["x", "y"],
        "relations": [[{"coeff": "1", "word": ["x", "y"]},
                       {"coeff": "-1", "word": ["y", "x"]}]],
        "module": {"shifts": [0], "generators": [
            [{"coeff": "1", "component": 0, "word": ["x"]}],
            [{"coeff": "1", "component": 0, "word": ["y"]}]]}}))
    assert cli.main(["resolve", str(path), "--degree-bound", "3"]) == 4
    assert "not a syzygy" in capsys.readouterr().err


def test_incomplete_stair_frame_is_an_internal_error(monkeypatch):
    stair_rows = resolver._stair_rows
    # keep only the rows supported on the first component
    monkeypatch.setattr(resolver, "_stair_rows",
                        lambda enc, raw, d, cols: [
                            row for row in stair_rows(enc, raw, d, cols)
                            if all(j == 0 for j, _ in cols.decode(row))])
    gens = [{(0, (0,)): ONE}, {(0, (1,)): ONE}]
    with pytest.raises(AssertionError, match="does not generate"):
        syzygy_step(_poly_ring_2(), [0], gens, window=3)


def _raw_sourced(monkeypatch):
    """A predicate telling the (row, degree) pairs a step hands _stair_rows
    from its raw syzygies (V_d) apart from those of its output of lower
    degree (U_d): every raw syzygy of the resolve is recorded as it is
    collected."""
    raw_ids, sources = set(), []
    real = resolver.syzygies_over_quotient

    def recording(ring, gens, shifts):
        raw = real(ring, gens, shifts)
        sources.append(raw)  # keeps the recorded ids unique
        raw_ids.update(id(r) for r in raw.generators)
        return raw

    monkeypatch.setattr(resolver, "syzygies_over_quotient", recording)
    return lambda pairs: bool(pairs) and all(id(r) in raw_ids
                                             for r, _ in pairs)


def test_lower_output_outside_the_stair_subspace_is_an_internal_error(
        monkeypatch, capsys):
    """Stair rows built from the raw syzygies of degree d alone miss the
    multiples of lower-degree output, so those rows add pivots to V_d:
    resolve() raises, and the CLI exits 4 with one line."""
    from_raw = _raw_sourced(monkeypatch)
    real = resolver._stair_rows

    def top_degree_only(enc, pairs, d, cols):
        if from_raw(pairs):
            pairs = [(r, dr) for r, dr in pairs if dr == d]
        return real(enc, pairs, d, cols)

    monkeypatch.setattr(resolver, "_stair_rows", top_degree_only)
    with pytest.raises(AssertionError, match="does not generate"):
        resolve(ResolutionRequest(augmentation_module(nilpotent_enveloping()),
                                  degree_bound=5, length_bound=7))
    rc = cli.main(["resolve", str(FLAGSHIP), "--degree-bound", "5"])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    assert captured.err.startswith("error: internal invariant violated")
    assert "does not generate" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _with_non_syzygy(monkeypatch):
    """Append to every step's raw syzygies one that is not: component 0
    times the first letter just past generator 0's places."""
    real = resolver.syzygies_over_quotient

    def injected(ring, gens, shifts):
        raw = real(ring, gens, shifts)
        d0 = next(iter(gens[0]))[1].bit_count()
        mono = 1 << (d0 * ring.n_letters)
        raw.generators.append({(0, mono): ring.field.one})
        raw.degrees.append(d0 + 1)
        return raw

    monkeypatch.setattr(resolver, "syzygies_over_quotient", injected)


def test_raw_non_syzygy_is_an_internal_error(monkeypatch, capsys):
    """A raw syzygy that does not evaluate to zero reaches the stair rows;
    the kept rows are evaluated, so it is caught there, in resolve() and
    as exit 4 from the CLI."""
    _with_non_syzygy(monkeypatch)
    with pytest.raises(AssertionError,
                       match="stair row at degree 2 is not a syzygy"):
        resolve(ResolutionRequest(augmentation_module(_poly_ring_2()),
                                  degree_bound=3, length_bound=3))
    rc = cli.main(["resolve", str(FLAGSHIP), "--degree-bound", "5"])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    assert captured.err.startswith("error: internal invariant violated")
    assert "stair row at degree 2 is not a syzygy" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_stair_guard_exits_5_on_a_real_resolve(monkeypatch, capsys):
    """Past STAIR_GUARD stair rows or words, a real resolve of the
    flagship stops with exit 5 and one line, before any output."""
    monkeypatch.setattr(resolver, "STAIR_GUARD", 5)
    rc = cli.main(["resolve", str(FLAGSHIP), "--degree-bound", "6"])
    captured = capsys.readouterr()
    assert rc == 5 and captured.out == ""
    assert captured.err.startswith("error: resource limit: more than 5 "
                                   "stair ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _module_container_sizes():
    """Size of every module-level dict, list and set of the loaded ncres
    modules."""
    return {(name, attr): len(value)
            for name, mod in list(sys.modules.items())
            if name == "ncres" or name.startswith("ncres.")
            for attr, value in vars(mod).items()
            if not attr.startswith("__")
            and isinstance(value, (dict, list, set))}


def test_resolve_leaves_no_key_cache_behind():
    """A resolve leaves no state in the process: no module-level
    container of ncres grows, and a resolve after an unrelated one gives
    the bytes it gives on its own."""
    req = ResolutionRequest(augmentation_module(_poly_ring_2()),
                            degree_bound=4, length_bound=3)
    first = render_json(resolution_document(resolve(req)))
    sizes = _module_container_sizes()
    resolve(ResolutionRequest(augmentation_module(nilpotent_enveloping()),
                              degree_bound=5, length_bound=3))
    assert _module_container_sizes() == sizes
    again = render_json(resolution_document(resolve(req)))
    assert again == first


# --- one ring basis per resolution ------------------------------------------

FLAGSHIP = Path(__file__).resolve().parent / "data" / "flagship.json"
RAW_SYZYGIES = FLAGSHIP.with_name("flagship-raw-syzygies.json")


def test_explicit_bound_builds_the_ring_basis_once(monkeypatch):
    """With an explicit degree bound the input minimalization and all six
    steps of the flagship restrict one basis, built at step 1's window
    from the generators at place 0 of a window as wide as the widest
    relation; no step encodes the relations of its own."""
    windows = []
    real_gens = resolver.letterplace_ideal_gens
    monkeypatch.setattr(resolver, "letterplace_ideal_gens",
                        lambda win, alg: windows.append(win)
                        or real_gens(win, alg))
    built = []
    real_init = RingGB.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(RingGB, "__init__", counting_init)
    alg = nilpotent_enveloping()
    res = resolve(ResolutionRequest(augmentation_module(alg),
                                    degree_bound=10, length_bound=7,
                                    trust_finite=True))
    assert len(res.steps) == 6
    assert windows == [PlaceWindow(alg.names, 3)]
    assert len(built) == 1 and built[0].cap == 10


def test_each_step_builds_one_module_basis(monkeypatch):
    """The input minimalization builds one module basis and each step one
    more, the collecting basis of its raw syzygies; canonicalization is
    row elimination and builds none."""
    built = []
    real_init = ModuleGB.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ModuleGB, "__init__", counting_init)
    res = resolve(ResolutionRequest(augmentation_module(
        nilpotent_enveloping()), degree_bound=10, length_bound=7,
        trust_finite=True))
    assert len(res.steps) == 6
    assert len(built) == 1 + len(res.steps)


@pytest.mark.parametrize("field", ["Q", {"Fp": 32003}])
def test_flagship_reduction_sequence_is_pinned(monkeypatch, field):
    """The flagship at D=10 yields 9, 15, 11, 3, 1 and 0 raw syzygies per
    step; its module bases hold 43 queued S-pairs when complete_to is
    entered and process 51 (one S-polynomial each), counting the pairs
    queued during completion.  A change to the term order or to the
    order of reductions moves these counts."""
    raw = []
    real_raw = resolver.syzygies_over_quotient

    def recording(ring, gens, shifts):
        out = real_raw(ring, gens, shifts)
        raw.append(len(out.generators))
        return out
    queued, processed = [], []
    real_complete, real_spoly = ModuleGB.complete_to, ModuleGB._spoly

    def complete_to(self, d):
        queued.append(len(self.pairs))
        real_complete(self, d)

    def spoly(self, *args):
        processed.append(args)
        return real_spoly(self, *args)
    monkeypatch.setattr(resolver, "syzygies_over_quotient", recording)
    monkeypatch.setattr(ModuleGB, "complete_to", complete_to)
    monkeypatch.setattr(ModuleGB, "_spoly", spoly)
    doc = json.loads(FLAGSHIP.read_text(encoding="utf-8"))
    doc["field"] = field
    res = resolve(ResolutionRequest(parse_input(json.dumps(doc)),
                                    degree_bound=10, length_bound=7,
                                    trust_finite=True))
    assert res.status == "certified"
    assert raw == [9, 15, 11, 3, 1, 0]
    assert sum(queued) == 43
    assert len(processed) == 51


@pytest.mark.parametrize("workload, field", [("nilpotent-q", "Q"),
                                             ("nilpotent-fp", {"Fp": 32003})])
def test_flagship_raw_syzygies_match_the_tuple_kernel(monkeypatch, workload,
                                                      field):
    """Each step's raw syzygies of the flagship at D=10, decoded to
    (variable, exponent) tuples, are as sets those that the kernel on
    tuple monomials collected (tests/data/flagship-raw-syzygies.json,
    recorded with it)."""
    expected = json.loads(RAW_SYZYGIES.read_text(encoding="utf-8"))[workload]
    got = []
    real_raw = resolver.syzygies_over_quotient

    def recording(ring, gens, shifts):
        out = real_raw(ring, gens, shifts)
        got.append(out.generators)
        return out
    monkeypatch.setattr(resolver, "syzygies_over_quotient", recording)
    doc = json.loads(FLAGSHIP.read_text(encoding="utf-8"))
    doc["field"] = field
    mod = parse_input(json.dumps(doc))
    resolve(ResolutionRequest(mod, degree_bound=10, length_bound=7,
                              trust_finite=True))
    to_str = mod.algebra.field.to_str
    assert [{frozenset((j, to_tuple(m), to_str(c))
                       for (j, m), c in syz.items()) for syz in step}
            for step in got] == \
        [{frozenset((j, tuple(map(tuple, m)), c) for j, m, c in syz)
          for syz in step} for step in expected]


def test_growing_heuristic_windows_keep_the_bytes(monkeypatch):
    """Heuristic windows widen from step to step, so the one basis widens
    in place now and then; the rendered resolution must equal the one
    whose every ring comes from its own generators, each checked against
    Buchberger over every generator of its window."""
    mod = parse_input(FLAGSHIP.read_text(encoding="utf-8"))
    req = ResolutionRequest(mod, length_bound=7, trust_finite=True)
    widths, built = [], []
    real_basis = resolver._ring_basis
    monkeypatch.setattr(resolver, "_ring_basis",
                        lambda alg, width: widths.append(width)
                        or built.append(real_basis(alg, width)) or built[-1])
    shared = render_json(resolution_document(resolve(req)))
    assert widths == [3] and built[0].cap == 4

    real_encode = resolver._encode_step
    checked = []

    def from_generators(alg, shifts, gens, window, use_tshift, base=None):
        enc = real_encode(alg, shifts, gens, window, use_tshift)
        active = enc.ctx.extended if enc.ctx is not None else alg
        enc = enc._replace(ring=real_basis(active, enc.win.width))
        oracle = BuchbergerRing(
            alg.field, letterplace_ideal_gens(enc.win, active),
            cap=enc.win.width, n_letters=enc.win.n_letters)
        assert window_shifts(enc.ring) == oracle.elements
        checked.append(enc.win.width)
        return enc

    monkeypatch.setattr(resolver, "_encode_step", from_generators)
    assert render_json(resolution_document(resolve(req))) == shared
    assert len(checked) > 3 and len(set(checked)) > 1


@pytest.mark.parametrize("bound", [None, 10])
@pytest.mark.parametrize("tshift", [True, False])
def test_one_ring_basis_per_resolution(monkeypatch, bound, tshift):
    """Under either window policy, compression on or off, a resolve of
    the flagship builds one ring basis, and it ends as wide as the widest
    narrowed window of a step: a wider heuristic window widens it."""
    built = []
    real_basis = resolver._ring_basis
    monkeypatch.setattr(resolver, "_ring_basis",
                        lambda alg, width: built.append(real_basis(alg, width))
                        or built[-1])
    mod = parse_input(FLAGSHIP.read_text(encoding="utf-8"))
    res = resolve(ResolutionRequest(mod, degree_bound=bound, length_bound=7,
                                    tshift=tshift, trust_finite=True))
    assert len(res.steps) == 6 and len(built) == 1
    assert built[0].cap == max(s.window - s.offset for s in res.steps)


def _small_requests(modules):
    """The flagship at D=7 over Q and F_32003, and the first `modules`
    seeded non-monomial modules at D=6 and length 4, compression on and
    off: (name, request) each."""
    for field in ("Q", {"Fp": 32003}):
        doc = json.loads(FLAGSHIP.read_text(encoding="utf-8"))
        doc["field"] = field
        mod = parse_input(json.dumps(doc))
        for tshift in (True, False):
            yield f"flagship {field} {tshift}", ResolutionRequest(
                mod, degree_bound=7, length_bound=7, tshift=tshift)
    for k, mod in enumerate(nonmonomial_modules(20261019, modules)):
        for tshift in (True, False):
            yield f"module {k} {tshift}", ResolutionRequest(
                mod, degree_bound=6, length_bound=4, tshift=tshift)


def test_reducer_lookups_never_see_a_place_collision(monkeypatch):
    """RingGB._find does not test for place collisions: no monomial the
    pipeline asks it about holds one (engine docstring).  Over resolves of
    the flagship and of seeded non-monomial modules, no call of _find, of
    a view's memoized _find or of mono_normal_form (which _nf_sum feeds
    its products, and which drops a collision before _find would see
    it) receives a monomial with two letters at one place."""
    calls = [0]
    for cls, name in ((RingGB, "_find"), (engine._RingView, "_find"),
                      (RingGB, "mono_normal_form")):
        def wrapped(self, m, real=vars(cls)[name], name=name):
            calls[0] += 1
            assert not place_collision(to_tuple(m), self.n_letters), \
                f"{name} got the place collision {m:#x}"
            return real(self, m)
        monkeypatch.setattr(cls, name, wrapped)
    for _, req in _small_requests(6):
        resolve(req)
    assert calls[0] > 1000


_real_raw = resolver.syzygies_over_quotient


def _combination(field, terms):
    """The sum of c * g over the (c, g) of `terms`, zero terms dropped."""
    out = {}
    for c, g in terms:
        for t, x in g.items():
            out[t] = field.add(out.get(t, field.zero), field.mul(c, x))
    return {t: x for t, x in out.items() if x != field.zero}


def _respanned(ring, gens, shifts):
    """The raw syzygies reversed, each scaled by 3, with the sum of each
    adjacent same-degree pair appended: the same span, another spanning
    set."""
    raw = _real_raw(ring, gens, shifts)
    field = ring.field
    three, one = field.from_int(3), field.from_int(1)
    out = [_combination(field, [(three, g)])
           for g in reversed(raw.generators)]
    degs = raw.degrees[::-1]
    for k in range(len(out) - 1):
        if degs[k] == degs[k + 1]:
            total = _combination(field, [(one, out[k]), (one, out[k + 1])])
            if total:
                out.append(total)
                degs.append(degs[k])
    return SyzygyResult(out, degs)


def _perturbed(seed):
    """The raw syzygies under a seeded change of spanning set: within each
    degree, random non-zero scalings times a random unit upper-triangular
    recombination (an invertible matrix), then a shuffle of all of them,
    then random combinations of same-degree ones appended, which are
    redundant: the same span, another spanning set."""
    def raw_syzygies(ring, gens, shifts):
        raw = _real_raw(ring, gens, shifts)
        field, rng = ring.field, random.Random(seed)

        def scalar(low):  # an integer in low .. 9
            return field.from_int(rng.randint(low, 9))

        at = {}
        for g, d in zip(raw.generators, raw.degrees):
            at.setdefault(d, []).append(g)
        out = []
        for d, gs in at.items():
            out += [(d, _combination(field, [(scalar(1), g)] + [
                (scalar(-9), h) for h in gs[i + 1:]]))
                for i, g in enumerate(gs)]
        rng.shuffle(out)
        for _ in range(3 if at else 0):
            d = rng.choice(sorted(at))
            extra = _combination(field, [(scalar(-9), g) for g in at[d]])
            if extra:
                out.append((d, extra))
        return SyzygyResult([g for _, g in out], [d for d, _ in out])
    return raw_syzygies


def _first_dropped(ring, gens, shifts):
    raw = _real_raw(ring, gens, shifts)
    return SyzygyResult(raw.generators[1:], raw.degrees[1:])


def test_bytes_are_a_property_of_the_spaces(monkeypatch):
    """Each degree's output is the unique RREF of V_d modulo U_d (resolver
    docstring), so it does not depend on which raw syzygies span the
    syzygy module: other spanning sets, a fixed one and three seeded
    ones, each with redundant combinations, render the same bytes.  As
    the negative control, dropping the first raw syzygy of every step
    changes the bytes or fails a step's check (exit 4) on the flagship
    and the first two modules, where that syzygy is needed."""
    changed = 0
    for name, req in _small_requests(6):
        monkeypatch.setattr(resolver, "syzygies_over_quotient", _real_raw)
        want = render_json(resolution_document(resolve(req)))
        for respan in [_respanned] + [_perturbed(seed) for seed in range(3)]:
            monkeypatch.setattr(resolver, "syzygies_over_quotient", respan)
            got = render_json(resolution_document(resolve(req)))
            assert got == want, (name, respan)
        if name.startswith(("flagship", "module 0 ", "module 1 ")):
            monkeypatch.setattr(resolver, "syzygies_over_quotient",
                                _first_dropped)
            try:
                got = render_json(resolution_document(resolve(req)))
            except AssertionError:
                got = None
            assert got != want, name
            changed += 1
    assert changed == 8


def test_module_keys_follow_the_terms_not_the_window(monkeypatch):
    """At a degree bound of WINDOW_GUARD places a module basis keys its
    terms by the places they reach: no _term_key call of the resolve
    gets a bit width past the places of the widest term it keys, and the
    flagship keeps the Betti table it has at degree bound 10."""
    calls = []
    real_key = ModuleGB._term_key

    def recording(self, term, B=None):
        calls.append((B, _place_bits(term[1], self.ring.n_letters)))
        return real_key(self, term, B)
    monkeypatch.setattr(ModuleGB, "_term_key", recording)
    mod = parse_input(FLAGSHIP.read_text(encoding="utf-8"))
    tables = [resolve(ResolutionRequest(mod, degree_bound=bound,
                                        length_bound=7, trust_finite=True))
              .table.entries for bound in (resolver.WINDOW_GUARD, 10)]
    assert tables[0] == tables[1]
    assert calls and all(B is not None for B, _ in calls)
    assert max(B for B, _ in calls) <= max(bits for _, bits in calls)


def test_degree_bound_past_the_window_guard_is_a_resource_limit():
    mod = parse_input(FLAGSHIP.read_text(encoding="utf-8"))
    with pytest.raises(resolver.ResourceLimit, match="window guard of "
                       f"{resolver.WINDOW_GUARD} places"):
        resolve(ResolutionRequest(mod,
                                  degree_bound=resolver.WINDOW_GUARD + 1))


def test_every_step_ring_has_its_own_key_table(monkeypatch):
    """A step's reducer lookups land in its own ring's memo: the kept
    basis is never a step's ring, and it memoizes nothing."""
    pairs = []
    real_restrict = RingGB.restrict

    def recording_restrict(self, width, n_letters):
        out = real_restrict(self, width, n_letters)
        pairs.append((self, out))
        return out

    monkeypatch.setattr(RingGB, "restrict", recording_restrict)
    res = resolve(ResolutionRequest(augmentation_module(
        nilpotent_enveloping()), degree_bound=6, length_bound=4))
    assert len(pairs) == 1 + len(res.steps)
    bases = {id(base) for base, _ in pairs}
    assert len(bases) == 1
    base = pairs[0][0]
    assert not hasattr(base, "_found") and base._mono_nf == {}
    tables = {id(ring._found) for _, ring in pairs}
    assert len(tables) == len(pairs)
    assert all(len(ring._found) for _, ring in pairs)


def test_wide_window_keeps_the_table_and_the_ring_small(monkeypatch):
    """The flagship at degree bound 1000 has the Betti table it has at
    10, and no step's ring stores more elements than the base basis's
    anchored ones: a ring's size does not follow its window."""
    views = []
    real_restrict = RingGB.restrict

    def recording_restrict(self, width, n_letters):
        out = real_restrict(self, width, n_letters)
        views.append((self, out))
        return out

    monkeypatch.setattr(RingGB, "restrict", recording_restrict)
    mod = augmentation_module(nilpotent_enveloping())
    tables = [resolve(ResolutionRequest(mod, degree_bound=bound,
                                        length_bound=7, trust_finite=True))
              .table.entries for bound in (10, 1000)]
    assert tables[0] == tables[1]
    wide = views[len(views) // 2:]
    assert len(wide) == 7 and {base.cap for base, _ in wide} == {1000}
    assert all(len(ring.elements) <= len(base.elements) == 9
               for base, ring in wide)


@pytest.mark.parametrize("tshift", [True, False])
def test_ev_image_matches_one_normal_form_per_component(monkeypatch, tshift):
    """_nf_sum sums memoized monomial normal forms; the image of a column
    under evaluation that it gives (helpers.ev_image) must equal the image
    that reduces each component's polynomial in one normal_form, for
    every forced-block element and every column of an emitted generator
    of every step of the flagship at D=7.  Every step ring starts with an
    empty memo of its own, and the kept basis never fills one."""
    encs, pairs = [], []
    real_check = resolver._check_forced_block
    monkeypatch.setattr(resolver, "_check_forced_block",
                        lambda enc, block: encs.append((enc, block))
                        or real_check(enc, block))
    real_restrict = RingGB.restrict

    def recording_restrict(self, width, n_letters):
        out = real_restrict(self, width, n_letters)
        assert out._mono_nf == {}
        pairs.append((self, out))
        return out

    monkeypatch.setattr(RingGB, "restrict", recording_restrict)
    res = resolve(ResolutionRequest(augmentation_module(
        nilpotent_enveloping()), degree_bound=7, length_bound=7,
        tshift=tshift))

    def oracle(enc, j, mono):
        by_comp = {}
        for (comp, gm), c in enc.gens_lp[j].items():
            if not gm & mono:  # a shared variable squares: zero
                by_comp.setdefault(comp, {})[gm | mono] = c
        return {(comp, m): c for comp, poly in by_comp.items()
                for m, c in enc.ring.normal_form(poly).items()}

    checked = 0
    assert len(encs) == len(res.steps) > 3
    for (enc, block), step in zip(encs, res.steps):
        emitted = {(j, iota_word(enc.win, w, enc.gen_degrees[j]))
                   for gen in step.generators for j, w in gen}
        vectors = sorted(emitted) + [next(iter(elem)) for elem in block]
        for j, mono in vectors:
            assert ev_image(enc, j, mono) == oracle(enc, j, mono)
        checked += len(vectors)
    assert checked > 300
    assert len({id(base) for base, _ in pairs}) == 1
    assert pairs[0][0]._mono_nf == {}
    memos = {id(ring._mono_nf) for _, ring in pairs}
    assert len(memos) == len(pairs)
    assert all(ring._mono_nf for _, ring in pairs[1:])


def _recorded_stair_rows(monkeypatch, req):
    """(enc, degree, rows, from_raw, cols) of every _stair_rows call of a
    resolve, the rows decoded to (component, monomial) keys through the
    degree's column keys cols: from_raw when the rows come from the
    step's raw syzygies (V_d), not from its output of lower degree
    (U_d)."""
    calls = []
    from_raw = _raw_sourced(monkeypatch)
    real = resolver._stair_rows

    def recording(enc, pairs, d, cols):
        rows = real(enc, pairs, d, cols)
        calls.append((enc, d, [cols.decode(row) for row in rows],
                      from_raw(pairs), cols))
        return rows

    monkeypatch.setattr(resolver, "_stair_rows", recording)
    resolve(req)
    return calls


def _assert_rows_match_evaluation(calls):
    """Rows from the raw syzygies are the RREF of the evaluation kernel;
    rows from lower output span a subspace of it."""
    for enc, d, rows, from_raw, cols in calls:
        frame = stair_frame(enc, d)
        # frame positions are key order
        assert frame == sorted(frame, key=row_key)
        kernel = evaluated_stair_rows(enc, d)
        if from_raw:
            assert rows == kernel
        else:
            pivots = {min(row): row for row in map(cols.encode, kernel)}
            assert resolver._spans(pivots, [cols.encode(row) for row in rows],
                                   enc.ring.field)


@pytest.mark.parametrize("field", ["Q", {"Fp": 32003}])
@pytest.mark.parametrize("tshift", [True, False])
def test_stair_rows_equal_the_evaluation_kernel_on_the_flagship(
        monkeypatch, field, tshift):
    """The RREF of NF(r * u) over the raw syzygies r is the RREF of the
    kernel of evaluation on the whole stair frame, at every marked degree
    of every step of the flagship at D=7, and the rows NF(o * u) over the
    output o of lower degree lie in that kernel."""
    doc = json.loads(FLAGSHIP.read_text(encoding="utf-8"))
    doc["field"] = field
    mod = parse_input(json.dumps(doc))
    calls = _recorded_stair_rows(monkeypatch, ResolutionRequest(
        mod, degree_bound=7, length_bound=7, tshift=tshift))
    from_raw = [call for call in calls if call[3]]
    assert len(from_raw) >= 4 and len({id(c[0]) for c in from_raw}) == 3
    assert any(rows for _, _, rows, raw, _ in calls if not raw)
    _assert_rows_match_evaluation(calls)


def test_stair_rows_equal_the_evaluation_kernel_on_random_algebras(
        monkeypatch):
    """The same equality and inclusion on 20 random presentations,
    compression on and off, over a random module each."""
    rng = random.Random(20261019)
    seen = 0
    for _ in range(20):
        alg = random_presentation(rng, max_rel_deg=3)
        mod = random_module(rng, alg)
        if validate_presentation(mod):
            mod = augmentation_module(alg)
        for tshift in (True, False):
            calls = _recorded_stair_rows(monkeypatch, ResolutionRequest(
                mod, degree_bound=6, length_bound=4, tshift=tshift))
            _assert_rows_match_evaluation(calls)
            seen += sum(from_raw for _, _, _, from_raw, _ in calls)
    assert seen > 40


@pytest.mark.parametrize("n_letters", [3, 4])
@pytest.mark.parametrize("degree", [1, 2, 3, 5, 6, 11])
def test_column_keys_sort_like_the_tuple_reference(n_letters, degree):
    """Random masks on `degree` places, of one bit count per component,
    over three components: the int keys sort as helpers.row_key sorts
    the (component, mask) tuples, are distinct, and decode back.  The
    widths 1 .. 6 bytes put masks across every byte boundary."""
    rng = random.Random(degree * 10 + n_letters)
    bits = degree * n_letters
    cols = resolver.ColumnKeys(degree, n_letters)
    assert cols.width == -(-bits // 8) and cols.bits == 8 * cols.width
    terms = set()
    for j in range(3):
        count = rng.randint(0, bits)
        for _ in range(40):
            mask = sum(1 << v for v in rng.sample(range(bits), count))
            terms.add((j, mask))
    row = dict.fromkeys(terms, 1)
    keyed = cols.encode(row)
    assert len(keyed) == len(row)
    assert [cols.decode({k: 1}) for k in sorted(keyed)] == \
        [{t: 1} for t in sorted(terms, key=row_key)]
    assert cols.decode(keyed) == row
    assert cols.decode(cols.encode({(2, 0): 1})) == {(2, 0): 1}


def test_column_keys_follow_the_degree_not_the_window(monkeypatch):
    """At a degree bound of WINDOW_GUARD places every degree's column
    keys are ceil(d * L / 8) bytes wide, as wide as the stair rows' d
    places and no wider, and every mask they key fits."""
    widths = []

    class Recording(resolver.ColumnKeys):
        def __init__(self, degree, n_letters):
            super().__init__(degree, n_letters)
            widths.append((degree, n_letters, self))

    monkeypatch.setattr(resolver, "ColumnKeys", Recording)
    mod = parse_input(FLAGSHIP.read_text(encoding="utf-8"))
    res = resolve(ResolutionRequest(mod, degree_bound=resolver.WINDOW_GUARD,
                                    length_bound=7, trust_finite=True))
    assert res.table.entries == resolve(ResolutionRequest(
        mod, degree_bound=10, length_bound=7, trust_finite=True)
        ).table.entries
    assert widths
    for degree, n_letters, cols in widths:
        assert cols.width <= -(-degree * n_letters // 8)
        assert all(m.bit_length() <= cols.bits for m in cols)
    assert max(cols.width for _, _, cols in widths) < 8


def _block_formula(alg, step, input_degrees):
    n_active = alg.n_letters + (1 if step.homogenized else 0)
    expected = {}
    for d in input_degrees:
        dc = d - step.offset
        if dc > 0:
            key = dc + 1 + step.offset
            expected[key] = expected.get(key, 0) + n_active * dc
    return expected


def test_nilpotent_shallow_run():
    alg = nilpotent_enveloping()
    res = resolve(ResolutionRequest(augmentation_module(alg),
                                    degree_bound=6, length_bound=3))
    assert res.status == "truncated(6)"
    assert res.window_policy == "explicit"
    assert res.table.entries == {(0, 0): 1, (1, 0): 3, (2, 1): 8,
                                 (3, 1): 6, (3, 2): 6}
    assert res.level_shifts[2] == [3] * 8
    assert res.level_shifts[3] == [4] * 6 + [5] * 6

    s1, s2 = res.steps
    assert (s1.offset, s1.homogenized) == (0, False)
    assert (s2.offset, s2.homogenized) == (1, True)
    assert s1.betti_block == {2: 9}
    assert s2.betti_block == {4: 64}
    for step, level in ((s1, 1), (s2, 2)):
        assert step.betti_block == _block_formula(
            alg, step, res.level_shifts[level])
        merged = dict(step.betti_block)
        for d, n in step.betti.items():
            merged[d] = merged.get(d, 0) + n
        assert merged == step.betti_with_block


def test_route_independence_of_compressed_windows():
    mod = augmentation_module(nilpotent_enveloping())
    fast = resolve(ResolutionRequest(mod, degree_bound=6, length_bound=3,
                                     tshift=True))
    slow = resolve(ResolutionRequest(mod, degree_bound=6, length_bound=3,
                                     tshift=False))
    assert fast.table.entries == slow.table.entries
    for a, b in zip(fast.steps, slow.steps):
        assert a.generators == b.generators


def test_emitted_syzygies_vanish_in_the_algebra():
    # compose each syzygy with the previous level and reduce the result
    # against the truncated one-variable-per-place ideal: must be zero
    alg = nilpotent_enveloping()
    res = resolve(ResolutionRequest(augmentation_module(alg),
                                    degree_bound=6, length_bound=3))
    F = alg.field
    win = PlaceWindow(alg.names, 6)
    ring = BuchbergerRing(F, letterplace_ideal_gens(win, alg), cap=6)
    basis = res.minimal_input
    checked = 0
    for step in res.steps:
        for syz in step.generators:
            acc = {}
            for (j, u), c in syz.items():
                for (comp, w), cg in basis[j].items():
                    key = (comp, w + u)
                    s = F.add(acc.get(key, F.zero), F.mul(cg, c))
                    if s == F.zero:
                        acc.pop(key, None)
                    else:
                        acc[key] = s
            for comp in {c0 for c0, _ in acc}:
                poly = {w: c for (c0, w), c in acc.items() if c0 == comp}
                assert not ring.normal_form(iota_poly(win, poly))
            checked += 1
        basis = step.generators
    assert checked == 8 + 12


# --- full resolutions ------------------------------------------------------

def test_free_augmentation_certified_at_length_one():
    res = resolve(ResolutionRequest(_mod(_free("x", "y"), [(0,), (1,)])))
    assert res.status == "certified"
    assert res.table.entries == {(0, 0): 1, (1, 0): 2}
    assert betti_summary(res.table) == {
        "regularity": 0, "global_dimension": 1,
        "tor_dimensions": {(0, 0): 1, (1, 1): 2}}


def test_free_augmentation_three_letters():
    res = resolve(ResolutionRequest(_mod(_free("x", "y", "z"),
                                         [(0,), (1,), (2,)])))
    assert res.status == "certified"
    assert res.table.entries == {(0, 0): 1, (1, 0): 3}


def test_koszul_resolution_needs_trust_to_certify():
    mod = _mod(_poly_ring_2(), [(0,), (1,)])
    plain = resolve(ResolutionRequest(mod, length_bound=4))
    assert plain.status == "truncated(3)"
    assert plain.table.entries == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    assert betti_summary(plain.table)["global_dimension"] == \
        ">= 2 (truncated)"

    trusted = resolve(ResolutionRequest(mod, length_bound=4,
                                        trust_finite=True))
    assert trusted.status == "certified"
    assert trusted.table.entries == plain.table.entries
    assert betti_summary(trusted.table)["global_dimension"] == 2


def test_x_square_zero_periodic_tail():
    res = resolve(ResolutionRequest(_x_square_zero(), length_bound=5))
    assert res.status == "truncated(5)"
    assert res.windows == [2, 3, 4, 5]
    assert res.window_policy == "heuristic"
    assert res.table.entries == {(i, 0): 1 for i in range(6)}
    assert betti_summary(res.table)["global_dimension"] == \
        ">= 5 (truncated)"
    for step in res.steps:
        assert step.generators == [{(0, (0,)): ONE}]


def test_x_square_zero_trust_cannot_rescue_nonterminating():
    res = resolve(ResolutionRequest(_x_square_zero(), length_bound=5,
                                    trust_finite=True))
    assert res.status == "truncated(5)"


def test_length_bound_one_reports_presentation_only():
    res = resolve(ResolutionRequest(_mod(_poly_ring_2(), [(0,), (1,)]),
                                    length_bound=1))
    assert res.steps == []
    assert res.table.entries == {(0, 0): 1, (1, 0): 2}
    assert res.status == "truncated(1)"


def test_input_minimalization_drops_dependent_generator():
    alg = _poly_ring_2()
    two = QQ.from_int(2)
    mod = ModulePresentation(alg, (0,), [
        {(0, (0,)): ONE}, {(0, (1,)): ONE},
        {(0, (0,)): ONE, (0, (1,)): two}])
    res = resolve(ResolutionRequest(mod, length_bound=2))
    assert len(res.minimal_input) == 2
    assert res.table.entries[(1, 0)] == 2


@pytest.mark.parametrize("degree_bound", [6, None])
def test_module_without_minimal_generators_is_certified(degree_bound):
    """0 -> F_0 resolves a module with no minimal generator completely,
    over a non-monomial algebra too: no generators at all, and the
    flagship's first relation, which is zero in A."""
    flagship = parse_input(FLAGSHIP.read_text(encoding="utf-8"))
    alg = flagship.algebra
    zero_in_a = {(0, w): c for w, c in alg.relations[0].items()}
    for gens in ([], [zero_in_a]):
        res = resolve(ResolutionRequest(
            ModulePresentation(alg, (0,), gens), degree_bound=degree_bound))
        assert res.minimal_input == []
        assert res.table == BettiTable({(0, 0): 1}, truncated=False)
        assert res.status == "certified"


def test_rejects_inhomogeneous_generator():
    alg = _poly_ring_2()
    mod = ModulePresentation(alg, (0,), [{(0, (0,)): ONE, (0, ()): ONE}])
    with pytest.raises(ValueError):
        resolve(ResolutionRequest(mod))


def test_rejects_degree_bound_below_generators():
    mod = _mod(_poly_ring_2(), [(0, 0, 0)])
    with pytest.raises(ValueError):
        resolve(ResolutionRequest(mod, degree_bound=2))


def test_rejects_zero_length_bound():
    with pytest.raises(ValueError):
        resolve(ResolutionRequest(_x_square_zero(), length_bound=0))


# --- table rendering -------------------------------------------------------

def test_render_marks_gaps_and_truncation():
    table = BettiTable({(0, 0): 1, (1, 0): 3, (2, 1): 8}, truncated=True,
                       truncation_degree=6)
    text = render_betti_text(table)
    assert text == render_betti_text(table)
    lines = text.splitlines()
    assert lines[-1] == "(truncated at degree 6)"
    row0 = next(l for l in lines if l.startswith("   0:"))
    row1 = next(l for l in lines if l.startswith("   1:"))
    assert row0.split(":")[1].split() == ["1", "3", "."]
    assert row1.split(":")[1].split() == [".", ".", "8"]


def test_render_empty_table():
    assert render_betti_text(BettiTable({}, truncated=False)) \
        == "(empty table)\n"
