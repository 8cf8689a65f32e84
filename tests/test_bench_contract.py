"""The benchmark traces named functions of src/ncres; every name it
wraps must still exist and its counters must still read the right
arguments, or traced runs fail far from the change."""

import importlib
import importlib.util
from pathlib import Path

import ncres.jsonio  # noqa: F401  (the tracer wraps every ncres layer)
import ncres.monores  # noqa: F401
import ncres.resolver
import ncres.syzygy
from helpers import augmentation_module, nilpotent_enveloping
from ncres.field import rationals
from ncres.freealg import AlgebraPresentation
from ncres.resolver import ResolutionRequest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKER = PERFBENCH / "worker.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_exists():
    tracing = _load_tracing()
    assert tracing.TARGETS
    for module, path, _, _ in tracing.TARGETS:
        obj = importlib.import_module(module)
        for name in path.split("."):
            assert hasattr(obj, name), f"{module}.{path}"
            obj = getattr(obj, name)
        assert callable(obj), f"{module}.{path}"


def test_traced_resolve_fills_the_layer_counters():
    tracing = _load_tracing()
    QQ = rationals()
    # K[x, y] as the free algebra modulo the commutator: one syzygy
    alg = AlgebraPresentation(
        QQ, ("x", "y"), [{(0, 1): QQ.one, (1, 0): QQ.neg(QQ.one)}])
    mod = augmentation_module(alg)
    tracer = tracing.Tracer("smoke")
    tracer.install()
    try:
        ncres.resolver.resolve(ResolutionRequest(mod, length_bound=3))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["engine.ring_gb_calls"] > 0
    assert metrics["syzygy.raw_syzygies"] > 0
    assert metrics["resolver.generators_out"] > 0
    assert metrics["syzygy.candidates"] == len(mod.generators)
    assert ncres.resolver.minimalize_graded is ncres.syzygy.minimalize_graded


def test_traced_flagship_resolve_fires_every_pipeline_target():
    # a refactor that stops calling a traced function must fail here,
    # not only in the benchmark's own self-test; parsing, rendering and
    # the monomial oracle are outside resolve
    tracing = _load_tracing()
    mod = augmentation_module(nilpotent_enveloping())
    tracer = tracing.Tracer("flagship")
    tracer.install()
    try:
        ncres.resolver.resolve(ResolutionRequest(mod, degree_bound=5,
                                                 length_bound=7))
    finally:
        tracer.uninstall()
    fired = {span[0] for span in tracer.spans}
    silent = [name for module, _, name, _ in tracing.TARGETS
              if module not in ("ncres.jsonio", "ncres.monores")
              and name not in fired]
    assert silent == []


def test_backend_probe_reads_a_rational_backend():
    # the bench files name the coefficient backend after the type of
    # `rationals().one`; a field change that made it report, say,
    # `builtins` would mislabel every result
    probe = 'type(rationals().one).__module__.split(".")[0]'
    assert probe in WORKER.read_text(encoding="utf-8")
    assert type(rationals().one).__module__.split(".")[0] in \
        ("fractions", "gmpy2")
