"""The benchmark traces named functions of src/ncres; every name it
wraps must still exist, or traced runs fail far from the change."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, path, _, _ in tracing.TARGETS:
        obj = importlib.import_module(module)
        for name in path.split("."):
            assert hasattr(obj, name), f"{module}.{path}"
            obj = getattr(obj, name)
        assert callable(obj), f"{module}.{path}"
