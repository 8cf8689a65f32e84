#!/usr/bin/env python3
"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

Checks that every span wrapper fires on the workloads meant to exercise
it, that self times add up to the traced wall time, that a wrong golden
file is reported as a failure, that the corpus is a function of its
seed (and is the cross-validation generator's stream), and that
BENCHMARK.json names exactly the metrics run.py prints.  Takes about
half a minute; exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COMMON_SPANS = {
    "run", "engine.RingGB", "engine.RingGB.normal_form",
    "syzygy.syzygies_over_quotient", "syzygy.minimalize_graded",
    "syzygy.ModuleGB.complete_to", "syzygy.ModuleGB.normal_form",
    "resolver.resolve", "resolver.syzygy_step",
    "letterplace.iota_module_elem", "letterplace.letterplace_ideal_gens",
    "letterplace.build_C", "letterplace.iota_inverse_word",
    "homog.homogenization_context", "homog.eta_apply", "linalg.rref",
    "freealg.validate_presentation",
}
EXPECTED_SPANS = {
    "nilpotent-q": COMMON_SPANS | {"jsonio.parse_input",
                                   "jsonio.resolution_document",
                                   "jsonio.render_json"},
    "nilpotent-fp": COMMON_SPANS | {"jsonio.parse_input",
                                    "jsonio.resolution_document",
                                    "jsonio.render_json"},
    "monomial-corpus": COMMON_SPANS | {"monores.monomial_resolution"},
}


class Failed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise Failed(msg)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_args(workload: str, golden=None) -> argparse.Namespace:
    return argparse.Namespace(
        workload=workload, seed=workloads.DEFAULT_SEED,
        corpus_seed=workloads.DEFAULT_SEED, golden=golden)


def check_spec_matches_run() -> None:
    spec = benchmark_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(e2e == run.END_TO_END,
            f"BENCHMARK.json end_to_end {e2e} != run.py {run.END_TO_END}")
    require(layer == run.PER_LAYER,
            f"BENCHMARK.json per_layer differs from run.py")
    require(sorted(w["name"] for w in spec["workloads"])
            == sorted(workloads.WORKLOADS), "workload names differ")


def check_corpus_is_seeded() -> None:
    a = workloads.monomial_corpus(workloads.DEFAULT_SEED, 50)
    b = workloads.monomial_corpus(workloads.DEFAULT_SEED, 50)
    c = workloads.monomial_corpus(workloads.HELD_OUT_SEED, 50)
    require(a == b, "the same seed gave two different corpora")
    require(a != c, "the default and held-out seeds gave the same corpus")
    script = ROOT / "scripts" / "cross_validate.py"
    if not script.is_file():
        print("  (scripts/cross_validate.py absent; stream not compared)")
        return
    spec = importlib.util.spec_from_file_location("cross_validate", script)
    cv = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cv)
    import random
    rng = random.Random(workloads.DEFAULT_SEED)
    theirs = []
    while len(theirs) < 50:
        n, ideal, shifts, gens = cv.random_instance(rng)
        if gens:
            theirs.append((n, ideal.basis, shifts, gens))
    require(theirs == a, "corpus differs from cross_validate's stream")


def check_traced(workload: str, bound: float) -> None:
    out = run.start_worker(worker_args(workload), traced=True, timeout=150)
    require(not out.get("crashed"), f"{workload}: {out.get('problems')}")
    require(out["failed"] == 0, f"{workload}: {out['problems']}")
    missing = EXPECTED_SPANS[workload] - set(out["span_names"])
    require(not missing, f"{workload}: spans never fired: {sorted(missing)}")
    wall = out["wall_s"]
    for key in ("traced_root_s", "self_sum_s"):
        require(abs(out[key] - wall) <= bound * wall,
                f"{workload}: {key} {out[key]} vs traced wall {wall}")
    layers = out["layers"]
    if workload in workloads.NILPOTENT:
        require(layers["engine.ring_gb_calls"] == 7,
                f"{workload}: {layers['engine.ring_gb_calls']} ring bases")
    print(f"  {workload}: {out['span_count']} spans, self times sum to "
          f"{out['self_sum_s']:.4f} s of {wall:.4f} s traced wall")


def check_wrong_golden_fails() -> None:
    good = workloads.golden_path("nilpotent-fp").read_text(encoding="utf-8")
    run.OUT.mkdir(exist_ok=True)
    bad = run.OUT / "selftest-wrong-golden.json"
    bad.write_text(good.replace('"regularity": 3', '"regularity": 4'),
                   encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nilpotent-fp",
         "--seconds", "1", "--golden", str(bad)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    require(proc.returncode == 0, f"run.py exited {proc.returncode}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    require(last["failed"] > 0 and not last["correct"],
            f"a wrong golden file went unreported: {last}")
    print(f"  wrong golden: failed {last['failed']}/{last['attempted']}")


def main() -> int:
    bound = next(m["bound"] for m in benchmark_spec()["end_to_end"]
                 if m["name"] == "wall_s")
    covered = set().union(*EXPECTED_SPANS.values())
    wrapped = {name for _, _, name, _ in tracing.TARGETS} | {tracing.ROOT}
    checks = [
        ("BENCHMARK.json matches run.py", check_spec_matches_run),
        ("every wrapper is expected on some workload",
         lambda: require(wrapped == covered,
                         f"unexpected: {sorted(wrapped ^ covered)}")),
        ("the corpus is a function of its seed", check_corpus_is_seeded),
    ]
    checks += [(f"wrappers fire and self times add up on {w}",
                lambda w=w: check_traced(w, bound))
               for w in workloads.WORKLOADS]
    checks.append(("a wrong golden file counts as failed",
                   check_wrong_golden_fails))
    for name, check in checks:
        try:
            check()
        except Failed as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"PASS {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
