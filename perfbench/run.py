#!/usr/bin/env python3
"""Benchmark entry point for ncres.

    python3 perfbench/run.py --workload nilpotent-q --seed 0 \\
        --seconds 40 --trace 0

One closed-loop caller: for --seconds it starts one fresh interpreter at
a time on worker.py, waits for it, and starts the next.  Each worker
imports ncres, makes its inputs, resolves them cold and checks every
output.  With --trace 0 it prints the end-to-end metrics; with --trace 1
it alternates untraced and traced workers and prints the per-layer
metrics, the tracing overhead included.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it give the environment, each metric with its unit and
sample count, and `failed_ratio` with its base.  The full record (every
sample, every problem found) goes to perfbench/out/.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
}

PER_LAYER = {
    "engine.ring_gb_s": "s",
    "engine.ring_gb_calls": "count",
    "engine.ring_basis_elems": "count",
    "engine.ring_nf_s": "s",
    "engine.ring_nf_calls": "count",
    "syzygy.raw_s": "s",
    "syzygy.minimalize_s": "s",
    "syzygy.frame_gb_s": "s",
    "syzygy.raw_syzygies": "count",
    "syzygy.candidates": "count",
    "syzygy.kept": "count",
    "syzygy.kept_ratio": "ratio",
    "resolver.self_s": "s",
    "resolver.steps": "count",
    "resolver.generators_out": "count",
    "resolver.step_max_s": "s",
    "letterplace.encode_s": "s",
    "letterplace.decode_s": "s",
    "homog.eta_s": "s",
    "linalg.rref_s": "s",
    "linalg.rref_calls": "count",
    "freealg.validate_s": "s",
    "jsonio.parse_s": "s",
    "jsonio.render_s": "s",
    "monores.oracle_s": "s",
    "trace.overhead_s": "s",
}

MIN_SAMPLES = 3         # untraced workers per run, whatever --seconds says
MIN_TRACED = 2          # traced workers per --trace 1 run
RUN_CAP_S = 150.0       # no worker starts after this, so a run ends < 180 s
TAIL_BEYOND = 10        # the tail percentile keeps this many samples above it


def environment(first_worker: dict, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "backend": first_worker.get("backend", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "corpus_size": workloads.CORPUS_SIZE,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the enclosing checkout, read without running git; the
    benchmark may run from an export that has no .git at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def start_worker(args, traced: bool, timeout: float) -> dict:
    """Run one cold worker; a crash or timeout counts every instance it
    was given as failed."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--corpus-seed", str(args.corpus_seed),
           "--trace", "1" if traced else "0"]
    if args.golden:
        cmd += ["--golden", args.golden]
    if traced:
        cmd += ["--spans-out",
                str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        reason = f"worker timed out after {timeout:.0f} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                out = json.loads(lines[-1])
            except json.JSONDecodeError:
                out = None
            if isinstance(out, dict):
                out["elapsed_s"] = time.monotonic() - t0
                return out
        reason = (f"worker exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-400:]}")
    n = 1 if args.workload in workloads.NILPOTENT else workloads.CORPUS_SIZE
    return {"attempted": n, "failed": n, "problems": [reason],
            "traced": traced, "crashed": True,
            "elapsed_s": time.monotonic() - t0}


def tail(values) -> float:
    """The highest percentile with at least TAIL_BEYOND samples above it;
    the slowest sample when there are too few for that."""
    ordered = sorted(values)
    if len(ordered) > TAIL_BEYOND:
        return ordered[-TAIL_BEYOND - 1]
    return ordered[-1]


def end_to_end(plain: list) -> tuple:
    """(metrics, sample notes) over the untraced workers of a run.

    Times are the fastest worker's: on a shared machine interference
    only ever adds time, and it comes in episodes long enough to slow
    every worker of a run, which moves the median far more than the
    minimum (see NOTES.md).  Set-up time and memory are medians."""
    walls = [w["wall_s"] for w in plain]
    per_instance = [min(times)
                    for times in zip(*(w["instance_s"] for w in plain))]
    metrics = {
        "wall_s": min(walls),
        "setup_s": statistics.median(w["setup_s"] for w in plain),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in plain),
        "instance_p50_s": statistics.median(per_instance),
        "instance_tail_s": tail(per_instance),
    }
    n = len(plain)
    notes = {
        "wall_s": (f"fastest of {n} workers; "
                   f"median {statistics.median(walls):.6g}"),
        "setup_s": f"median of {n} workers",
        "peak_rss_mb": f"median of {n} workers",
    }
    notes["instance_p50_s"] = notes["instance_tail_s"] = (
        f"{len(per_instance)} instance(s), each the fastest of {n} workers")
    return metrics, notes


def per_layer(plain: list, traced: list) -> tuple:
    """(metrics, sample notes): medians over the traced workers, and the
    fastest traced minus the fastest untraced wall time as the tracing
    overhead."""
    metrics = {name: statistics.median(w["layers"][name] for w in traced)
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (min(w["wall_s"] for w in traced)
                                   - min(w["wall_s"] for w in plain))
    notes = {name: f"median of {len(traced)} traced workers"
             for name in metrics}
    notes["trace.overhead_s"] = (f"{len(traced)} traced, "
                                 f"{len(plain)} untraced workers")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="ncres benchmark (see perfbench/NOTES.md)")
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help="orders the corpus; the nilpotent inputs are fixed")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int,
                    default=workloads.DEFAULT_SEED,
                    help=f"draws the monomial corpus (default "
                         f"{workloads.DEFAULT_SEED}; held-out seed "
                         f"{workloads.HELD_OUT_SEED})")
    ap.add_argument("--golden", default=None,
                    help="golden rendering to compare against (default: "
                         "the one in perfbench/data)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ncres" / "__init__.py").is_file():
        print(f"error: no ncres sources under {ROOT / 'src'}; run the "
              f"benchmark from the root of an ncres checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    workers: list = []
    while True:
        traced = bool(args.trace) and len(workers) % 2 == 1
        elapsed = time.monotonic() - start
        workers.append(start_worker(args, traced,
                                    timeout=max(5.0, 170.0 - elapsed)))
        elapsed = time.monotonic() - start
        if elapsed > RUN_CAP_S:
            break
        done = [w for w in workers if not w.get("crashed")]
        n_plain = sum(1 for w in done if not w["traced"])
        n_traced = len(done) - n_plain
        enough = n_plain >= MIN_SAMPLES and (
            not args.trace or n_traced >= MIN_TRACED)
        if len(workers) - len(done) >= MIN_SAMPLES:
            break  # the program is broken; stop paying for it
        typical = statistics.median(w["elapsed_s"] for w in workers)
        if enough and elapsed + typical > args.seconds:
            break

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    plain = [w for w in workers if not w.get("crashed") and not w["traced"]]
    traced = [w for w in workers if not w.get("crashed") and w["traced"]]
    env = environment(plain[0] if plain else {}, args)
    metrics, notes, units = {}, {}, {}
    if plain and (traced or not args.trace):
        if args.trace:
            metrics, notes = per_layer(plain, traced)
            units = PER_LAYER
        else:
            metrics, notes = end_to_end(plain)
            units = END_TO_END

    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:26s} {value:.6g} {units[name]}  ({notes[name]})")
    print(f"failed_ratio {failed}/{attempted} = "
          f"{failed / attempted if attempted else 0.0:.4g} "
          f"(base: instances attempted over {len(workers)} worker(s))")
    problems = [p for w in workers for p in w.get("problems", [])]
    for p in problems[:10]:
        print(f"  failure: {p}")

    record = {"env": env, "workers": workers, "metrics": metrics,
              "attempted": attempted, "failed": failed}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
