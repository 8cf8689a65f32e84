"""One cold benchmark process: import ncres, make the inputs, resolve,
check every output, and print one JSON line with the timings.

run.py starts a fresh interpreter on this file for every sample, so each
sample pays for the interpreter start, the ncres import and the empty
process-global caches, as every `ncres resolve` does.  `--t0` is the
`time.monotonic()` reading the parent took just before starting this
process; set-up time runs from it to the first `resolve` call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports no ncres)
from tracing import Tracer, layer_metrics, self_times  # noqa: E402


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_nilpotent(args, region, mark_first_resolve) -> dict:
    from ncres import jsonio, resolver

    text = workloads.nilpotent_document(args.workload)
    golden = Path(args.golden).read_text(encoding="utf-8")
    problems = []
    with region:
        t0 = time.perf_counter()
        try:
            module = jsonio.parse_input(text)
            req = resolver.ResolutionRequest(
                module, degree_bound=workloads.NILPOTENT_DEGREE_BOUND,
                length_bound=workloads.NILPOTENT_LENGTH, trust_finite=True)
            mark_first_resolve()
            res = resolver.resolve(req)
            rendered = jsonio.render_json(jsonio.resolution_document(res))
        except Exception as exc:  # every failure is counted, none aborts
            problems.append(_failure(exc))
        wall = time.perf_counter() - t0
    if not problems:
        problems = workloads.check_nilpotent(res, rendered, golden)
    return {"wall_s": wall, "instance_s": [wall],
            "attempted": 1, "failed": 1 if problems else 0,
            "problems": problems}


def run_corpus(args, region, mark_first_resolve) -> dict:
    from ncres import monores, resolver

    corpus = workloads.monomial_corpus(args.corpus_seed,
                                       workloads.CORPUS_SIZE)
    jobs = [workloads.corpus_request(inst) for inst in corpus]
    order = list(range(len(jobs)))
    random.Random(args.seed).shuffle(order)
    mark_first_resolve()
    times = [0.0] * len(jobs)  # in corpus order, whatever order ran
    problems = []
    with region:
        t0 = time.perf_counter()
        for k in order:
            req, ideal, mmod = jobs[k]
            t = time.perf_counter()
            try:
                res = resolver.resolve(req)
                oracle = monores.monomial_resolution(
                    ideal, mmod, workloads.CORPUS_LENGTH)
                found = workloads.check_corpus_instance(res, oracle)
            except Exception as exc:  # every failure is counted, none aborts
                found = [_failure(exc)]
            times[k] = time.perf_counter() - t
            if found:
                problems.append(f"instance {k} {corpus[k]}: "
                                f"{'; '.join(found)}")
        wall = time.perf_counter() - t0
    return {"wall_s": wall, "instance_s": times,
            "attempted": len(jobs), "failed": len(problems),
            "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--corpus-seed", type=int,
                    default=workloads.DEFAULT_SEED)
    ap.add_argument("--golden", default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--t0", type=float, default=None)
    args = ap.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    if args.golden is None:
        args.golden = str(workloads.golden_path(args.workload))

    t_import = time.perf_counter()
    import ncres  # noqa: F401
    import ncres.jsonio  # noqa: F401
    import ncres.monores  # noqa: F401
    import_s = time.perf_counter() - t_import
    from ncres.field import rationals
    backend = type(rationals().one).__module__.split(".")[0]

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-{args.seed}-{t0:.6f}")
        tracer.install()

    marks = {}

    def mark_first_resolve():
        marks.setdefault("setup_s", time.monotonic() - t0)

    runner = run_corpus if args.workload == "monomial-corpus" \
        else run_nilpotent
    if tracer is None:
        out = runner(args, contextlib.nullcontext(), mark_first_resolve)
    else:
        out = runner(args, tracer.root(), mark_first_resolve)
        tracer.uninstall()
        spans = tracer.spans
        out["layers"] = layer_metrics(spans)
        out["traced_root_s"] = spans[0][2] - spans[0][1]
        out["self_sum_s"] = sum(self_times(spans))
        out["span_count"] = len(spans)
        out["span_names"] = sorted({s[0] for s in spans})
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for s in spans:
                    fh.write(json.dumps(s) + "\n")

    out["setup_s"] = marks.get("setup_s", time.monotonic() - t0)
    out["import_s"] = import_s
    out["backend"] = backend
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    out["traced"] = bool(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
