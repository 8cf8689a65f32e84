"""Command-line surface.

Two subcommands: resolve (run the resolution pipeline on a JSON
presentation, optionally cross-checked against the monomial oracle) and
check (run the instance-level invariant suite).  Exit codes: 0 success,
1 parse or validation failure, 2 oracle mismatch, 3 truncated result
under --require-certified, 4 internal invariant violated, 5 resource
limit hit, 141 (128 + SIGPIPE) standard output closed by its reader, as
when piped into `head`: the rest of the output is dropped, with no
message.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

from .freealg import ModulePresentation, validate_presentation
from .jsonio import InputError, parse_input, render_json, resolution_document
from .resolver import (Resolution, ResolutionRequest, ResourceLimit,
                       betti_summary, render_betti_text, resolve)


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8: {exc}")


def _monomial_view(module: ModulePresentation) -> Optional[tuple]:
    """The (ideal, monores.MonomialModule) pair over words when every
    relation and every generator is a single term, else None.  Generators
    that land inside the ideal are zero in the quotient and are dropped
    up front."""
    from .monores import MonomialModule, in_ideal, monomial_ideal
    words = []
    for rel in module.algebra.relations:
        if len(rel) != 1:
            return None
        words.append(next(iter(rel)))
    gens = []
    for g in module.generators:
        if len(g) != 1:
            return None
        gens.append(next(iter(g)))
    ideal = monomial_ideal(words)
    kept = [(i, w) for (i, w) in gens if not in_ideal(ideal, w)]
    return ideal, MonomialModule(tuple(module.shifts), kept)


def _run_oracle(module: ModulePresentation, res: Resolution,
                length_bound: int) -> dict:
    view = _monomial_view(module)
    if view is None:
        return {"ran": False, "reason": "input is not monomial",
                "match": None, "compared_through_degree": None, "diff": []}
    from .monores import monomial_resolution  # here, so resolve loads none
    ideal, mmod = view
    oracle_table = monomial_resolution(ideal, mmod, length_bound)
    left = dict(res.table.entries)
    right = dict(oracle_table.entries)
    compared: Optional[int] = None
    if res.status != "certified":
        # a truncated run only promises entries up to the smallest window
        compared = min(res.windows) if res.windows else 0
        left = {k: v for k, v in left.items() if k[0] + k[1] <= compared}
        right = {k: v for k, v in right.items() if k[0] + k[1] <= compared}
    diff = []
    for key in sorted(set(left) | set(right)):
        if left.get(key, 0) != right.get(key, 0):
            diff.append({"homological": key[0], "slanted": key[1],
                         "resolver": left.get(key, 0),
                         "oracle": right.get(key, 0)})
    return {"ran": True, "match": not diff,
            "compared_through_degree": compared, "diff": diff}


def _shape_text(res: Resolution) -> str:
    levels = sorted(res.level_shifts)
    parts = []
    terminated = (not res.minimal_input
                  or bool(res.steps) and not res.steps[-1].generators)
    for lev in levels:
        degs = res.level_shifts[lev]
        if not degs:
            continue
        groups = []
        for d in sorted(set(degs)):
            k = degs.count(d)
            base = "A" if d == 0 else f"A[{-d}]"
            groups.append(base if k == 1 else f"{base}^{k}")
        parts.append(" + ".join(groups))
    line = " <- ".join(parts) if parts else "0"
    if terminated:
        line += " <- 0"
    return line


def _print_text(doc: dict, res: Resolution) -> None:
    out = []
    out.append(f"status: {doc['status']}")
    out.append(f"regularity: {doc['regularity']}")
    out.append(f"global dimension: {doc['global_dimension']}")
    out.append("windows: " + (" ".join(str(w) for w in doc["windows"])
                              if doc["windows"] else "(none)")
               + f" [{doc['window_policy']}]")
    out.append(f"shape: {_shape_text(res)}")
    out.append("")
    out.append(render_betti_text(res.table))
    oracle = doc.get("oracle")
    if oracle is not None:
        if not oracle["ran"]:
            out.append(f"oracle: skipped ({oracle['reason']})")
        elif oracle["match"]:
            scope = (f" through degree {oracle['compared_through_degree']}"
                     if oracle["compared_through_degree"] is not None else "")
            out.append(f"oracle: match{scope}")
        else:
            out.append(f"oracle: MISMATCH ({len(oracle['diff'])} entries)")
            for row in oracle["diff"]:
                out.append(f"  ({row['homological']}, {row['slanted']}): "
                           f"resolver {row['resolver']} vs "
                           f"oracle {row['oracle']}")
    timings = doc.get("timings")
    if timings is not None:
        out.append("timings: " + " ".join(
            f"{k}={v:.3f}s" for k, v in timings.items()))
    print("\n".join(out))


def cmd_resolve(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    try:
        module = parse_input(_read_source(args.input))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t_parse = time.perf_counter() - t0
    req = ResolutionRequest(module,
                            degree_bound=args.degree_bound,
                            length_bound=args.length,
                            tshift=not args.no_tshift,
                            trust_finite=args.trust_finite)
    t1 = time.perf_counter()
    try:
        res = resolve(req)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimit as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 5
    except (AssertionError, RuntimeError) as exc:
        print(f"error: internal invariant violated: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    t_resolve = time.perf_counter() - t1
    oracle = None
    t_oracle = 0.0
    if args.oracle_compare:
        t2 = time.perf_counter()
        oracle = _run_oracle(module, res, args.length)
        t_oracle = time.perf_counter() - t2
    timings = None
    if args.timings:
        timings = {"parse": round(t_parse, 6),
                   "resolve": round(t_resolve, 6),
                   "oracle": round(t_oracle, 6),
                   "total": round(time.perf_counter() - t0, 6)}
    doc = resolution_document(res, oracle=oracle, timings=timings)
    if args.format == "json":
        sys.stdout.write(render_json(doc))
    else:
        _print_text(doc, res)
    if oracle is not None and oracle["ran"] and not oracle["match"]:
        return 2
    if args.require_certified and res.status != "certified":
        return 3
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_all  # here, so resolve loads no checks or dims

    try:
        module = parse_input(_read_source(args.input), validate=False)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = validate_presentation(module)
    if problems:
        print("FAIL validation")
        for p in problems:
            print(f"    {p}")
        return 1
    try:
        results = run_all(module, dmax=4, trials=25, seed=0)
    except ResourceLimit as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 5
    print("PASS validation")
    failed = False
    for name, failures in results:
        if failures:
            failed = True
            print(f"FAIL {name}")
            for f in failures[:8]:
                print(f"    {f}")
            if len(failures) > 8:
                print(f"    ... and {len(failures) - 8} more")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncres",
        description="Minimal graded free resolutions of right modules "
                    "over finitely presented graded algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser(
        "resolve", help="compute a resolution from a JSON presentation")
    p_res.add_argument("input", help="input JSON file, or - for stdin")
    p_res.add_argument("--degree-bound", type=int, default=None,
                       help="truncation degree for every syzygy step "
                            "(default: per-step heuristic)")
    p_res.add_argument("--length", type=int, default=7,
                       help="number of resolution levels to compute")
    p_res.add_argument("--no-tshift", action="store_true",
                       help="disable compression of common "
                            "degree-balancing prefixes")
    p_res.add_argument("--oracle-compare", action="store_true",
                       help="on monomial input, cross-check the table "
                            "against the combinatorial oracle")
    p_res.add_argument("--trust-finite", action="store_true",
                       help="certify a terminated resolution even when "
                            "the generic degree bound is out of reach")
    p_res.add_argument("--require-certified", action="store_true",
                       help="exit 3 unless the result is certified")
    p_res.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the output")
    p_res.add_argument("--format", choices=("text", "json"),
                       default="text", help="output format")
    p_res.set_defaults(func=cmd_resolve)

    p_chk = sub.add_parser(
        "check", help="run the instance-level invariant suite")
    p_chk.add_argument("input", help="input JSON file, or - for stdin")
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader is gone; with stdout on devnull, the flush at
        # interpreter shutdown has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
