#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternated pairs.

    python3 scripts/bench_pairs.py OLD NEW --workload nilpotent-fp \\
        --pairs 10 --seconds 40

Each pair runs `python3 perfbench/run.py --workload W --seconds S` once
in each checkout, one after the other; the side that goes first
alternates from pair to pair, so a drift of the host hits both sides
alike.  Each run's last line of standard output is its JSON result.
For every metric the script prints each side's median and quartiles
over the pairs, the change of the medians, the pairs NEW won (every
end-to-end metric is lower-better) and whether NEW's median is below
OLD's by more than OLD's interquartile range.  Its last line is one
JSON object with every sample.  The script writes no file; each run.py
writes its own record under its checkout's git-ignored perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    """The metric values of one perfbench/run.py run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of "
                         f"{result['attempted']} instances failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    """(q1, median, q3) of xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="the checkout to compare against")
    ap.add_argument("new", type=Path, help="the checkout under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    for path in sides.values():
        if not (path / "perfbench" / "run.py").is_file():
            ap.error(f"{path} has no perfbench/run.py")

    samples = {"old": [], "new": []}
    for i in range(args.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            samples[side].append(
                run_once(sides[side], args.workload, args.seconds))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + "  ".join(
            f"{side} " + " ".join(f"{k}={v:.6g}"
                                  for k, v in samples[side][-1].items())
            for side in ("old", "new")), flush=True)

    names = [n for n in samples["old"][0] if n in samples["new"][0]]
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs; "
          "median [q1, q3]")
    for name in names:
        old = [s[name] for s in samples["old"]]
        new = [s[name] for s in samples["new"]]
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
        won = sum(n < o for o, n in zip(old, new))
        change = (nmed - omed) / omed * 100 if omed else float("nan")
        print(f"{name:16s} old {omed:.6g} [{oq1:.6g}, {oq3:.6g}]  "
              f"new {nmed:.6g} [{nq1:.6g}, {nq3:.6g}]  {change:+.1f}%  "
              f"new won {won}/{args.pairs}  "
              + ("gain > old IQR" if omed - nmed > oq3 - oq1
                 else "no gain past old IQR"))
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "old": samples["old"], "new": samples["new"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
