#!/usr/bin/env python3
"""Time the start-up of fresh interpreters against the work they do.

Three runs, alternated round by round over N fresh interpreters:
- bare: an interpreter that runs nothing;
- import: one that imports ncres, ncres.jsonio and ncres.monores, the
  modules a benchmark worker loads;
- resolve: the `ncres resolve` command on perfbench/data/flagship.json
  with --degree-bound 10 --length 7 --trust-finite --format json.

For each it prints the median and quartiles of the wall time, from
starting the child to reaping it, and of the child's own peak resident
set (ru_maxrss, read with os.wait4).  The children inherit the
environment, PYTHONDONTWRITEBYTECODE included: the benchmark sets it, so
its workers compile ncres from source.  The script writes no file.

    python3 scripts/cold_start.py [-n 15]
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAGSHIP = ROOT / "perfbench" / "data" / "flagship.json"

RUNS = {
    "bare": ["-c", "pass"],
    "import": ["-c", "import ncres, ncres.jsonio, ncres.monores"],
    "resolve": ["-c", "import sys; from ncres.cli import main; "
                      "sys.exit(main(sys.argv[1:]))",
                "resolve", str(FLAGSHIP), "--degree-bound", "10",
                "--length", "7", "--trust-finite", "--format", "json"],
}


def run_child(args, env):
    """(wall seconds, peak RSS in MB) of one child interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{args[:2]} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024  # Linux reports KiB


def summary(xs, fmt):
    q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                   if len(xs) > 1 else xs * 3)
    return f"{med:{fmt}} [{q1:{fmt}}, {q3:{fmt}}]"


def positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("needs at least one interpreter")
    return n


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=positive, default=15,
                    help="fresh interpreters per run (default 15)")
    args = ap.parse_args()

    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    samples = {name: [] for name in RUNS}
    for _ in range(args.n):
        for name, child in RUNS.items():
            samples[name].append(run_child(child, env))

    cache = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"{args.n} fresh interpreters per run, Python "
          f"{sys.version.split()[0]}, bytecode cache writes {cache}; "
          "median [quartiles]")
    for name, rows in samples.items():
        walls, rss = zip(*rows)
        print(f"{name:<8} wall_s {summary(walls, '.4f')}   "
              f"maxrss_mb {summary(rss, '.2f')}")


if __name__ == "__main__":
    main()
