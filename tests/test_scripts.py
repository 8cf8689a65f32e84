"""Run each script in scripts/ at desk size in a fresh interpreter, so
that an API change which breaks one of them fails here."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("argv, summary", [
    (["cross_validate.py", "--instances", "3"], "3 instances, 0 mismatches,"),
    (["dimension_sweep.py", "--instances", "2", "--dmax", "3"],
     ", 0 failures,"),
], ids=["cross_validate", "dimension_sweep"])
def test_validation_script_reports_no_failures(argv, summary):
    assert summary in run_script(*argv)[-1]


def test_run_reference_with_and_without_compression():
    on = run_script("run_reference.py", "--length", "3",
                    "--degree-bound", "5")
    off = run_script("run_reference.py", "--length", "3",
                     "--degree-bound", "5", "--no-tshift")
    assert on[0].startswith("status: truncated(5)") and "tshift=on" in on[0]
    assert off[0].startswith("status: truncated(5)") and "tshift=off" in off[0]
    # the table and the shifts do not depend on compression; the per-step
    # lines (offset, block size) do
    table = lambda out: [l for l in out[1:] if not l.startswith("step ")]
    assert table(on) == table(off)
    assert any(l.startswith("  level 3:") for l in on)


def test_output_hash_on_a_tiny_subset():
    # 12 flagship resolves, one module per seed and compression, one
    # corpus instance per seed
    digest, count, unit = run_script("output_hash.py", "--modules", "1",
                                      "--corpus", "1")[-1].split()
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert (count, unit) == ("20", "resolves")


def test_output_hash_pins_the_bytes_of_every_resolve():
    """The digest over the default 472 resolves: a change that moves the
    rendered bytes on purpose re-pins it and says so."""
    assert run_script("output_hash.py")[-1] == (
        "cd9ca69f355a2bcd1cf07ebdc592eb1a3502e097a9335e45717bd29c93af6bdb"
        "  472 resolves")


def test_cold_start_with_one_interpreter():
    lines = run_script("cold_start.py", "-n", "1")
    assert lines[0].startswith("1 fresh interpreters per run")
    assert [line.split()[0] for line in lines[1:]] == \
        ["bare", "import", "resolve"]
    assert all("wall_s" in line and "maxrss_mb" in line
               for line in lines[1:])


def test_bench_pairs_alternates_two_checkouts(tmp_path):
    """Two copies of this tree, two pairs of short runs: the side that
    goes first alternates, every end-to-end metric is summarized, and the
    last line carries every sample.  Nothing is written to this tree."""
    root = SCRIPTS.parent
    tree = lambda: sorted((root / "perfbench").rglob("*"))
    before = tree()
    sides = []
    skip = shutil.ignore_patterns("out", "__pycache__")
    for name in ("old", "new"):
        side = tmp_path / name
        for part in ("src", "perfbench"):
            shutil.copytree(root / part, side / part, ignore=skip)
        sides.append(str(side))
    lines = run_script("bench_pairs.py", *sides, "--workload", "nilpotent-fp",
                       "--pairs", "2", "--seconds", "0.1")
    assert lines[0].startswith("pair 1/2 (old first): old wall_s=")
    assert lines[1].startswith("pair 2/2 (new first): old wall_s=")
    assert lines[2].startswith("nilpotent-fp: 2 pairs of 0.1 s runs")
    assert [line.split()[0] for line in lines[3:-1]] == [
        "wall_s", "setup_s", "peak_rss_mb", "instance_p50_s",
        "instance_tail_s"]
    assert all("new won " in line for line in lines[3:-1])
    samples = json.loads(lines[-1])
    assert len(samples["old"]) == len(samples["new"]) == 2
    assert all((tmp_path / name / "perfbench" / "out").is_dir()
               for name in ("old", "new"))
    assert tree() == before
