"""Exit codes, output formats, and the oracle hookup of the command
line. Everything runs in-process through main(argv)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ncres.cli as cli
import ncres.monores as monores
from ncres.resolver import BettiTable, ResourceLimit

FLAGSHIP = Path(__file__).resolve().parent / "data" / "flagship.json"

SQUARE = json.dumps({
    "field": "Q", "generators": ["x"],
    "relations": [[{"coeff": "1", "word": ["x", "x"]}]],
    "module": {"shifts": [0],
               "generators": [[{"coeff": "1", "component": 0,
                                "word": ["x"]}]]},
})

KOSZUL = json.dumps({
    "field": "Q", "generators": ["x", "y"],
    "relations": [[{"coeff": "1", "word": ["x", "y"]},
                   {"coeff": "-1", "word": ["y", "x"]}]],
    "module": {"shifts": [0],
               "generators": [[{"coeff": "1", "component": 0, "word": ["x"]}],
                              [{"coeff": "1", "component": 0,
                                "word": ["y"]}]]},
})


def write(tmp_path, text, name="in.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_resolve_text_output(tmp_path, capsys):
    path = write(tmp_path, SQUARE)
    rc = cli.main(["resolve", path, "--length", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: truncated(4)" in out
    assert "shape: A <- A[-1] <- A[-2] <- A[-3] <- A[-4]" in out
    assert "0:     1    1    1    1    1" in out


def test_resolve_json_output_and_determinism(tmp_path, capsys):
    path = write(tmp_path, KOSZUL)
    args = ["resolve", path, "--degree-bound", "4", "--length", "3",
            "--format", "json"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["status"] == "truncated(4)"
    assert {(b["homological"], b["slanted"]): b["value"]
            for b in doc["betti"]} == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    assert doc["timings"] is None


def test_resolve_reads_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO(SQUARE))
    rc = cli.main(["resolve", "-", "--length", "2"])
    assert rc == 0
    assert "status:" in capsys.readouterr().out


def test_parse_failure_exits_1(tmp_path, capsys):
    path = write(tmp_path, SQUARE.replace('"1"', '"1.5"', 1))
    rc = cli.main(["resolve", path])
    err = capsys.readouterr().err
    assert rc == 1
    assert "1.5" in err


def test_missing_file_exits_1(tmp_path, capsys):
    rc = cli.main(["resolve", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_bad_degree_bound_exits_1(tmp_path, capsys):
    path = write(tmp_path, SQUARE)
    rc = cli.main(["resolve", path, "--degree-bound", "0"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_require_certified_truncation_exits_3(tmp_path, capsys):
    path = write(tmp_path, SQUARE)
    rc = cli.main(["resolve", path, "--require-certified", "--length", "3"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "truncated" in out  # the document is still printed


@pytest.mark.parametrize("bound", [["--degree-bound", "6"], []])
def test_require_certified_passes_without_minimal_generators(tmp_path,
                                                             capsys, bound):
    doc = json.loads(FLAGSHIP.read_text(encoding="utf-8"))
    doc["module"]["generators"] = []
    path = write(tmp_path, json.dumps(doc))
    rc = cli.main(["resolve", path, "--require-certified", *bound])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: certified" in out
    assert "shape: A <- 0" in out


def test_oracle_match_on_monomial_input(tmp_path, capsys):
    path = write(tmp_path, SQUARE)
    rc = cli.main(["resolve", path, "--oracle-compare", "--length", "4",
                   "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["oracle"]["ran"] is True
    assert doc["oracle"]["match"] is True
    assert doc["oracle"]["diff"] == []


def test_oracle_skipped_on_nonmonomial_input(tmp_path, capsys):
    path = write(tmp_path, KOSZUL)
    rc = cli.main(["resolve", path, "--oracle-compare", "--length", "3",
                   "--degree-bound", "4", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["oracle"]["ran"] is False
    assert "not monomial" in doc["oracle"]["reason"]


def test_oracle_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    def wrong_table(ideal, module, length_bound):
        return BettiTable({(0, 0): 1, (1, 0): 99}, truncated=False)

    monkeypatch.setattr(monores, "monomial_resolution", wrong_table)
    path = write(tmp_path, SQUARE)
    rc = cli.main(["resolve", path, "--oracle-compare", "--length", "3",
                   "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["oracle"]["match"] is False
    assert any(row["oracle"] == 99 for row in doc["oracle"]["diff"])


def test_internal_invariant_violation_exits_4(tmp_path, capsys,
                                             monkeypatch):
    def broken(req):
        raise RuntimeError("forced-block element is redundant")

    monkeypatch.setattr(cli, "resolve", broken)
    rc = cli.main(["resolve", write(tmp_path, SQUARE)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("error: internal invariant violated")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_hostile_degree_bound_exits_5():
    """A degree bound past the window guard stops before any key or mask
    as wide as the window is built: exit 5, one line, no output."""
    proc = subprocess.run(
        [sys.executable, "-m", "ncres.cli", "resolve", str(FLAGSHIP),
         "--degree-bound", "1000000000"], capture_output=True, text=True,
        timeout=300, cwd=Path(cli.__file__).resolve().parents[1])
    assert proc.returncode == 5 and proc.stdout == ""
    assert proc.stderr.startswith("error: resource limit: degree bound "
                                  "1000000000 is above the window guard")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def _wide_shift_input(shift):
    """k[x,y] with the module shifts (0, shift) and generators x e_0 and
    y e_1, of degrees 1 and shift + 1."""
    return json.dumps({
        "field": "Q", "generators": ["x", "y"],
        "relations": [[{"coeff": "1", "word": ["x", "y"]},
                       {"coeff": "-1", "word": ["y", "x"]}]],
        "module": {"shifts": [0, shift], "generators": [
            [{"coeff": "1", "component": 0, "word": ["x"]}],
            [{"coeff": "1", "component": 1, "word": ["y"]}]]}})


def test_wide_component_shift_hits_the_block_guard(tmp_path):
    """At shifts (0, 500000) a step's forced block would hold 3 * 500002
    elements, each a mask as wide as the places up to its own: the run
    stops before it encodes a generator, exit 5, one line, no output, in
    under 2 s."""
    path = tmp_path / "wide.json"
    path.write_text(_wide_shift_input(500_000))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ncres.cli", "resolve", str(path)],
        capture_output=True, text=True, timeout=300,
        cwd=Path(cli.__file__).resolve().parents[1])
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 5 and proc.stdout == ""
    assert proc.stderr.startswith("error: resource limit: a forced block "
                                  "of 1500006 elements is above the block "
                                  "guard of 50000")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_component_shift_under_the_block_guard_resolves(tmp_path, capsys):
    """At shifts (0, 16000) the forced block holds 48,006 elements, under
    the guard: x e_0 and y e_1 generate freely, so the table is two
    generators at each of levels 0 and 1."""
    path = tmp_path / "wide.json"
    path.write_text(_wide_shift_input(16_000))
    assert cli.main(["resolve", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {(b["homological"], b["slanted"], b["value"])
            for b in doc["betti"]} == {(0, 0, 1), (0, 16_000, 1),
                                       (1, 0, 1), (1, 16_000, 1)}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_exits_141_without_a_traceback(fmt):
    """Standard output is a pipe whose read end is closed before the run:
    the first write fails, and the CLI exits 141 (128 + SIGPIPE) with
    nothing on stderr, the flush at shutdown included."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncres.cli", "resolve", str(FLAGSHIP),
             "--degree-bound", "5", "--format", fmt], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=300,
            cwd=Path(cli.__file__).resolve().parents[1])
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_resource_limit_exits_5(tmp_path, capsys, monkeypatch):
    def too_big(req):
        raise ResourceLimit("more than 10000 stair rows at degree 9")

    monkeypatch.setattr(cli, "resolve", too_big)
    rc = cli.main(["resolve", write(tmp_path, SQUARE)])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.out == ""
    assert captured.err == ("error: resource limit: more than 10000 "
                            "stair rows at degree 9\n")


def test_timings_populated_only_on_request(tmp_path, capsys):
    path = write(tmp_path, SQUARE)
    cli.main(["resolve", path, "--length", "2", "--timings",
              "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["timings"]) == {"parse", "resolve", "oracle", "total"}
    assert doc["timings"]["total"] >= doc["timings"]["resolve"]


def test_check_passes_on_clean_input(tmp_path, capsys):
    path = write(tmp_path, KOSZUL)
    rc = cli.main(["check", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS validation" in out
    assert "PASS dimension-equalities" in out
    assert "PASS round-trips" in out
    assert "PASS encoding-product-law" in out
    assert "PASS presentation-map-commutes" in out


def test_check_on_a_large_alphabet_hits_the_word_guard(tmp_path, capsys):
    """40 relation-free letters give 40^4 words in degree 4: the check
    must stop at once with one line and exit 5, not enumerate them."""
    names = [f"a{i}" for i in range(40)]
    doc = {"field": "Q", "generators": names, "relations": [],
           "module": {"shifts": [0],
                      "generators": [[{"coeff": "1", "component": 0,
                                       "word": ["a0"]}]]}}
    start = time.perf_counter()
    rc = cli.main(["check", write(tmp_path, json.dumps(doc))])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 5
    assert elapsed < 1.0
    assert captured.out == ""
    assert captured.err.startswith("error: resource limit: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_check_reports_validation_failure(tmp_path, capsys):
    bad = json.dumps({
        "field": "Q", "generators": ["x"],
        "relations": [[{"coeff": "1", "word": ["x", "x"]},
                       {"coeff": "1", "word": ["x"]}]],
        "module": {"shifts": [0], "generators": []},
    })
    path = write(tmp_path, bad)
    rc = cli.main(["check", path])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL validation" in out
    assert "PASS" not in out


@pytest.mark.parametrize("command", ["resolve", "check"])
@pytest.mark.parametrize("key, value", [
    ("relations", 5),
    ("module", {"shifts": [0], "generators": 5}),
    ("module", {"shifts": [True], "generators": []}),
    ("relations", [[{"coeff": "1", "word": [["x"]]}]]),
    ("module", {"shifts": [0], "generators": [[{"coeff": "1", "component": 0,
                                                "word": [{"x": 1}]}]]}),
])
def test_malformed_sections_exit_1_with_one_line(tmp_path, capsys, command,
                                                 key, value):
    doc = json.loads(SQUARE)
    doc[key] = value
    rc = cli.main([command, write(tmp_path, json.dumps(doc))])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_check_unparseable_exits_1(tmp_path, capsys):
    path = write(tmp_path, "{")
    rc = cli.main(["check", path])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resolve", "check"])
@pytest.mark.parametrize("old, new", [
    ('"coeff": "1"', '"coeff": "' + "7" * 5000 + '"'),
    ('"coeff": "1"', '"coeff": "1/' + "7" * 5000 + '"'),
    ('"shifts": [0]', '"shifts": [' + "7" * 5000 + ']'),
], ids=["coefficient", "denominator", "shift"])
def test_over_long_integers_exit_1_with_one_line(tmp_path, capsys, command,
                                                 old, new):
    rc = cli.main([command, write(tmp_path, SQUARE.replace(old, new, 1))])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["resolve", "check"])
@pytest.mark.parametrize("data", [
    SQUARE.replace('"Q"', '"é"').encode("latin-1"),
    b"[" * 200_000,
], ids=["not-utf8", "deeply-nested"])
def test_hostile_bytes_exit_1_with_one_line(tmp_path, capsys, command, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    rc = cli.main([command, str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["resolve", "check"])
def test_deeply_nested_letter_quotes_a_short_value(tmp_path, capsys, command):
    doc = json.loads(SQUARE)
    letter = "x"
    for _ in range(900):
        letter = [letter]
    doc["relations"] = [[{"coeff": "1", "word": [letter]}]]
    rc = cli.main([command, write(tmp_path, json.dumps(doc))])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert len(lines[0]) < 200


IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import ncres.cli
cli_only = set(sys.modules) - before
import ncres, ncres.jsonio, ncres.monores
imported = set(sys.modules) - before
rc = ncres.cli.main(["check", sys.argv[2]])
checked = set(sys.modules) - before
print(json.dumps([rc, sorted(cli_only), sorted(imported), sorted(checked)]))
"""


def test_import_footprint_in_a_fresh_interpreter(tmp_path):
    """Importing the library and the CLI loads neither dataclasses nor
    inspect, the CLI alone does not load monores (only --oracle-compare
    needs it), and only `check` loads checks and dims.  The sets are
    differences, so modules a site preloads do not count."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src, write(tmp_path, KOSZUL)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, cli_only, imported, checked = json.loads(
        proc.stdout.splitlines()[-1])
    assert rc == 0
    assert "ncres.cli" in cli_only and "ncres.monores" not in cli_only
    assert "ncres.cli" in imported
    assert not {"dataclasses", "inspect"} & set(imported)
    assert not {"ncres.checks", "ncres.dims"} & set(imported)
    assert {"ncres.checks", "ncres.dims"} <= set(checked)
