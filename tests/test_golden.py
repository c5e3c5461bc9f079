"""Byte-level contract for every report that ``golden/commands.txt`` lists.

``golden/commands.txt`` holds one workbench command line per line.
``golden/reports.json`` holds, for each of them in the same order, the exit
code, the sha256 of the report written to stdout and the stderr text, except
for a `hodge` line that writes a report: those reports' residual fields vary
by machine, so test_hodge_reference.py holds them to tolerances and CI
compares their bytes with the base commit's.  A change that alters one byte
of one other report fails here.  The digests were taken with numpy 2.4.6
(its bundled OpenBLAS 0.3.31), scipy 1.17.1 and glibc 2.36 on x86-64;
another LAPACK build or libm may round differently.  After a deliberate,
justified change, or after adding a line to commands.txt, regenerate with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hodgebench.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
REPORTS = GOLDEN_DIR / "reports.json"


def manifest():
    """The argvs of commands.txt, in order."""
    lines = (GOLDEN_DIR / "commands.txt").read_text().splitlines()
    return [line.split() for line in lines if line.strip() and not line.startswith("#")]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {
        "argv": list(argv),
        "code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def pinned(entry):
    """Whether the run's bytes are held here: all but a `hodge` report."""
    return entry["argv"][0] != "hodge" or entry["code"] != 0


GOLDEN = json.loads(REPORTS.read_text())
# one check under two names, the boundary layer's commands and the rest
BOUNDARY = ("classify", "convexity", "levi")


def check(monkeypatch, entry):
    monkeypatch.chdir(ROOT)  # commands.txt names spec files from the repository root
    assert run(entry["argv"]) == entry


def entries(boundary):
    return pytest.mark.parametrize(
        "entry", [entry for entry in GOLDEN if (entry["argv"][0] in BOUNDARY) == boundary],
        ids=lambda entry: " ".join(entry["argv"]))


@entries(boundary=True)
def test_boundary_report_bytes(monkeypatch, entry):
    check(monkeypatch, entry)


@entries(boundary=False)
def test_dsq_sobolev_report_bytes(monkeypatch, entry):
    # dsq, sobolev and the error exits of hodge
    check(monkeypatch, entry)


def test_reports_hold_every_manifest_line_but_the_hodge_reports_in_order():
    lines = manifest()
    assert len({" ".join(argv) for argv in lines}) == len(lines)  # no line twice
    held = [entry["argv"] for entry in GOLDEN]
    assert held == [argv for argv in lines if argv in held]
    assert all(pinned(entry) for entry in GOLDEN)
    # every line left out writes a hodge report; the reference runs are
    # checked in test_hodge_reference.py, which reads its argvs from
    # hodge_reference.json, so each of those must be a line here too
    reference = json.loads((GOLDEN_DIR / "hodge_reference.json").read_text())
    references = [entry["argv"] for entry in reference]
    assert all(argv in lines for argv in references)
    for argv in lines:
        if argv not in held and argv not in references:
            assert not pinned(run(argv)), argv


def test_every_error_exit_prints_one_error_line_and_no_report():
    errors = [entry for entry in GOLDEN if entry["code"] == 1]
    assert errors
    empty = hashlib.sha256(b"").hexdigest()
    for entry in errors:
        assert entry["stdout_sha256"] == empty, entry["argv"]
        assert entry["stderr"].startswith("error: "), entry["argv"]
        assert entry["stderr"].count("\n") == 1, entry["argv"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.chdir(ROOT)
    recorded = [entry for entry in map(run, manifest()) if pinned(entry)]
    REPORTS.write_text(json.dumps(recorded, indent=1) + "\n")
