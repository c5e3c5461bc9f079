"""Byte-level contract for the boundary, dsq and sobolev reports.

Each file under ``golden/`` holds, for each of its commands below, the exit
code, the sha256 of the report written to stdout and the stderr text:
``boundary_reports.json`` for classification, Levi forms and q-convexity,
``dsq_sobolev_reports.json`` for the d_L^2 residuals of the gallery and
every Sobolev suite.  A change that alters one byte of one report fails
here.  The digests were taken with numpy 2.4.6 (its bundled
OpenBLAS 0.3.31), scipy 1.17.1 and glibc 2.36 on x86-64; another LAPACK build
or libm may round differently.  After a deliberate, justified change
regenerate with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hodgebench.cli import SOBOLEV_SUITES, main
from hodgebench.gallery import gallery_names

GOLDEN_DIR = Path(__file__).with_name("golden")

COMMANDS = {
    "boundary_reports.json": (
        [["classify", "--spec", name] for name in gallery_names()]
        + [["convexity", "--spec", name, "--samples", "300"] for name in gallery_names()]
        + [["levi", "--spec", name] for name in ("poisson_c4", "poisson_c6")]
    ),
    "dsq_sobolev_reports.json": (
        [["dsq", "--spec", name] for name in gallery_names()]
        + [["sobolev", "--suite", suite, "--seed", "7"] for suite in SOBOLEV_SUITES]
    ),
}


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


def load_golden(name):
    entries = json.loads((GOLDEN_DIR / name).read_text())
    return {" ".join(entry["argv"]): entry for entry in entries}


@pytest.mark.parametrize("argv", COMMANDS["boundary_reports.json"], ids=" ".join)
def test_boundary_report_bytes(argv):
    assert run(argv) == load_golden("boundary_reports.json")[" ".join(argv)]


@pytest.mark.parametrize("argv", COMMANDS["dsq_sobolev_reports.json"], ids=" ".join)
def test_dsq_sobolev_report_bytes(argv):
    assert run(argv) == load_golden("dsq_sobolev_reports.json")[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, commands in COMMANDS.items():
        text = json.dumps([run(argv) for argv in commands], indent=1) + "\n"
        (GOLDEN_DIR / name).write_text(text)
