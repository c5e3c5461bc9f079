"""Byte-level contract for the boundary reports.

``golden/boundary_reports.json`` holds, for each command below, the exit
code, the sha256 of the report written to stdout and the stderr text.  A
change to classification, Levi forms or q-convexity that alters one byte of
one report fails here.  The digests were taken with numpy 2.4.6 (its bundled
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

from hodgebench.cli import main
from hodgebench.gallery import gallery_names

GOLDEN = Path(__file__).with_name("golden") / "boundary_reports.json"

COMMANDS = (
    [["classify", "--spec", name] for name in gallery_names()]
    + [["convexity", "--spec", name, "--samples", "300"] for name in gallery_names()]
    + [["levi", "--spec", name] for name in ("poisson_c4", "poisson_c6")]
)


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


def load_golden():
    return {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_boundary_report_bytes(argv):
    assert run(argv) == load_golden()[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=1) + "\n")
