"""The `hodge` report against a stored reference run.

``golden/hodge_reference.json`` holds the ``result`` of two `hodge` runs:
the default 64x64 grid with 50 trials and 128x128 with 10 trials.  Hodge
reports are not held to bytes, because the Neumann operator may be computed
along another route with other rounding.  Instead:

* integer fields (grid, counts, harmonic dimensions) are equal;
* the spectral and estimate values agree to a relative 1e-9;
* every residual field stays within its acceptance-criterion tolerance
  (criteria 9 and 10 in tests/test_acceptance.py).

After a deliberate, justified change, refresh the file with

    PYTHONPATH=src python tests/test_hodge_reference.py --write

which replaces only the fields that break these rules and keeps the rest
as stored: residuals, and values within 1e-9, differ from machine to
machine, and rewriting them would move fields the change did not touch.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hodgebench.cli import main

REFERENCE = Path(__file__).with_name("golden") / "hodge_reference.json"

COMMANDS = [
    ["hodge", "--seed", "0"],
    ["hodge", "--n-theta", "128", "--n-r", "128", "--trials", "10", "--seed", "0"],
]

RESIDUAL_TOL = {
    "identity_residual": 1e-8,
    "n_pi_residual": 1e-10,
    "hodge_orthogonality": 1e-8,
    "solve_dbar_vs_lstsq": 1e-8,
    "solve_dbar_residual": 1e-8,
}
# the spectral and estimate values; every other field is held to equality
APPROX = {
    "smallest_eig_deg1", "C_E_vs_Q", "C_D_vs_E", "median_E_vs_Q", "median_D_vs_E",
    "norm_diffs", "fitted_slope",
}
REL = 1e-9


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return json.loads(out.getvalue())["result"]


def passes(key, got, ref):
    if key in RESIDUAL_TOL:
        return got <= RESIDUAL_TOL[key]
    if key in APPROX:
        return got == pytest.approx(ref, rel=REL)
    return got == ref


def refresh(got, ref, path=()):
    """(ref with every field that breaks the rules against the fresh result
    got replaced by got's, the paths of those fields).  A field on one side
    only breaks them."""
    if not (isinstance(got, dict) and isinstance(ref, dict)):
        return (ref, []) if passes(path[-1], got, ref) else (got, [path])
    merged, broken = {}, [path + (k,) for k in ref if k not in got]
    for k, v in got.items():
        merged[k], sub = refresh(v, ref[k], path + (k,)) if k in ref else (v, [path + (k,)])
        broken += sub
    return merged, broken


def stored():
    return {" ".join(e["argv"]): e["result"] for e in json.loads(REFERENCE.read_text())}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_hodge_matches_reference(argv):
    _, broken = refresh(run(argv), stored()[" ".join(argv)])
    assert broken == []


def test_refresh_replaces_only_the_fields_that_break_the_rules():
    ref = {"grid": {"n_r": 64}, "smallest_eig_deg1": 2.0, "n_pi_residual": 5e-17,
           "norm_diffs": [0.1, 0.01], "fitted_slope": 1.0, "gone": 1}
    got = {"grid": {"n_r": 64}, "smallest_eig_deg1": 2.0 * (1 + 1e-12),
           "n_pi_residual": 6e-16, "norm_diffs": [0.1, 0.02], "fitted_slope": 1.0, "new": 2}
    merged, broken = refresh(got, ref)
    assert broken == [("gone",), ("norm_diffs",), ("new",)]
    assert merged == {"grid": {"n_r": 64}, "smallest_eig_deg1": 2.0, "n_pi_residual": 5e-17,
                      "norm_diffs": [0.1, 0.02], "fitted_slope": 1.0, "new": 2}
    _, broken = refresh({**got, "n_pi_residual": 1e-9}, ref)
    assert ("n_pi_residual",) in broken


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    old = stored() if REFERENCE.exists() else {}
    entries = []
    for argv in COMMANDS:
        got, key = run(argv), " ".join(argv)
        entries.append({"argv": argv, "result": refresh(got, old[key])[0] if key in old else got})
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(entries, indent=1) + "\n")
