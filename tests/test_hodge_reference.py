"""The `hodge` report against a stored reference run.

``golden/hodge_reference.json`` holds the ``result`` of two `hodge` runs:
the default 64x64 grid with 50 trials and 128x128 with 10 trials.  Hodge
reports are not held to bytes, because the Neumann operator may be computed
along another route with other rounding.  Instead:

* integer fields (grid, counts, harmonic dimensions) are equal;
* the spectral and estimate values agree to a relative 1e-9;
* every residual field stays within its acceptance-criterion tolerance
  (criteria 9 and 10 in tests/test_acceptance.py).

Regenerate after a deliberate, justified change with

    PYTHONPATH=src python tests/test_hodge_reference.py --write
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
REL = 1e-9


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return json.loads(out.getvalue())["result"]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_hodge_matches_reference(argv):
    ref = {" ".join(e["argv"]): e["result"] for e in json.loads(REFERENCE.read_text())}
    ref = ref[" ".join(argv)]
    got = run(argv)
    assert set(got) == set(ref)
    for key in ("grid", "seed", "trials", "harmonic_dim_deg1"):
        assert got[key] == ref[key], key
    assert got["smallest_eig_deg1"] == pytest.approx(ref["smallest_eig_deg1"], rel=REL)
    est, est_ref = got["basic_estimate"], ref["basic_estimate"]
    assert set(est) == set(est_ref)
    for key, value in est_ref.items():
        if isinstance(value, int):
            assert est[key] == value, key
        else:
            assert est[key] == pytest.approx(value, rel=REL), key
    fam, fam_ref = got["family_rescaling"], ref["family_rescaling"]
    assert set(fam) == set(fam_ref)
    assert fam["eps"] == fam_ref["eps"]
    assert fam["harmonic_dims_deg1"] == fam_ref["harmonic_dims_deg1"]
    assert fam["max_profile"] == fam_ref["max_profile"]
    assert fam["norm_diffs"] == pytest.approx(fam_ref["norm_diffs"], rel=REL)
    assert fam["fitted_slope"] == pytest.approx(fam_ref["fitted_slope"], rel=REL)
    for key, tol in RESIDUAL_TOL.items():
        assert got[key] <= tol, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    REFERENCE.parent.mkdir(exist_ok=True)
    entries = [{"argv": argv, "result": run(argv)} for argv in COMMANDS]
    REFERENCE.write_text(json.dumps(entries, indent=1) + "\n")
