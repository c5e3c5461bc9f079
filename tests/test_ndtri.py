"""The Cephes ndtri port in levi against scipy.special.ndtri, bit for bit,
and the import contract it serves: the package loads no scipy module."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from hodgebench import levi
from hodgebench.gallery import gallery_names, gallery_spec

LO, HI = 1e-12, 1 - 1e-12  # sphere_lattice's clip range
SRC = Path(__file__).resolve().parent.parent / "src"


def assert_bit_equal(u):
    u = np.asarray(u, dtype=float)
    assert levi._ndtri(u).tobytes() == ndtri(u).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(LO, HI), min_size=1, max_size=64))
def test_port_matches_scipy_on_the_clip_range(values):
    assert_bit_equal(values)


def test_port_matches_scipy_at_the_branch_edges():
    edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), 0.5, LO, HI]
    # the branch tests compare with Cephes' decimal constant for exp(-2)
    edges += [levi._EXPM2, 1.0 - levi._EXPM2]
    points = []
    for e in edges:
        points += [np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)]
    points = np.clip(points, LO, HI)
    assert_bit_equal(points)
    assert_bit_equal(np.linspace(LO, HI, 100_001))


def gallery_counts():
    """The sphere_lattice counts the gallery specs sample at by default."""
    counts = set()
    for name in gallery_names():
        spec = gallery_spec(name)
        if spec.sampler == "two_spheres":
            counts |= {spec.samples // 2, spec.samples - spec.samples // 2}
        elif spec.sampler in ("sphere", "sphere_plus_locus"):
            counts.add(spec.samples)
    return sorted(counts)


@pytest.mark.parametrize("dim", range(3, 15))
def test_port_matches_scipy_on_every_lattice_input(monkeypatch, dim):
    # row k of a lattice depends on k alone, so a lattice of `count` points is
    # the first `count` rows of any larger one: the 4,400-point lattice holds
    # the inputs of every count from the gallery's defaults to 4,400
    seen, port = [], levi._ndtri

    def recording(u):
        seen.append(u.copy())
        return port(u)

    monkeypatch.setattr(levi, "_ndtri", recording)
    counts = gallery_counts() + [3_600, 4_400]
    assert max(counts) == 4_400
    lattices = {count: levi.sphere_lattice(dim, count) for count in counts}
    for count, pts in lattices.items():
        assert pts.tobytes() == lattices[4_400][:count].tobytes()
    monkeypatch.undo()
    for u in seen:
        assert u.min() >= LO and u.max() <= HI
        assert_bit_equal(u)


def loaded_modules(script):
    """The sys.modules keys after running `script` in a fresh interpreter."""
    code = script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def scipy_modules(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_cli_import_loads_no_scipy():
    assert scipy_modules(loaded_modules("import hodgebench.cli")) == []


def test_non_hodge_commands_load_no_scipy():
    # in-process runs, so an import moved from module level into main shows
    script = """
import contextlib, io
from hodgebench.cli import main
runs = [
    ["classify", "--spec", "poisson_c4", "--samples", "20"],
    ["convexity", "--spec", "ball_c2_dbar", "--samples", "20"],
    ["dsq", "--spec", "poisson_c4"],
    ["sobolev", "--suite", "A.ii", "--trials", "2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    assert [main(argv) for argv in runs] == [0, 0, 0, 0]
"""
    assert scipy_modules(loaded_modules(script)) == []


def test_hodge_loads_no_scipy():
    script = """
import contextlib, io
from hodgebench.cli import main
hodge = ["hodge", "--n-theta", "16", "--n-r", "32", "--trials", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    assert [main(argv) for argv in (hodge, hodge + ["--spectra"])] == [0, 0]
"""
    assert scipy_modules(loaded_modules(script)) == []


def test_battery_summaries_do_not_load_numpy_ma():
    # np.quantile and np.median import numpy.ma on their first call; hodge
    # takes its medians from the batteries' order statistics
    script = """
import contextlib, io
from hodgebench.cli import main
runs = [["sobolev", "--suite", "A.i"], ["sobolev", "--suite", "subestimate", "--trials", "3"],
        ["hodge", "--n-theta", "16", "--n-r", "32", "--trials", "3"]]
with contextlib.redirect_stdout(io.StringIO()):
    assert [main(argv) for argv in runs] == [0, 0, 0]
"""
    assert "numpy.ma" not in loaded_modules(script)
