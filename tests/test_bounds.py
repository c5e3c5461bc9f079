"""The table of work bounds: README states each bound's value, and the
eigen-work bounds of `hodge` admit every grid the project runs."""

import ast
import re
import time
from pathlib import Path

import pytest

from hodgebench import bounds
from hodgebench.cli import main

ROOT = Path(__file__).resolve().parent.parent
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def bound_names():
    """The module-level constants of bounds.py, each one bound."""
    tree = ast.parse(Path(bounds.__file__).read_text())
    return [target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z_]*", target.id)]


def stated_values(cell):
    """The numbers a value cell states, such as "2¹⁴ = 16,384": 2 to a
    superscript power, or an integer with thousands commas."""
    values = []
    for part in cell.split("="):
        power = re.fullmatch(r"2([⁰¹²³⁴⁵⁶⁷⁸⁹]+)", part.strip())
        values.append(2 ** int(power[1].translate(SUPERSCRIPTS)) if power
                      else int(part.strip().replace(",", "")))
    return values


def test_readme_states_each_bound_with_its_value():
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        name = re.match(r"\| [^|]*\(fixed, `(\w+)`\) \| ([^|]+) \|", line)
        if name:
            assert name[1] not in rows, f"README names {name[1]} twice"
            rows[name[1]] = stated_values(name[2])
    names = bound_names()
    assert names
    assert sorted(rows) == sorted(names), "README's bounds table and bounds.py differ"
    for name in names:
        assert set(rows[name]) == {getattr(bounds, name)}, name


def test_the_eigen_work_bounds_admit_every_grid_the_project_runs():
    # hodge at 64 x 64 (tier-1 and the labs workload), 128 x 128 and
    # 256 x 256 (CI), 16 x 32 under --spectra (the tests), and the edges:
    # 1022 x 1026, the most nodes at the largest n_r, and 8 modes of the
    # spectra at that n_r
    for n_theta, n_r, spectra in ((64, 64, False), (128, 128, False), (256, 256, False),
                                  (16, 32, True), (1022, 1026, False), (8, 1026, True),
                                  (512, 258, True)):
        bounds.check_eigen_work(n_theta, n_r, spectra)
    for n_theta, n_r, spectra, name in ((4, 1027, False, "_MAX_EIGEN_WORK"),
                                        (10, 1026, True, "_MAX_SPECTRA_WORK"),
                                        (514, 258, True, "_MAX_SPECTRA_WORK")):
        with pytest.raises(ValueError, match=name):
            bounds.check_eigen_work(n_theta, n_r, spectra)


@pytest.mark.parametrize("argv", [
    ["--n-theta", "4", "--n-r", "262144", "--trials", "1"],
    ["--n-theta", "1024", "--n-r", "1024", "--trials", "1", "--spectra"],
], ids=["tallest", "widest-spectra"])
def test_a_hodge_grid_past_the_eigen_work_exits_1_in_time(capsys, argv):
    # the node and trial bounds admit both; the dense (n_r - 2)^2 block of
    # the first would take 512 GiB
    start = time.perf_counter()
    assert main(["hodge", *argv]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "WORK)" in err
