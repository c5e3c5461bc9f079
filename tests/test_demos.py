"""Every demo script runs to completion (exit 0) against the package, and so
does the report script that CI runs, on one small command."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    run_script(demo, cwd=tmp_path)


def run_script(script, *argv, cwd):
    """The stdout of a script run against the package; it must exit 0."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(script), *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_the_ci_report_times_error_paths_by_their_exit_1(monkeypatch):
    # the error-path list runs only in the full report: its spec files must
    # exist (tests/golden pins their exit 1), and quiet(fails=True) stops the
    # report on any other exit
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    import ci_report

    assert all((ROOT / argv[2]).exists() for argv in ci_report.FAILING)
    argv = ["levi", "--spec", "ball_c2_dbar", "--point", "1,2"]
    ci_report.quiet(argv, fails=True)
    with pytest.raises(SystemExit, match="exited 1"):
        ci_report.quiet(argv)
    with pytest.raises(SystemExit, match="exited 0"):
        ci_report.quiet(["dsq", "--spec", "tangent_sphere"], fails=True)


def test_the_ci_report_runs_each_section_on_one_command():
    # the report reaches into neumann, numpy and fractions to count work, so
    # a rename there fails here rather than in CI's summary only
    argv = ["hodge", "--n-theta", "8", "--n-r", "16", "--trials", "1"]
    out = run_script(ROOT / "tests" / "ci_report.py", *argv, cwd=ROOT)
    lines = out.splitlines()
    assert sum(line.startswith("### ") for line in lines) == 5
    assert lines.count("```") == 10
    # first, the modules that hodge loads beyond the package's import
    assert lines[0] == "### modules that hodge loads beyond import hodgebench.cli"
    modules = lines[2 : lines.index("```", 2)]
    assert modules and (modules == ["(none)"] or modules == sorted(modules))
    assert not any(name.startswith("hodgebench") for name in modules)
    command = " ".join(argv)
    calls = [line for line in lines if line.startswith("  _mode_eigenvalues calls: ")]
    blocks = [line for line in lines if line.startswith("  live Lanczos blocks per step: ")]
    assert len(calls) == len(blocks) == 1 and int(calls[0].split()[-1]) > 0
    assert all(int(n) > 0 for n in blocks[0].split(":")[1].split())
    for name in ("annulus_c3_dbar", "poisson_c4"):
        assert any(line.startswith(f"{name} ") for line in lines)
    # times, peak and Fractions: one line each for the command
    assert sum(line.startswith(f"{command} ") for line in lines) == 3
    assert lines[-2] == f"{command} 0"
