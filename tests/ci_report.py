"""Times, traced peaks and work counts of workbench commands, in markdown.

    PYTHONPATH=src python tests/ci_report.py [COMMAND ...]

With no arguments it reports the command lists below; given one workbench
command line, it reports that command alone in the sections that run
commands.  The CI job appends the output to its summary; a report, not a
gate.  Six sections, each a header and a code block:

- the modules that `hodge` loads beyond ``import hodgebench.cli``, run
  first in the process, before any other command could load them; of the
  script's own imports only tracemalloc is not one that cli loads, and
  `hodge` does not load it;
- in-process best-of-3 times through cli.main, reports to a discarded
  stdout; each hodge command then runs once more to count its work: the
  per-mode eigensolves (neumann._mode_eigenvalues) and, per step of the
  deformation norms' Lanczos, the blocks still live (the batch size of its
  one eigh call per step);
- in-process best-of-3 times of commands that exit 1 late, after a block of
  256 points is walked again one point at a time to name its first failing
  point (not run when a command line is given);
- the traced peak of each command, tracemalloc started after import;
- best-of-3 times of the exact generic Levi route, which no command runs, at
  one point each of annulus_c3_dbar and poisson_c4, so that a blow-up of its
  symbolic brackets shows;
- the Fractions that the exact-layer commands construct, counted by wrapping
  Fraction.__new__: exact coefficient parts are ints where integral, so
  nearly every Fraction is a denominator that is really left.

The work counts and Fraction counts are deterministic.
"""

import fractions
import io
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from hodgebench import neumann
from hodgebench.cli import main as workbench
from hodgebench.gallery import gallery_spec
from hodgebench.levi import levi_form_generic, sphere_lattice

LOCUS_POINT = "0,0,1,0,0,0,0,0"

# two boundary commands; dsq on the gallery spec with a nonzero d^2, on the
# gallery's largest CE differential (poisson_c6) and on the rank-32 spec of
# tests/specs, whose CE differential visits only the subsets its terms can
# reach; levi at a Poisson locus point; then the labs hot spots: kernel
# quadrature, a full-space and a tangential battery, the 128x128 and 256x256
# Hodge suites
TIMED = [
    ["classify", "--spec", "poisson_c6", "--samples", "3803"],
    ["convexity", "--spec", "annulus_c3_dbar"],
    ["dsq", "--spec", "graph_bivector_demo"],
    ["dsq", "--spec", "poisson_c6"],
    ["dsq", "--spec", "tests/specs/poisson_c16_sphere_plus_locus.spec"],
    ["levi", "--spec", "poisson_c4", "--point", LOCUS_POINT],
    ["sobolev", "--suite", "kernel.iii"],
    ["sobolev", "--suite", "A.iii"],
    ["sobolev", "--suite", "T.iv"],
    ["hodge", "--n-theta", "128", "--n-r", "128", "--trials", "10"],
    ["hodge", "--n-theta", "256", "--n-r", "256", "--trials", "10"],
]

# error paths: the first off-boundary sample is the last point of the first
# block, so these walk that block twice, the second time point by point
LATE_FAULT = "tests/specs/ball_c8_dbar_late_fault.spec"
FAILING = [
    ["classify", "--spec", LATE_FAULT],
    ["convexity", "--spec", LATE_FAULT],
]

# the labs commands that set that workload's memory, kernel.iii at the
# largest quadrature order, and convexity on a dim-32 ball (the boundary
# walk's largest blocks)
TRACED = [
    ["hodge"],
    ["hodge", "--n-theta", "128", "--n-r", "128", "--trials", "10"],
    ["sobolev", "--suite", "kernel.iii"],
    ["sobolev", "--suite", "kernel.iii", "--quad-order", "256"],
    ["convexity", "--spec", "tests/specs/ball_c16_dbar.spec"],
]

LEVI_POINTS = [("annulus_c3_dbar", sphere_lattice(6, 6)[0]),
               ("poisson_c4", [0, 0, 1.0, 0, 0, 0, 0, 0])]

# the three commands that evaluate exact expressions outside the boundary walk
EXACT = [
    ["dsq", "--spec", "poisson_c6"],
    ["dsq", "--spec", "graph_bivector_demo"],
    ["levi", "--spec", "poisson_c4", "--point", LOCUS_POINT],
]


def quiet(argv, fails=False):
    """Run one workbench command with its report and error line discarded;
    an exit 1 stops the report, or with ``fails`` any other exit, so that a
    renamed command or spec shows."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = workbench(argv)
    if (code == 1) != fails:
        raise SystemExit(f"workbench {' '.join(argv)} exited {code}")


def best_of_3(run):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return round(best, 3)


def hodge_work(argv):
    """The per-mode eigensolves of one hodge command, and the live Lanczos
    blocks of each of its steps."""
    calls, live = [], []
    kernel, eigh = neumann._mode_eigenvalues, np.linalg.eigh
    neumann._mode_eigenvalues = lambda *a: calls.append(1) or kernel(*a)
    np.linalg.eigh = lambda T: live.append(T.shape[0]) or eigh(T)
    try:
        quiet(argv)
    finally:
        neumann._mode_eigenvalues, np.linalg.eigh = kernel, eigh
    return len(calls), live


def traced_peak(argv):
    tracemalloc.start()
    try:
        quiet(argv)
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
    finally:
        tracemalloc.stop()


def fractions_made(argv):
    made = []
    new = fractions.Fraction.__new__
    fractions.Fraction.__new__ = lambda cls, *a, **k: made.append(1) or new(cls, *a, **k)
    try:
        quiet(argv)
    finally:
        fractions.Fraction.__new__ = new
    return len(made)


def section(title, lines):
    print(f"### {title}")
    print("```")
    for line in lines:
        print(line)
    print("```")


def hodge_modules():
    before = set(sys.modules)
    quiet(["hodge"])
    return sorted(set(sys.modules) - before) or ["(none)"]


def times(argvs):
    for argv in argvs:
        yield f"{' '.join(argv)} {best_of_3(lambda: quiet(argv))}"
        if argv[0] == "hodge":
            calls, live = hodge_work(argv)
            yield f"  _mode_eigenvalues calls: {calls}"
            yield " ".join(["  live Lanczos blocks per step:", *map(str, live)])


def levi_route_times():
    for name, point in LEVI_POINTS:
        spec = gallery_spec(name)
        alg, bd = spec.build_algebroid(), spec.build_boundary()
        yield f"{name} {best_of_3(lambda: levi_form_generic(alg, bd, point, exact=True))}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    timed, traced, exact = ([argv],) * 3 if argv else (TIMED, TRACED, EXACT)
    section("modules that hodge loads beyond import hodgebench.cli", hodge_modules())
    section(f"in-process best-of-3 times of {len(timed)} workbench commands (s), "
            "with the work counts of hodge", times(timed))
    if not argv:
        section(f"in-process best-of-3 times of {len(FAILING)} commands that exit 1 (s)",
                (f"{' '.join(a)} {best_of_3(lambda: quiet(a, fails=True))}" for a in FAILING))
    section("traced peak (MB), tracemalloc started after import",
            (f"{' '.join(a)} {traced_peak(a)}" for a in traced))
    section("in-process best-of-3 times of the exact generic Levi route (s)", levi_route_times())
    section("Fractions constructed by the exact-layer commands",
            (f"{' '.join(a)} {fractions_made(a)}" for a in exact))


if __name__ == "__main__":
    main()
