"""A fixed, seeded fuzz of the workbench: mutated command lines over the six
commands and mutated gallery specs, each run through ``cli.main`` under a
5 s alarm.  Every case exits 0, 1 or 2, never with a traceback or past the
alarm, and an exit 1 writes no report and one ``error: `` line.
"""

import io
import random
import signal
from contextlib import redirect_stderr, redirect_stdout

from hodgebench.cli import main
from hodgebench.gallery import GALLERY, gallery_names

CASES = 400
SECONDS = 5

ARGVS = [
    ["classify", "--spec", "poisson_c4", "--samples", "40"],
    ["convexity", "--spec", "ball_c2_dbar", "--samples", "40", "--require-q", "1"],
    ["levi", "--spec", "poisson_c4", "--point", "0,0,1,0,0,0,0,0"],
    ["dsq", "--spec", "graph_bivector_demo"],
    ["sobolev", "--suite", "A.ii", "--grid", "16", "--trials", "2"],
    ["hodge", "--n-theta", "16", "--n-r", "16", "--trials", "2"],
]
TOKENS = ["-1", "0", "1", "3", "16", "17", "x", "", "nan", "1e3", "1,2", "--spec",
          "--samples", "--grid", "--format", "csv", "kernel.iii", "T.iv",
          "tangent_sphere", "--bogus"]
# spec values and characters: out of range, of another key, not a number
VALUES = ["0", "-1", "2", "33", "1e-20", "nan", "inf", "true", "sphere_plus_locus",
          "poisson_locus", "two_spheres", '"x1"', '"x1^2 - 1"', '"z1*z2"', '""', "x",
          "custom", "tangent", "holomorphic_poisson"]
CHARS = list('()^*9#[="-. ')
SPEC_COMMANDS = [["classify", "--samples", "40"], ["convexity", "--samples", "40"],
                 ["levi"], ["dsq"]]


class Alarm(BaseException):
    """Past the case's time; a BaseException, so that main does not catch it."""


def outcome(argv):
    """(exit code, stdout, stderr) of main(argv), or None past SECONDS."""
    def ring(signum, frame):
        raise Alarm

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Alarm:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def wrong(argv):
    """What is wrong with running argv, or None."""
    got = outcome(argv)
    if got is None:
        return f"ran past {SECONDS} s"
    code, out, err = got
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 1 and (out or not err.startswith("error: ") or err.count("\n") != 1):
        return f"exit 1 with stdout {out[:80]!r} and stderr {err!r}"
    return None


def mutated_argv(rng):
    argv = list(rng.choice(ARGVS))
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(len(argv) + 1)
        op = rng.randrange(4) if i < len(argv) else 2
        if op == 0:
            del argv[i]
        elif op == 1:
            argv[i] = rng.choice(TOKENS)
        elif op == 2:
            argv.insert(i, rng.choice(TOKENS))
        else:
            j = rng.randrange(len(argv))
            argv[i], argv[j] = argv[j], argv[i]
    return argv


def mutated_spec(rng):
    lines = GALLERY[rng.choice(gallery_names())].strip().splitlines()
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, rng.choice(lines))
        elif op == 2 and "=" in lines[i]:
            lines[i] = lines[i].partition("=")[0] + "= " + rng.choice(VALUES)
        else:
            at = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:at] + rng.choice(CHARS) + lines[i][at:]
    return "\n".join(lines) + "\n"


def test_mutated_command_lines_exit_0_1_or_2_with_one_error_line():
    rng = random.Random(20260)
    failures = []
    for _ in range(CASES):
        argv = mutated_argv(rng)
        problem = wrong(argv)
        if problem:
            failures.append((argv, problem))
    assert failures == []


def test_mutated_gallery_specs_exit_0_1_or_2_with_one_error_line(tmp_path):
    rng = random.Random(20261)
    failures = []
    for case in range(CASES):
        path = tmp_path / f"case{case}.spec"
        path.write_text(mutated_spec(rng))
        command, *options = rng.choice(SPEC_COMMANDS)
        problem = wrong([command, "--spec", str(path), *options])
        if problem:
            failures.append((path.read_text(), command, problem))
    assert failures == []
