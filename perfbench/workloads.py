"""The three workloads: seeded inputs and the `workbench` argv of each command.

Everything a run feeds the program comes from ``build(name, seed, workdir)``:
the same seed gives the same spec files and the same argv lists.  The program
only ever sees those spec files and argv.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

NAMES = ("boundary", "symbolic", "labs")

# Suites of `workbench sobolev`, as in hodgebench.cli.SOBOLEV_SUITES.  Kept
# literal so the set of commands does not depend on the code under test; the
# self-test checks that the two agree.
SOBOLEV_SUITES = (
    "A.i", "A.ii", "A.iii", "A.iv", "T.i", "T.ii", "T.iii", "T.iv",
    "kernel.i", "kernel.ii", "kernel.iii", "subestimate",
)

GALLERY_NAMES = (
    "annulus_c3_dbar", "ball_c2_dbar", "ball_c3_dbar", "graph_bivector_demo",
    "poisson_c4", "poisson_c6", "symplectic_gc", "tangent_sphere",
)

CLASSIFY_SPECS = ("poisson_c6", "poisson_c4", "annulus_c3_dbar", "ball_c3_dbar")
CLASSIFY_SAMPLES = 4000
SAMPLES_BAND = 0.10


@dataclass
class Command:
    """One `workbench` invocation and what a correct run of it looks like."""

    kind: str  # the subcommand, which names the per-command time metric
    argv: List[str]
    expect_code: int = 0
    check: Dict = field(default_factory=dict)  # facts the checker needs


@dataclass
class Workload:
    name: str
    seed: int
    commands: List[Command]
    inputs: Dict[str, str]  # generated file name -> sha256 of its text


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = random.Random(f"{name}:{seed}")
    inputs: Dict[str, str] = {}
    if name == "boundary":
        commands = _boundary(rng)
    elif name == "symbolic":
        commands = _symbolic(rng, workdir, inputs)
    else:
        commands = _labs(rng)
    return Workload(name, seed, commands, inputs)


def _boundary(rng: random.Random) -> List[Command]:
    lo = round(CLASSIFY_SAMPLES * (1 - SAMPLES_BAND))
    hi = round(CLASSIFY_SAMPLES * (1 + SAMPLES_BAND))
    cmds = []
    for spec in CLASSIFY_SPECS:
        n = rng.randint(lo, hi)
        cmds.append(Command("classify", ["classify", "--spec", spec, "--samples", str(n)],
                            check={"spec": spec, "samples": n}))
    for spec, extra, code in (
        ("annulus_c3_dbar", [], 0),
        ("poisson_c6", [], 0),
        ("poisson_c4", ["--require-q", "2"], 2),
    ):
        cmds.append(Command("convexity", ["convexity", "--spec", spec] + extra, code,
                            check={"spec": spec}))
    cmds.append(Command("levi", ["levi", "--spec", "poisson_c6"], check={"spec": "poisson_c6"}))
    return cmds


def _labs(rng: random.Random) -> List[Command]:
    seed = str(rng.randrange(1, 10_000))
    cmds = [
        Command("sobolev", ["sobolev", "--suite", suite, "--seed", seed],
                check={"suite": suite})
        for suite in SOBOLEV_SUITES
    ]
    cmds.append(Command("hodge", ["hodge", "--seed", seed]))
    cmds.append(Command("hodge", ["hodge", "--n-theta", "128", "--n-r", "128",
                                  "--trials", "10", "--seed", seed]))
    return cmds


# ---------------------------------------------------------------------------
# symbolic: generated spec files plus the gallery

def _symbolic(rng: random.Random, workdir: Path, inputs: Dict[str, str]) -> List[Command]:
    specs = {f"poisson_n{n}.spec": ("holomorphic_poisson", 2 * n) for n in (3, 4, 5)}
    specs.update({f"bivector_d{d}.spec": ("graph_bivector", d) for d in (3, 4)})
    specs["two_form_d3.spec"] = ("graph_two_form", 3)
    cmds = []
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, (kind, dim) in specs.items():
        text, check = _table_spec(rng, kind, dim)
        path = workdir / fname
        path.write_text(text)
        inputs[fname] = hashlib.sha256(text.encode()).hexdigest()
        cmds.append(Command("dsq", ["dsq", "--spec", str(path)], check=check))
    for spec in GALLERY_NAMES:
        cmds.append(Command("dsq", ["dsq", "--spec", spec], check={"gallery": spec}))
    for spec, n, count in (("poisson_c4", 4, 3), ("poisson_c6", 6, 2)):
        points = [_locus_point(n, rng.uniform(0.0, 2.0 * math.pi)) for _ in range(count)]
        argv = ["levi", "--spec", spec]
        for p in points:
            argv += ["--point", ",".join(repr(x) for x in p)]
        cmds.append(Command("levi", argv, check={"spec": spec, "points": points}))
    return cmds


def _locus_point(n: int, theta: float) -> List[float]:
    # on the non-elliptic circle {x = z = w = 0, |y| = 1} of the Poisson gallery
    p = [0.0] * (2 * n)
    p[2], p[3] = math.cos(theta), math.sin(theta)
    return p


_COEFFS = ("1", "2", "-1", "3", "i", "-2*i", "1/2", "(1+i)")


def _poly(rng: random.Random, names: List[str]) -> str:
    """A polynomial of degree <= 2: a linear term plus a quadratic term."""
    a, b, c = (rng.choice(names) for _ in range(3))
    return f"{rng.choice(_COEFFS)}*{a} + {rng.choice(_COEFFS)}*{b}*{c}"


def _entry(rng: random.Random, names: List[str]) -> str:
    # constants and single linear terms keep some specs integrable (d^2 = 0)
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(_COEFFS)
    if kind == 1:
        return f"{rng.choice(_COEFFS)}*{rng.choice(names)}"
    return _poly(rng, names)


def _pairs(rng: random.Random, upper: int, count: int):
    all_pairs = [(i, j) for i in range(1, upper + 1) for j in range(i + 1, upper + 1)]
    return sorted(rng.sample(all_pairs, count))


def _ball(dim: int) -> str:
    return " + ".join(f"x{i + 1}^2" for i in range(dim)) + " - 1"


# algebroid kind -> (table prefix, whether entries are holomorphic in z^k)
TABLE_KINDS = {
    "holomorphic_poisson": ("sigma", True),
    "graph_bivector": ("pi", False),
    "graph_two_form": ("omega", False),
}


def _table_spec(rng: random.Random, kind: str, dim: int):
    """Spec text for an algebroid given by a table of two entries, on the unit sphere."""
    prefix, holomorphic = TABLE_KINDS[kind]
    n = dim // 2 if holomorphic else dim
    names = [f"{'z' if holomorphic else 'x'}{k + 1}" for k in range(n)]
    entries = {f"{prefix}_{i}_{j}": _entry(rng, names) for i, j in _pairs(rng, n, 2)}
    chart = f"dim = {dim}" + ("\ncomplex = true" if holomorphic else "")
    alg = f"kind = {kind}" + (f"\nn = {n}" if holomorphic else "")
    body = "\n".join(f'{k} = "{v}"' for k, v in entries.items())
    text = (f"[chart]\n{chart}\n\n[boundary]\nr = \"{_ball(dim)}\"\n"
            f"sampler = sphere\nsamples = 64\n\n[algebroid]\n{alg}\n{body}\n")
    return text, {"kind": kind, "dim": dim, "entries": entries}
