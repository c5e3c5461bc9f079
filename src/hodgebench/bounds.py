"""The fixed bounds on the work of one command, each checked before the work.

Each value is written here once, next to the one function that compares a use
against it and words the refusal; no key, option or environment variable
changes them.  scalars compares each product against the two public term-pair
bounds inline.  Times are of one fresh process on a 2-core x86-64 VM.
"""

from __future__ import annotations

import math
from typing import NoReturn, Tuple

__all__ = [
    "SpecError", "ExprSizeError", "MAX_TERM_PAIRS", "COMMAND_TERM_PAIRS",
    "check_chart_dim", "check_samples", "check_walk", "refuse_term_pairs",
    "check_grid_nodes", "check_trials", "check_quad_order", "check_eigen_work",
]


class SpecError(ValueError):
    """A spec, or a command line's change to one, that no command runs on."""


class ExprSizeError(ValueError):
    """An exact product past MAX_TERM_PAIRS, or past a command's budget."""


# the largest chart dimension and sample count of a spec or --samples: dsq on a
# ball with 1,000 samples takes 0.44 s at dim 32 and 9.5 s at dim 64, and
# convexity on poisson_c4 with 10,000 + 10,000 samples 1.7 s
_MAX_CHART_DIM = 32
_MAX_SAMPLES = 10_000

# the most boundary points times dim^3 that one command may walk, as the walk's
# work per point grows as dim^3; 2^25 = 1,024 x 32^3 admits 1,000 + 20 samples
# at every dim.  At the bound, convexity on tests/specs/ball_c16_dbar.spec
# takes 2.5 s, and the walks of a dim-32 holomorphic_poisson spec with all 120
# sigma entries 3.1-3.4 s; the 20,000 points at dim 32 of
# tests/specs/poisson_c16_sphere_plus_locus.spec, past it, took 5.9-9.9 s
_MAX_WALK = 2**25


def check_chart_dim(dim: int) -> None:
    if dim > _MAX_CHART_DIM:
        raise SpecError(f"[chart] dim = {dim} exceeds the limit of "
                        f"{_MAX_CHART_DIM} (_MAX_CHART_DIM)")


def check_samples(key: str, count: int) -> None:
    if count > _MAX_SAMPLES:
        raise SpecError(f"{key} = {count} exceeds the limit of {_MAX_SAMPLES} samples "
                        f"(_MAX_SAMPLES)")


def check_walk(points: int, dim: int) -> None:
    if points * dim**3 > _MAX_WALK:
        raise SpecError(f"{points} boundary points at chart dim {dim} exceed the "
                        f"limit of {_MAX_WALK} points times dim^3 (_MAX_WALK)")


# the most term pairs (the product of the operands' term counts) of one exact
# product, refused before it starts: the gallery's stay below 200, the largest
# algebroid the tests may draw needs 23,814
MAX_TERM_PAIRS = 10**5

# the most term pairs of all the products of one command: the boundary commands
# on tests/specs/poisson_c16_dense.spec use 11,464 and run (1.8-2.4 s), while
# its dsq, which needs 1.2 M (28 s), is refused after 0.7 s; no other tier-1
# command uses more than 5,228, the gallery at most 115, perfbench's specs 1,015
COMMAND_TERM_PAIRS = 2**14


def refuse_term_pairs(p_terms: int, q_terms: int) -> NoReturn:
    """Refuse a product of p_terms x q_terms terms, past MAX_TERM_PAIRS or
    else past what is left of COMMAND_TERM_PAIRS."""
    if p_terms * q_terms > MAX_TERM_PAIRS:
        raise ExprSizeError(f"a product of {p_terms} x {q_terms} polynomial terms exceeds "
                            f"the limit of {MAX_TERM_PAIRS} term pairs")
    raise ExprSizeError("the exact products of this command exceed the budget "
                        f"of {COMMAND_TERM_PAIRS} term pairs")


# the most nodes of any grid, neumann's annulus included, checked before any
# array exists, since an overcommitted allocation succeeds and is killed later
_MAX_NODES = 2**20

# the most trials times grid nodes of one command, at least _MIN_TRIAL_NODES per
# trial, since a trial's overhead does not shrink with its grid: it bounds the
# time of --trials as _MAX_NODES bounds the memory of one grid.  Under the
# floor, T.iv with 1,024 trials at --grid 32 and 16 takes 5.1 and 5.4 s;
# without it, --grid 16 admitted 7,281 trials (about 28 s)
_MAX_TRIAL_NODES = 2**20
_MIN_TRIAL_NODES = 2**10

# the most Gauss-Legendre nodes per axis of kernel part iii: leggauss's
# companion matrix grows as its square, and so does the time per form
_MAX_QUAD_ORDER = 256

# the most (n_r - 2)^3, the work of one mode's dense eigensolve, of hodge (about
# a dozen modes), and of all n_theta modes under --spectra; the node bound
# left n_r up to 262,144 (--n-theta 16 --n-r 4096 took 78.8 s).  At the edges,
# 1022 x 1026 takes 3.6-5.6 s; under --spectra 8 x 1026 1.9 s, 4096 x 130
# 4.1 s, and the node bound's own 11396 x 92 6.4-7.4 s and 13106 x 80 7.2 s
_MAX_EIGEN_WORK = 2**30
_MAX_SPECTRA_WORK = 2**33


def check_grid_nodes(kind: str, shape: Tuple[int, ...]) -> None:
    if math.prod(shape) > _MAX_NODES:
        raise MemoryError(f"{kind} grid of {' x '.join(map(str, shape))} nodes "
                          f"exceeds the limit of {_MAX_NODES} nodes")


def check_trials(trials: int, shape: Tuple[int, ...]) -> None:
    if trials * max(_MIN_TRIAL_NODES, math.prod(shape)) > _MAX_TRIAL_NODES:
        raise ValueError(f"{trials} trials on a grid of {' x '.join(map(str, shape))} "
                         f"nodes exceed the limit of {_MAX_TRIAL_NODES} trial nodes "
                         f"(trials times grid nodes, at least {_MIN_TRIAL_NODES} per trial)")


def check_quad_order(order: int) -> None:
    if order > _MAX_QUAD_ORDER:
        raise ValueError(f"quad_order {order} exceeds the limit of "
                         f"{_MAX_QUAD_ORDER} nodes per axis (_MAX_QUAD_ORDER)")


def check_eigen_work(n_theta: int, n_r: int, spectra: bool) -> None:
    work, grid = (n_r - 2) ** 3, f"a grid of {n_theta} x {n_r} nodes"
    if work > _MAX_EIGEN_WORK:
        raise ValueError(f"{grid} exceeds the limit of {_MAX_EIGEN_WORK} on (n_r - 2)^3, "
                         "the work of one mode's dense eigensolve (_MAX_EIGEN_WORK)")
    if spectra and n_theta * work > _MAX_SPECTRA_WORK:
        raise ValueError(f"the spectra of {grid} exceed the limit of {_MAX_SPECTRA_WORK} on "
                         "n_theta (n_r - 2)^3, the work of every mode's dense eigensolve "
                         "(_MAX_SPECTRA_WORK)")
