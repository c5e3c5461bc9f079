"""Batch front-end: spec files in, machine-readable verdicts out.

    workbench <classify|levi|convexity|dsq|sobolev|hodge>
              --spec FILE [--seed N] [--samples N] [--require-q Q]
              [--out FILE] [--format json|csv]

--spec accepts a gallery name (see gallery.gallery_names) or a path.  Exit
codes: 0 success, 2 verdict failure (e.g. a required q not attained),
1 error, a rejected command line included, with one ``error: ...`` line on
stderr.  Reports are deterministic given the spec and seed; floats carry
17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .algebroids import AlgebroidSpec, d_squared_residual
from .bounds import check_samples, check_walk, term_pair_budget
from .gallery import GALLERY, gallery_names
from .levi import BoundaryData, classify_points, levi_forms_generic, q_convex_set
from .neumann import dbar_report
from .sobolev import (
    HalfGrid,
    INEQUALITY_IDS,
    TorusGrid,
    half_space_subestimate,
    kernel_lemma_check,
    leibniz_battery,
)
from .specfile import SpecFile, SpecError, format_specfile, parse_specfile

SOBOLEV_SUITES = INEQUALITY_IDS + (
    "kernel.i",
    "kernel.ii",
    "kernel.iii",
    "subestimate",
)


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats


def _emit(obj, out: List[str]):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            out.append('"nan"')
        elif math.isinf(x):
            out.append('"inf"' if x > 0 else '"-inf"')
        else:
            out.append(f"{x:.17g}")
    elif isinstance(obj, complex):
        _emit([obj.real, obj.imag], out)
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        out.append(f'"{escaped}"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _emit(str(k), out)
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) and _finite_floats(obj):
        out.append("[" + ", ".join(map("{:.17g}".format, obj)) + "]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _finite_floats(xs) -> bool:
    """Whether every element is a finite Python float (not a subclass such as
    np.float64): _emit writes such a list in one join, with the bytes it
    writes element by element."""
    return all(type(x) is float for x in xs) and all(map(math.isfinite, xs))


def dumps(obj) -> str:
    parts: List[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _csv_rows(report: Dict) -> List[List[str]]:
    rows = [["key", "value"]]
    table = report.get("points")
    if isinstance(table, list) and table and isinstance(table[0], dict):
        rows = [list(table[0].keys())]
        for entry in table:
            rows.append([dumps(v) for v in entry.values()])
        return rows
    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        else:
            rows.append([prefix, dumps(value)])
    walk("", report)
    return rows


def _write(report: Dict, args) -> None:
    if args.format == "csv":
        # cells are JSON texts, quoted where they hold commas or quotes
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_csv_rows(report))
        text = buf.getvalue()
    else:
        text = dumps(report) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# spec resolution and shared plumbing


def load_spec(ref: str, seed: Optional[int] = None, samples: Optional[int] = None) -> SpecFile:
    """The spec of a gallery name or a file, with --seed and --samples applied."""
    if ref in GALLERY:
        spec = parse_specfile(GALLERY[ref])
    else:
        path = Path(ref)
        if not path.exists():
            raise SpecError(
                f"spec {ref!r} is neither a gallery name {gallery_names()} nor a file"
            )
        spec = parse_specfile(path.read_text())
    if seed is not None:
        spec = replace(spec, seed=seed)
    if samples is not None:
        check_samples("--samples", samples)
        spec = replace(spec, samples=samples)
    return spec


def _spec_inputs(args, walks: bool = True) -> Tuple[SpecFile, AlgebroidSpec, BoundaryData]:
    """The --spec file (with --seed and --samples applied), its algebroid and
    boundary; a command that walks the spec's sample first checks its size."""
    spec = load_spec(args.spec, args.seed, getattr(args, "samples", None))
    if walks:
        check_walk(spec.sample_size, spec.chart_dim)
    bd = spec.build_boundary()  # first, so that a bad r is named before a bad entry
    return spec, spec.build_algebroid(), bd


def _meta(spec: Optional[SpecFile], seed: int) -> Dict:
    meta = {"tool_version": __version__, "seed": seed}
    if spec is not None:
        normalized = format_specfile(spec)
        meta["spec_hash"] = hashlib.sha256(normalized.encode()).hexdigest()
    return meta


# ---------------------------------------------------------------------------
# commands: each returns its spec (None for the labs), the body of its report
# and its exit code; main puts the command and its meta at the report's head

Result = Tuple[Optional[SpecFile], Dict, int]


def cmd_classify(args) -> Result:
    spec, alg, bd = _spec_inputs(args)
    points = spec.sample_points()
    results = classify_points(alg, bd, points)
    margins = [c.margin for c in results]
    n_elliptic = sum(1 for c in results if c.elliptic)
    table = [
        {"point": p, "classification": c.label, "margin": c.margin}
        for p, c in zip(points.tolist(), results)
    ]
    body = {
        "samples": len(points),
        "elliptic": n_elliptic,
        "non_elliptic": len(points) - n_elliptic,
        "elliptic_fraction": n_elliptic / len(points),
        "margin_min": min(margins),
        "margin_max": max(margins),
        "points": table,
    }
    return spec, body, 0


def _parse_point(text: str) -> List[float]:
    try:
        point = [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    except ValueError:
        point = []
    if not point or not all(math.isfinite(x) for x in point):
        raise ValueError(f"--point needs finite comma-separated coordinates, got {text!r}")
    return point


def cmd_levi(args) -> Result:
    spec, alg, bd = _spec_inputs(args, walks=not args.point)
    body = {}
    if args.point:
        points = [_parse_point(p) for p in args.point]
        if len({len(p) for p in points}) > 1:
            raise ValueError(f"--point values differ in length: {[len(p) for p in points]}")
    else:
        candidates = spec.sample_points()
        classes = classify_points(alg, bd, candidates)
        points = candidates[[not c.elliptic for c in classes]][: args.max_points]
        if not len(points):
            body["note"] = "no non-elliptic points among the samples"
    body["points"] = [
        {
            "point": rep.point,
            "classification": rep.classification.label,
            "margin": rep.classification.margin,
            "signature": list(rep.signature),
            "hermitian_defect": rep.hermitian_defect,
            "levi_matrix": rep.levi,
            "route": rep.route,
        }
        for rep in levi_forms_generic(alg, bd, points)
    ]
    return spec, body, 0


def cmd_convexity(args) -> Result:
    spec, alg, bd = _spec_inputs(args)
    if args.require_q is not None and not 0 <= args.require_q <= alg.rank:
        raise ValueError(f"--require-q must be in 0..{alg.rank} (the rank), got {args.require_q}")
    points = spec.sample_points()
    verdict = q_convex_set(alg, bd, points)
    witnesses = {}
    for q, idx in sorted(verdict.witnesses.items()):
        rep = verdict.reports[idx]
        witnesses[str(q)] = {
            "point": rep.point,
            "signature": list(rep.signature),
        }
    n_nonelliptic = sum(1 for r in verdict.reports if r.signature is not None)
    body = {
        "samples": len(points),
        "non_elliptic_samples": n_nonelliptic,
        "rank": verdict.rank,
        "q_set": sorted(verdict.q_set),
        "witnesses": witnesses,
        "note": verdict.sample_note,
    }
    if args.require_q is not None:
        attained = args.require_q in verdict.q_set
        body.update(require_q=args.require_q, require_q_attained=attained)
        return spec, body, 0 if attained else 2
    return spec, body, 0


def cmd_dsq(args) -> Result:
    # dsq draws only the points it keeps, so it walks no sample
    spec, alg, _ = _spec_inputs(args, walks=False)
    points = spec.sample_points(max(8, min(spec.samples, 32)))
    residual = d_squared_residual(alg, points)
    body = {
        "kind": spec.kind,
        "sample_points": len(points),
        "d_squared_residual": residual,
        "is_lie_algebroid_on_sample": residual <= 1e-10,
    }
    return spec, body, 0


def cmd_sobolev(args) -> Result:
    suite = args.suite
    if suite not in SOBOLEV_SUITES:
        raise SpecError(f"unknown suite {suite!r}; choose from {SOBOLEV_SUITES}")
    code = 0
    if suite.startswith("kernel."):
        part = suite.split(".")[1]
        result = kernel_lemma_check(part, quad_order=args.quad_order)
        result["pass"] = result["max_violation"] <= 1e-12
        code = 0 if result["pass"] else 2
    else:
        grid = (TorusGrid(2, args.grid) if suite.startswith("A.")
                else HalfGrid(2, args.grid, args.grid // 2 + 1))
        if suite == "subestimate":
            result = half_space_subestimate(grid, trials=args.trials, seed=args.seed)
        else:
            result = leibniz_battery(suite, grid, trials=args.trials, seed=args.seed)
    return None, {"suite": suite, "result": result}, code


def cmd_hodge(args) -> Result:
    result = dbar_report(
        rho0=args.rho0,
        n_theta=args.n_theta,
        n_r=args.n_r,
        trials=args.trials,
        seed=args.seed,
        include_spectra=args.spectra,
    )
    return None, {"result": result}, 0


# ---------------------------------------------------------------------------
# argument wiring


def _int_from(lowest: int, what: str) -> Callable[[str], int]:
    """An argparse type: an integer of at least lowest, or an error naming
    what it expected."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lowest - 1
        if value < lowest:
            raise argparse.ArgumentTypeError(f"expected {what} integer, got {text!r}")
        return value
    return convert


_positive_int = _int_from(1, "a positive")
# the labs' --seed seeds numpy's generators, which take no negative seed
_seed = _int_from(0, "a non-negative")


class UsageError(Exception):
    """A command line that argparse rejected."""


class _Parser(argparse.ArgumentParser):
    # exit 2 means a verdict failure, so a rejected command line becomes an
    # ordinary error (exit 1, one stderr line) instead of argparse's exit 2
    def error(self, message):
        raise UsageError(message)


# each command's help line and function, in the order of `workbench --help`
_COMMANDS = {
    "classify": ("classify sampled boundary points", cmd_classify),
    "levi": ("Levi forms at explicit or sampled points", cmd_levi),
    "convexity": ("q-convexity verdict over samples", cmd_convexity),
    "dsq": ("d_L^2 residual over samples", cmd_dsq),
    "sobolev": ("Sobolev inequality batteries", cmd_sobolev),
    "hodge": ("discrete dbar-Neumann verification suite", cmd_hodge),
}


def _add_options(name: str, p: argparse.ArgumentParser) -> None:
    """The options of command ``name`` on its subparser, in help order."""
    spec = name not in ("sobolev", "hodge")
    if spec:
        p.add_argument("--spec", required=True, help="gallery name or spec file")
    # a spec command's seed (by default the spec's own) is only recorded in its report
    p.add_argument("--seed", type=int if spec else _seed, default=None if spec else 0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if name in ("classify", "convexity"):
        p.add_argument("--samples", type=_positive_int, default=None)
    if name == "levi":
        p.add_argument("--point", action="append", help="comma-separated coordinates; "
                       "a negative first one as --point=-1,0, since -1,0 reads as an option")
        p.add_argument("--max-points", type=_positive_int, default=5)
    elif name == "convexity":
        p.add_argument("--require-q", type=int, default=None)
    elif name == "sobolev":
        p.add_argument("--suite", required=True, help=f"one of {SOBOLEV_SUITES}")
        p.add_argument("--grid", type=int, default=64)
        p.add_argument("--trials", type=_positive_int, default=8)
        p.add_argument("--quad-order", type=_positive_int, default=32)
    elif name == "hodge":
        p.add_argument("--rho0", type=float, default=0.5)
        p.add_argument("--n-theta", type=int, default=64)
        p.add_argument("--n-r", type=int, default=64)
        p.add_argument("--trials", type=_positive_int, default=50)
        p.add_argument("--spectra", action="store_true",
                       help="include per-mode eigenvalues (pairs with --format csv)")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The workbench parser.  Where ``command`` names a command, it holds
    only that command's subparser, which parses its command lines, help and
    errors included, as the whole parser does; otherwise every subparser,
    for the top-level help and the error that lists the commands."""
    parser = _Parser(
        prog="workbench",
        description="boundary Hodge theory workbench for pre-Lie algebroids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_, fn = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        _add_options(name, p)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first argument names the command, if any does
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        with term_pair_budget():
            spec, body, code = args.fn(args)
        seed = args.seed if spec is None else spec.seed
        _write({"command": args.command, "meta": _meta(spec, seed), **body}, args)
    except (UsageError, SpecError, ValueError, KeyError, RuntimeError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except ArithmeticError as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 1
    except MemoryError as err:
        # numpy raises a private subclass: name the public type, or the command
        # where the error has no message (as Python's own allocations raise it)
        sys.stderr.write(f"error: MemoryError: {err}\n" if str(err)
                         else f"error: out of memory in {argv[0]}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
