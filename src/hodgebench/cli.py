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
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .algebroids import d_squared_residual
from .gallery import GALLERY, gallery_names
from .levi import classify_points, levi_forms_generic, q_convex_set
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


def load_spec(ref: str, seed: Optional[int] = None) -> SpecFile:
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
        spec.seed = seed
    return spec


def _meta(spec: Optional[SpecFile], seed: int) -> Dict:
    meta = {"tool_version": __version__, "seed": seed}
    if spec is not None:
        normalized = format_specfile(spec)
        meta["spec_hash"] = hashlib.sha256(normalized.encode()).hexdigest()
    return meta


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args) -> Tuple[Dict, int]:
    spec = load_spec(args.spec, args.seed)
    if args.samples is not None:
        spec.samples = args.samples
    alg = spec.build_algebroid()
    bd = spec.build_boundary()
    points = spec.sample_points()
    results = classify_points(alg, bd, points)
    margins = [c.margin for c in results]
    n_elliptic = sum(1 for c in results if c.elliptic)
    table = [
        {
            "point": [float(x) for x in p],
            "classification": c.label,
            "margin": c.margin,
        }
        for p, c in zip(points, results)
    ]
    report = {
        "command": "classify",
        "meta": _meta(spec, spec.seed),
        "samples": len(points),
        "elliptic": n_elliptic,
        "non_elliptic": len(points) - n_elliptic,
        "elliptic_fraction": n_elliptic / len(points),
        "margin_min": min(margins),
        "margin_max": max(margins),
        "points": table,
    }
    return report, 0


def _parse_point(text: str) -> List[float]:
    try:
        point = [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    except ValueError:
        point = []
    if not point or not all(math.isfinite(x) for x in point):
        raise ValueError(f"--point needs finite comma-separated coordinates, got {text!r}")
    return point


def cmd_levi(args) -> Tuple[Dict, int]:
    spec = load_spec(args.spec, args.seed)
    alg = spec.build_algebroid()
    bd = spec.build_boundary()
    if args.point:
        points = [_parse_point(p) for p in args.point]
    else:
        candidates = spec.sample_points()
        classes = classify_points(alg, bd, candidates)
        points = [p for p, c in zip(candidates, classes) if not c.elliptic][: args.max_points]
        if not points:
            report = {
                "command": "levi",
                "meta": _meta(spec, spec.seed),
                "note": "no non-elliptic points among the samples",
                "points": [],
            }
            return report, 0
    table = []
    for p, rep in zip(points, levi_forms_generic(alg, bd, points)):
        table.append(
            {
                "point": [float(x) for x in p],
                "classification": rep.classification.label,
                "margin": rep.classification.margin,
                "signature": list(rep.signature),
                "hermitian_defect": rep.hermitian_defect,
                "levi_matrix": rep.levi,
                "route": rep.route,
            }
        )
    report = {
        "command": "levi",
        "meta": _meta(spec, spec.seed),
        "points": table,
    }
    return report, 0


def cmd_convexity(args) -> Tuple[Dict, int]:
    spec = load_spec(args.spec, args.seed)
    if args.samples is not None:
        spec.samples = args.samples
    alg = spec.build_algebroid()
    if args.require_q is not None and not 0 <= args.require_q <= alg.rank:
        raise ValueError(f"--require-q must be in 0..{alg.rank} (the rank), got {args.require_q}")
    bd = spec.build_boundary()
    points = spec.sample_points()
    verdict = q_convex_set(alg, bd, points)
    witnesses = {}
    for q, idx in sorted(verdict.witnesses.items()):
        rep = verdict.reports[idx]
        witnesses[str(q)] = {
            "point": [float(x) for x in rep.point],
            "signature": list(rep.signature),
        }
    n_nonelliptic = sum(1 for r in verdict.reports if r.signature is not None)
    report = {
        "command": "convexity",
        "meta": _meta(spec, spec.seed),
        "samples": len(points),
        "non_elliptic_samples": n_nonelliptic,
        "rank": verdict.rank,
        "q_set": sorted(verdict.q_set),
        "witnesses": witnesses,
        "note": verdict.sample_note,
    }
    code = 0
    if args.require_q is not None and args.require_q not in verdict.q_set:
        report["require_q"] = args.require_q
        report["require_q_attained"] = False
        code = 2
    elif args.require_q is not None:
        report["require_q"] = args.require_q
        report["require_q_attained"] = True
    return report, code


def cmd_dsq(args) -> Tuple[Dict, int]:
    spec = load_spec(args.spec, args.seed)
    alg = spec.build_algebroid()
    points = spec.sample_points()[: max(8, min(spec.samples, 32))]
    residual = d_squared_residual(alg, points)
    report = {
        "command": "dsq",
        "meta": _meta(spec, spec.seed),
        "kind": spec.kind,
        "sample_points": len(points),
        "d_squared_residual": residual,
        "is_lie_algebroid_on_sample": residual <= 1e-10,
    }
    return report, 0


def cmd_sobolev(args) -> Tuple[Dict, int]:
    suite = args.suite
    if suite not in SOBOLEV_SUITES:
        raise SpecError(f"unknown suite {suite!r}; choose from {SOBOLEV_SUITES}")
    seed = args.seed or 0
    if suite.startswith("kernel."):
        part = suite.split(".")[1]
        result = kernel_lemma_check(part, quad_order=args.quad_order)
        result["pass"] = result["max_violation"] <= 1e-12
        code = 0 if result["pass"] else 2
    elif suite == "subestimate":
        grid = HalfGrid(2, args.grid, args.grid // 2 + 1)
        result = half_space_subestimate(grid, trials=args.trials, seed=seed)
        code = 0
    elif suite.startswith("T."):
        grid = HalfGrid(2, args.grid, args.grid // 2 + 1)
        result = leibniz_battery(suite, grid, trials=args.trials, seed=seed)
        code = 0
    else:
        grid = TorusGrid(2, args.grid)
        result = leibniz_battery(suite, grid, trials=args.trials, seed=seed)
        code = 0
    report = {
        "command": "sobolev",
        "meta": _meta(None, seed),
        "suite": suite,
        "result": result,
    }
    return report, code


def cmd_hodge(args) -> Tuple[Dict, int]:
    seed = args.seed or 0
    result = dbar_report(
        rho0=args.rho0,
        n_theta=args.n_theta,
        n_r=args.n_r,
        trials=args.trials,
        seed=seed,
        include_spectra=args.spectra,
    )
    report = {
        "command": "hodge",
        "meta": _meta(None, seed),
        "result": result,
    }
    return report, 0


# ---------------------------------------------------------------------------
# argument wiring


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


class UsageError(Exception):
    """A command line that argparse rejected."""


class _Parser(argparse.ArgumentParser):
    # exit 2 means a verdict failure, so a rejected command line becomes an
    # ordinary error (exit 1, one stderr line) instead of argparse's exit 2
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="workbench",
        description="boundary Hodge theory workbench for pre-Lie algebroids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True, help="gallery name or spec file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("classify", help="classify sampled boundary points")
    common(p)
    p.add_argument("--samples", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("levi", help="Levi forms at explicit or sampled points")
    common(p)
    p.add_argument("--point", action="append", help="comma-separated coordinates")
    p.add_argument("--max-points", type=_positive_int, default=5)
    p.set_defaults(fn=cmd_levi)

    p = sub.add_parser("convexity", help="q-convexity verdict over samples")
    common(p)
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--require-q", type=int, default=None)
    p.set_defaults(fn=cmd_convexity)

    p = sub.add_parser("dsq", help="d_L^2 residual over samples")
    common(p)
    p.set_defaults(fn=cmd_dsq)

    p = sub.add_parser("sobolev", help="Sobolev inequality batteries")
    common(p, spec=False)
    p.add_argument("--suite", required=True, help=f"one of {SOBOLEV_SUITES}")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--trials", type=_positive_int, default=8)
    p.add_argument("--quad-order", type=_positive_int, default=32)
    p.set_defaults(fn=cmd_sobolev)

    p = sub.add_parser("hodge", help="discrete dbar-Neumann verification suite")
    common(p, spec=False)
    p.add_argument("--rho0", type=float, default=0.5)
    p.add_argument("--n-theta", type=int, default=64)
    p.add_argument("--n-r", type=int, default=64)
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument(
        "--spectra",
        action="store_true",
        help="include per-mode eigenvalues (pairs with --format csv)",
    )
    p.set_defaults(fn=cmd_hodge)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, code = args.fn(args)
        _write(report, args)
    except (UsageError, SpecError, ValueError, KeyError, RuntimeError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except ArithmeticError as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 1
    except MemoryError as err:
        # numpy raises a private subclass; name the public type
        sys.stderr.write(f"error: MemoryError: {err}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
