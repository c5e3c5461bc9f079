"""Correctness checks on the reports of timed commands.

They run in the benchmark's own process, after the worker has exited, so
none of this is timed.  ``Checker.check`` returns the list of problems with
one report; an empty list means the command counts as correct.

Verdicts on the gallery lattices are compared with ``reference.json``
(written at the seed commit by ``make_reference.py``).  Generated specs and
explicit Levi points have no stored answer; they are compared with
independent oracles already in the library: the Jacobiator for
bivector-type specs and the exact symbolic Levi route.  Hodge residuals use
the tolerances of acceptance criteria 9 to 11.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List

from workloads import Command

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# acceptance criteria 9-11 (tests/test_acceptance.py)
HODGE_TOL = {
    "identity_residual": 1e-8,
    "n_pi_residual": 1e-10,
    "hodge_orthogonality": 1e-8,
    "solve_dbar_vs_lstsq": 1e-8,
}
FAMILY_SLOPE = (0.8, 1.2)
# acceptance criterion 7
KERNEL_TOL = 1e-12
# acceptance criterion 5: route agreement
ROUTE_TOL = 1e-8
# `workbench dsq`: is_lie_algebroid_on_sample is residual <= 1e-10
DSQ_TOL = 1e-10


def expected_labels(entry: Dict, samples: int) -> List[str]:
    """Point labels of a gallery lattice at ``samples`` points.

    The lattices are prefix-stable: n points are the first n of a longer
    run, so one table at the top of the band covers every count in it.
    """
    def part(name, count):
        p = entry["parts"][name]
        labels = [p["default"]] * count
        other = "Elliptic" if p["default"] == "NonElliptic" else "NonElliptic"
        for i in p["except"]:
            if i < count:
                labels[i] = other
        return labels

    sampler = entry["sampler"]
    if sampler == "sphere":
        return part("sphere", samples)
    if sampler == "sphere_plus_locus":
        return part("sphere", samples) + part("locus", entry["locus_samples"])
    if sampler == "two_spheres":
        half = samples // 2
        return part("outer", half) + part("inner", samples - half)
    raise ValueError(f"no reference rule for sampler {sampler!r}")


class Checker:
    def __init__(self):
        self.reference = json.loads(REFERENCE.read_text())
        self._built = {}

    def check(self, cmd: Command, code, error, text: str) -> List[str]:
        if error:
            return [f"raised: {error.strip().splitlines()[-1]}"]
        if code != cmd.expect_code:
            return [f"exit code {code}, expected {cmd.expect_code}"]
        try:
            report = json.loads(text)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        if report.get("command") != cmd.kind:
            return [f"report is for {report.get('command')!r}, not {cmd.kind!r}"]
        try:
            return getattr(self, "_" + cmd.kind)(cmd, report)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return [f"report is missing or mangles a field: {exc!r}"]

    # -- boundary -------------------------------------------------------------

    def _classify(self, cmd, report):
        entry = self.reference["classify"][cmd.check["spec"]]
        want = expected_labels(entry, cmd.check["samples"])
        got = [p["classification"] for p in report["points"]]
        problems = []
        if got != want:
            bad = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
            problems.append(f"{bad} point labels differ from the reference")
        n_ell = want.count("Elliptic")
        counts = (report["samples"], report["elliptic"], report["non_elliptic"])
        if counts != (len(want), n_ell, len(want) - n_ell):
            problems.append(f"counts {counts} differ from the reference")
        return problems

    def _convexity(self, cmd, report):
        want = self.reference["convexity"][cmd.check["spec"]]
        got = {
            "samples": report["samples"],
            "non_elliptic_samples": report["non_elliptic_samples"],
            "rank": report["rank"],
            "q_set": report["q_set"],
            "witness_signatures": {q: w["signature"] for q, w in report["witnesses"].items()},
            "require_q_attained": report.get("require_q_attained"),
        }
        return [f"{k}: {got[k]!r} != reference {want[k]!r}" for k in want if got[k] != want[k]]

    def _levi(self, cmd, report):
        if "points" in cmd.check:
            return self._levi_at_points(cmd, report)
        want = self.reference["levi"][cmd.check["spec"]]
        problems = []
        if len(report["points"]) != len(want):
            return [f"{len(report['points'])} Levi points, reference has {len(want)}"]
        for got, ref in zip(report["points"], want):
            if max(abs(a - b) for a, b in zip(got["point"], ref["point"])) > 1e-12:
                problems.append("Levi point moved from the reference lattice")
            if (got["classification"], got["signature"]) != (ref["classification"], ref["signature"]):
                problems.append(f"verdict {got['classification']} {got['signature']} "
                                f"!= reference {ref['classification']} {ref['signature']}")
            if got["hermitian_defect"] > 1e-6:
                problems.append(f"Hermitian defect {got['hermitian_defect']:.3e}")
        return problems

    def _levi_at_points(self, cmd, report):
        import numpy as np
        from hodgebench.levi import levi_form_generic

        alg, bd = self._gallery(cmd.check["spec"])
        problems = []
        if len(report["points"]) != len(cmd.check["points"]):
            return ["report has the wrong number of Levi points"]
        for got, p in zip(report["points"], cmd.check["points"]):
            exact = levi_form_generic(alg, bd, p, exact=True)
            B = np.array([[complex(*z) for z in row] for row in got["levi_matrix"]])
            err = np.linalg.norm(B - exact.levi)
            if err > ROUTE_TOL * max(np.linalg.norm(exact.levi), 1.0):
                problems.append(f"Levi matrix differs from the exact route by {err:.3e}")
            if tuple(got["signature"]) != exact.signature:
                problems.append(f"signature {got['signature']} != exact route {exact.signature}")
            if got["classification"] != exact.classification.label:
                problems.append("classification differs from the exact route")
        return problems

    def _gallery(self, name):
        if name not in self._built:
            from hodgebench.gallery import gallery_spec

            spec = gallery_spec(name)
            self._built[name] = (spec.build_algebroid(), spec.build_boundary())
        return self._built[name]

    # -- symbolic -------------------------------------------------------------

    def _dsq(self, cmd, report):
        residual, flag = report["d_squared_residual"], report["is_lie_algebroid_on_sample"]
        problems = []
        if flag != (residual <= DSQ_TOL):
            problems.append(f"flag {flag} disagrees with residual {residual!r}")
        if "gallery" in cmd.check:
            want = self.reference["dsq"][cmd.check["gallery"]]
            got = {k: report[k] for k in want}
            problems += [f"{k}: {got[k]!r} != reference {want[k]!r}" for k in want if got[k] != want[k]]
            return problems
        if report["kind"] != cmd.check["kind"]:
            problems.append(f"kind {report['kind']!r} != {cmd.check['kind']!r}")
        expect = dsq_oracle(cmd.check)
        if flag != expect:
            problems.append(f"is_lie_algebroid_on_sample {flag}, oracle says {expect}")
        return problems

    # -- labs -----------------------------------------------------------------

    def _sobolev(self, cmd, report):
        result = report["result"]
        if report["suite"] != cmd.check["suite"]:
            return [f"suite {report['suite']!r} != {cmd.check['suite']!r}"]
        if cmd.check["suite"].startswith("kernel."):
            ok = result["pass"] is True and result["max_violation"] <= KERNEL_TOL
            return [] if ok else [f"kernel lemma violated by {result['max_violation']!r}"]
        ratio = result["max_ratio"]
        if not (isinstance(ratio, float) and math.isfinite(ratio) and ratio > 0):
            return [f"max_ratio {ratio!r} is not finite and positive"]
        if "per_trial" in result and len(result["per_trial"]) != result["trials"]:
            return ["per-trial ratios do not match the trial count"]
        return []

    def _hodge(self, cmd, report):
        r = report["result"]
        problems = [f"{k} = {r[k]!r} exceeds {tol:g}" for k, tol in HODGE_TOL.items()
                    if not r[k] <= tol]
        if r["harmonic_dim_deg1"] != 0:
            problems.append(f"harmonic_dim_deg1 = {r['harmonic_dim_deg1']}")
        fam = r["family_rescaling"]
        d = fam["norm_diffs"]
        if fam["harmonic_dims_deg1"] != [0] * len(d):
            problems.append(f"family harmonic dims {fam['harmonic_dims_deg1']}")
        if not (all(x > 0 for x in d) and all(a > b for a, b in zip(d, d[1:]))):
            problems.append(f"family norm differences {d} do not decrease")
        lo, hi = FAMILY_SLOPE
        if not lo <= fam["fitted_slope"] <= hi:
            problems.append(f"family slope {fam['fitted_slope']!r} outside [{lo}, {hi}]")
        for key in ("C_E_vs_Q", "C_D_vs_E"):
            c = r["basic_estimate"][key]
            if not (isinstance(c, float) and math.isfinite(c) and c > 0):
                problems.append(f"basic estimate {key} = {c!r}")
        return problems


def dsq_oracle(check: Dict) -> bool:
    """Whether a generated spec defines a Lie algebroid, decided without d_L.

    Bivector graphs (real, or holomorphic in z) integrate exactly when the
    Jacobiator of the coordinate functions vanishes identically.  The graph
    of a two-form has anchors the coordinate fields and zero structure
    functions (d_L = d), so it always integrates.
    """
    from itertools import combinations

    from hodgebench.algebroids import jacobiator
    from hodgebench.scalars import Chart, ScalarExpr, parse_expr

    kind = check["kind"]
    if kind == "graph_two_form":
        return True
    if kind == "graph_bivector":
        chart = Chart.real(check["dim"])
        stride, coords = 1, [ScalarExpr.variable(chart, i) for i in range(chart.dim)]
    else:
        # holomorphic functions: d/dz^k acts as d/dx on the real part of z^k
        chart = Chart.complex_chart(check["dim"] // 2)
        stride, coords = 2, [parse_expr(f"z{k + 1}", chart) for k in range(chart.n_complex)]
    pi = {_pair(k, stride): parse_expr(v, chart) for k, v in check["entries"].items()}
    return all(jacobiator(chart, pi, f, g, h).is_zero
               for f, g, h in combinations(coords, 3))


def _pair(key: str, stride: int):
    # "pi_1_3" -> (0, 2); stride 2 maps z^k to the index of its real part
    _, i, j = key.split("_")
    return (int(i) - 1) * stride, (int(j) - 1) * stride
