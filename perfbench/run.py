"""The hodgebench benchmark: `workbench` commands timed end to end and per layer.

    python3 perfbench/run.py --workload boundary|symbolic|labs --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a checkout that has ``src/hodgebench``; it
imports the package from there and writes only under ``.perfbench_work/``.

A *pass* runs every command of the workload once, in order, each in a fresh
worker interpreter (``worker.py``) that imports ``hodgebench.cli`` and calls
``main(argv)``: one process per command, as a real ``workbench`` invocation,
so no process-wide cache carries over between commands.  Passes repeat while
another one, as long as the mean so far, fits in ``--seconds``; there is
always at least one.  Workers run one at a time with one BLAS thread, and
``WORKBENCH_THREADS`` must be unset.

After the last pass every report is checked (``checks.py``); a wrong exit
code, a traceback, a wrong verdict or a report that differs from the same
command's report in the first pass counts the command as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an untraced
and a traced pass in turn (the tracer is ``tracer.py``, installed by the
worker from outside the package) and reports the per-layer metrics, the
per-command times of the untraced passes and the trace's own coverage and
overhead.  The line before the last holds the details: the environment,
sample counts and tails, the digests of the generated inputs and of every
report.  The last line is the result: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"
COMMAND_TIMEOUT_S = 170

COMMAND_KINDS = ("classify", "convexity", "levi", "dsq", "sobolev", "hodge")

END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


class Trace:
    """Per-layer aggregates of one traced pass, summed over its commands."""

    def __init__(self, records: List[Dict]):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        self.wall = 0.0
        for rec in records:
            t = rec["trace"]
            for k, v in t["calls"].items():
                self.calls[k] += v
            for k, v in t["total_s"].items():
                self.total[k] += v
            for k, v in t["self_s"].items():
                self.self_s[k] += v
            for k, v in t["distinct"].items():
                self.distinct[k] += v
            for k, v in t["work"].items():
                self.work[k] += v
            self.top_level += t["top_level_s"]
            self.wall += rec["main_s"]

    def per_distinct(self, name: str) -> float:
        return self.calls[name] / self.distinct[name] if self.distinct[name] else 0.0

    def counts(self) -> Dict:
        return {"calls": dict(self.calls), "distinct": dict(self.distinct),
                "work": dict(self.work)}


def _c(name):
    return lambda t: t.calls[name]


def _s(*names):
    return lambda t: sum(t.total[n] for n in names)


def _self(layer):
    return lambda t: t.self_s[layer]


A, L, N = "algebroids.AlgebroidSpec.", "levi.", "neumann.NeumannProblem."

# name, unit, better, value from a Trace, what it should move (metric / workload)
LAYER_METRICS = [
    ("scalars.eval_calls", "count", "lower", _c("scalars.ScalarExpr.eval"),
     "classify_s, convexity_s, levi_s on boundary; 0 on labs"),
    ("scalars.eval_s", "s", "lower", _s("scalars.ScalarExpr.eval"),
     "classify_s, convexity_s, levi_s on boundary"),
    ("scalars.exprs_built", "count", "lower", _c("scalars.ScalarExpr.__init__"),
     "dsq_s on symbolic"),
    ("scalars.diff_calls", "count", "lower", _c("scalars.ScalarExpr.diff"), "dsq_s on symbolic"),
    ("scalars.mul_calls", "count", "lower",
     lambda t: t.calls["scalars.ScalarExpr.__mul__"] + t.calls["scalars.ScalarExpr.__rmul__"],
     "dsq_s on symbolic"),
    ("scalars.parse_expr_s", "s", "lower", _s("scalars.parse_expr"), "dsq_s on symbolic"),
    ("scalars.self_s", "s", "lower", _self("scalars"),
     "classify_s on boundary, dsq_s on symbolic"),
    ("calculus.lie_bracket_calls", "count", "lower", _c("calculus.lie_bracket"), "dsq_s on symbolic"),
    ("calculus.courant_bracket_calls", "count", "lower", _c("calculus.courant_bracket"),
     "dsq_s on symbolic"),
    ("calculus.self_s", "s", "lower", _self("calculus"), "dsq_s on symbolic"),
    ("algebroids.anchor_matrix_at_calls", "count", "lower", _c(A + "anchor_matrix_at"),
     "convexity_s on boundary"),
    ("algebroids.anchor_evals_per_point", "ratio", "lower",
     lambda t: t.per_distinct(A + "anchor_matrix_at"), "convexity_s on boundary"),
    ("algebroids.is_elliptic_at_s", "s", "lower", _s("algebroids.is_elliptic_at"),
     "convexity_s on boundary"),
    ("algebroids.ce_differential_calls", "count", "lower", _c("algebroids.ce_differential"),
     "dsq_s on symbolic"),
    ("algebroids.ce_differential_s", "s", "lower", _s("algebroids.ce_differential"),
     "dsq_s on symbolic"),
    ("algebroids.d_squared_residual_s", "s", "lower", _s("algebroids.d_squared_residual"),
     "dsq_s on symbolic"),
    ("algebroids.self_s", "s", "lower", _self("algebroids"),
     "convexity_s on boundary, dsq_s on symbolic"),
    ("levi.classify_point_calls", "count", "lower", _c(L + "classify_point"),
     "convexity_s, levi_s on boundary"),
    ("levi.classify_point_s", "s", "lower", _s(L + "classify_point"),
     "classify_s, convexity_s on boundary"),
    ("levi.classify_per_point", "ratio", "lower", lambda t: t.per_distinct(L + "classify_point"),
     "convexity_s on boundary"),
    ("levi.levi_form_generic_calls", "count", "lower", _c(L + "levi_form_generic"),
     "convexity_s, levi_s on boundary"),
    ("levi.levi_form_generic_s", "s", "lower", _s(L + "levi_form_generic"),
     "convexity_s, levi_s on boundary; levi_s on symbolic"),
    ("levi.q_convex_set_s", "s", "lower", _s(L + "q_convex_set"), "convexity_s on boundary"),
    ("levi.self_s", "s", "lower", _self("levi"), "convexity_s, levi_s on boundary"),
    ("specfile.parse_s", "s", "lower", _s("specfile.parse_specfile"),
     "dsq_s, levi_s on symbolic"),
    ("specfile.format_s", "s", "lower", _s("specfile.format_specfile"),
     "dsq_s, levi_s on symbolic"),
    ("specfile.build_algebroid_s", "s", "lower", _s("specfile.SpecFile.build_algebroid"),
     "dsq_s, levi_s on symbolic"),
    ("specfile.build_boundary_s", "s", "lower", _s("specfile.SpecFile.build_boundary"),
     "dsq_s, levi_s on symbolic"),
    ("specfile.sample_points_s", "s", "lower", _s("specfile.SpecFile.sample_points"),
     "dsq_s on symbolic"),
    ("specfile.points", "count", "lower", lambda t: t.work["specfile.points"],
     "dsq_s on symbolic"),
    ("cli.load_spec_s", "s", "lower", _s("cli.load_spec"), "dsq_s, levi_s on symbolic"),
    ("cli.dumps_s", "s", "lower", _s("cli.dumps"), "classify_s on boundary"),
    ("neumann.assemble_s", "s", "lower", _s(N + "__init__"), "hodge_s, peak_rss_mb on labs"),
    ("neumann.problems_built", "count", "lower", _c(N + "__init__"),
     "hodge_s on labs; 0 on boundary and symbolic"),
    ("neumann.assemblies_per_problem", "ratio", "lower", lambda t: t.per_distinct(N + "__init__"),
     "hodge_s on labs"),
    ("neumann.modes_assembled", "count", "lower", lambda t: t.work["neumann.modes_assembled"],
     "hodge_s on labs"),
    ("neumann.matrix_bytes", "bytes", "lower", lambda t: t.work["neumann.matrix_bytes"],
     "peak_rss_mb on labs"),
    ("neumann.apply_N_calls", "count", "lower", _c(N + "apply_N"), "hodge_s on labs"),
    ("neumann.apply_N_s", "s", "lower", _s(N + "apply_N"), "hodge_s on labs"),
    ("neumann.apply_pi_s", "s", "lower", _s(N + "apply_pi"), "hodge_s on labs"),
    ("neumann.apply_box_s", "s", "lower", _s(N + "apply_box"), "hodge_s on labs"),
    ("neumann.family_continuity_s", "s", "lower", _s("neumann.family_continuity"),
     "hodge_s on labs"),
    ("neumann.operator_norm_diff_s", "s", "lower", _s("neumann.operator_norm_diff"),
     "hodge_s on labs"),
    ("neumann.basic_estimate_s", "s", "lower", _s("neumann.basic_estimate_report"),
     "hodge_s on labs"),
    ("neumann.solve_dbar_lstsq_s", "s", "lower", _s("neumann.solve_dbar_lstsq"), "hodge_s on labs"),
    ("neumann.self_s", "s", "lower", _self("neumann"), "hodge_s on labs"),
    ("sobolev.kernel_lemma_check_s", "s", "lower", _s("sobolev.kernel_lemma_check"),
     "sobolev_s on labs"),
    ("sobolev.leibniz_battery_s", "s", "lower", _s("sobolev.leibniz_battery"), "sobolev_s on labs"),
    ("sobolev.ck_norm_calls", "count", "lower", _c("sobolev.ck_norm"), "sobolev_s on labs"),
    ("sobolev.ck_norm_s", "s", "lower", _s("sobolev.ck_norm"), "sobolev_s on labs"),
    ("sobolev.radial_derivative_calls", "count", "lower", _c("sobolev.radial_derivative"),
     "sobolev_s on labs"),
    ("sobolev.lambda_calls", "count", "lower",
     lambda t: t.calls["sobolev.lambda_full"] + t.calls["sobolev.lambda_tangential"],
     "sobolev_s on labs"),
    ("sobolev.lambda_s", "s", "lower", _s("sobolev.lambda_full", "sobolev.lambda_tangential"),
     "sobolev_s on labs"),
    ("sobolev.self_s", "s", "lower", _self("sobolev"), "sobolev_s on labs"),
    ("trace.coverage", "ratio", "higher", lambda t: t.top_level / t.wall if t.wall else 0.0,
     "none; share of the traced wall inside a traced call"),
]

# Reported with the per-layer metrics: a command's time is 0 on a workload
# that does not run it, which the end-to-end metrics may not be.
COMMAND_METRICS = [(f"{k}_s", "s", "lower") for k in COMMAND_KINDS]
EXTRA_METRICS = [
    ("cli.report_bytes", "bytes", "lower"),
    ("failed_frac", "fraction", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def per_layer_specs():
    """(name, unit, better) of every --trace 1 metric, in output order."""
    return ([(n, u, b) for n, u, b, _, _ in LAYER_METRICS]
            + COMMAND_METRICS + EXTRA_METRICS)


# ---------------------------------------------------------------------------
# running commands


def run_pass(workload, traced: bool, env: Dict, workdir: Path, spans_dir: Path) -> List[Dict]:
    records = []
    for i, cmd in enumerate(workload.commands):
        out = workdir / f"report-{i:02d}.out"
        job = {
            "argv": cmd.argv + ["--out", str(out)],
            "trace": traced,
            "spans": str(spans_dir / f"{i:02d}-{cmd.kind}.jsonl") if traced else None,
        }
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        try:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            rec = {"t_ready": t_spawn, "main_s": 0.0, "code": proc.returncode,
                   "rss_kb": 0, "blas_threads": None,
                   "error": "worker died: " + (proc.stderr.strip()[-400:] or "no output")}
        rec["setup_s"] = rec["t_ready"] - t_spawn
        if "Traceback" in proc.stderr and not rec["error"]:
            rec["error"] = proc.stderr
        text = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
        rec["text"] = text
        rec["bytes"] = len(text.encode())
        rec["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        records.append(rec)
    return records


def check_pass(workload, records, checker, state) -> None:
    """Attach the list of problems to every record; drops the report text."""
    for i, (cmd, rec) in enumerate(zip(workload.commands, records)):
        key = (i, rec["sha256"], rec["code"], rec["error"])
        if key not in state["verdicts"]:
            state["verdicts"][key] = checker.check(cmd, rec["code"], rec["error"], rec["text"])
        problems = list(state["verdicts"][key])
        first = state["first_sha"].setdefault(i, rec["sha256"])
        if rec["sha256"] != first:
            problems.append("report differs from this command's report in an earlier pass")
        rec["problems"] = problems
        del rec["text"]


# ---------------------------------------------------------------------------
# statistics and the environment


def tail(values: List[float]) -> Dict:
    """Median, and the highest of p99/p95/p90/p75 with ten samples above it."""
    out = {"n": len(values), "median": statistics.median(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            break
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(records: List[Dict]) -> Dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": sorted({r["blas_threads"] for r in records if r["blas_threads"]}),
        "workbench_threads": os.environ.get("WORKBENCH_THREADS"),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hodgebench" / "cli.py").is_file():
        sys.stderr.write(f"error: no hodgebench sources at {SRC}\n")
        return 2
    if "WORKBENCH_THREADS" in os.environ:
        sys.stderr.write("error: unset WORKBENCH_THREADS; the benchmark runs commands serially\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from checks import Checker

    # argv names generated spec files relative to the checkout, so it is the
    # same in every checkout
    os.chdir(ROOT)
    workdir = WORK.relative_to(ROOT) / f"{args.workload}-{args.seed}"
    spans_dir = WORK / "spans" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    shutil.rmtree(spans_dir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spans_dir.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    try:
        workload = workloads.build(args.workload, args.seed, workdir / "inputs")
        checker = Checker()
        state = {"verdicts": {}, "first_sha": {}}
        plain, traced = [], []
        t_start = time.monotonic()
        while True:
            for into, on in ((plain, False), (traced, True))[: 1 + args.trace]:
                into.append(run_pass(workload, on, env, workdir, spans_dir))
            elapsed = time.monotonic() - t_start
            if elapsed + elapsed / len(plain) > args.seconds:
                break
        for records in plain + traced:
            check_pass(workload, records, checker, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [r for p in plain + traced for r in p]
    attempted, failed = len(every), sum(1 for r in every if r["problems"])
    walls = [sum(r["main_s"] for r in p) for p in plain]
    setups = [r["setup_s"] for p in plain for r in p]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "environment": environment(every),
        "inputs_sha256": workload.inputs,
        "setup_s": tail(setups),
        "wall_s": tail(walls),
        "commands": [
            {"argv": cmd.argv, "sha256": plain[0][i]["sha256"], "bytes": plain[0][i]["bytes"],
             "main_s": tail([p[i]["main_s"] for p in plain]),
             "problems": sorted({x for p in plain + traced for x in p[i]["problems"]})}
            for i, cmd in enumerate(workload.commands)
        ],
        "failed_frac": failed / attempted,
    }
    if args.trace:
        layers = [Trace(p) for p in traced]
        details["trace_counts_repeat"] = all(t.counts() == layers[0].counts() for t in layers)
        details["spans_dir"] = str(spans_dir.relative_to(ROOT))
        details["moves"] = {n: m for n, _, _, _, m in LAYER_METRICS}
        values = {n: statistics.median(fn(t) for t in layers)
                  for n, _, _, fn, _ in LAYER_METRICS}
        for kind in COMMAND_KINDS:
            values[f"{kind}_s"] = statistics.median(
                sum(r["main_s"] for c, r in zip(workload.commands, p) if c.kind == kind)
                for p in plain)
        values["cli.report_bytes"] = sum(r["bytes"] for r in plain[0])
        values["failed_frac"] = failed / attempted
        values["trace.overhead"] = statistics.median(t.wall for t in layers) / statistics.median(walls)
        units = {n: u for n, u, _ in per_layer_specs()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": max(r["rss_kb"] for p in plain for r in p) / 1024.0,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
