"""Self-tests of the benchmark (not of hodgebench).

    python3 -m pytest perfbench/tests/bench_selftest.py

The file name keeps it out of the repository's default test collection:
the traced runs below take a few minutes.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from hodgebench import cli  # noqa: E402
from hodgebench.gallery import gallery_names  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    details, last = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(last)


def run_main(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.per_layer_specs()]


def test_command_lists_follow_the_program():
    assert workloads.SOBOLEV_SUITES == cli.SOBOLEV_SUITES
    assert workloads.GALLERY_NAMES == gallery_names()


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("symbolic", 3, tmp_path / "a")
    b = workloads.build("symbolic", 3, tmp_path / "b")
    c = workloads.build("symbolic", 4, tmp_path / "c")
    assert a.inputs == b.inputs != c.inputs
    assert [x.argv[:3] for x in workloads.build("boundary", 3, tmp_path).commands] == [
        x.argv[:3] for x in workloads.build("boundary", 4, tmp_path).commands]


def test_corrupted_reports_count_as_failed():
    checker = Checker()
    boundary = workloads.build("boundary", 0, Path("unused")).commands
    cmd = next(c for c in boundary if "--require-q" in c.argv)
    code, text = run_main(cmd.argv)
    assert code == 2 and checker.check(cmd, code, None, text) == []
    report = json.loads(text)
    report["q_set"] = report["q_set"] + [2]
    assert checker.check(cmd, code, None, json.dumps(report))
    assert checker.check(cmd, 0, None, text)
    assert checker.check(cmd, code, None, text[: len(text) // 2])
    assert checker.check(cmd, None, "Traceback ...\nZeroDivisionError", "")

    cmd = workloads.Command("classify", ["classify", "--spec", "ball_c3_dbar", "--samples", "3700"],
                            check={"spec": "ball_c3_dbar", "samples": 3700})
    code, text = run_main(cmd.argv)
    assert checker.check(cmd, code, None, text) == []
    report = json.loads(text)
    report["points"][17]["classification"] = "Elliptic"
    assert checker.check(cmd, code, None, json.dumps(report))

    cmd = workloads.Command("dsq", ["dsq", "--spec", "graph_bivector_demo"],
                            check={"gallery": "graph_bivector_demo"})
    code, text = run_main(cmd.argv)
    assert checker.check(cmd, code, None, text) == []
    assert checker.check(cmd, code, None, text.replace('"is_lie_algebroid_on_sample": false',
                                                       '"is_lie_algebroid_on_sample": true'))


def test_dsq_oracle_agrees_on_generated_specs(tmp_path):
    checker = Checker()
    for seed in range(3):
        for cmd in workloads.build("symbolic", seed, tmp_path / str(seed)).commands:
            if cmd.kind == "dsq" and "gallery" not in cmd.check:
                code, text = run_main(cmd.argv)
                assert checker.check(cmd, code, None, text) == [], cmd.check


@pytest.fixture(scope="module")
def traced():
    return {w: result(bench("--workload", w, "--seed", "5", "--seconds", "1", "--trace", "1"))
            for w in workloads.NAMES}


def test_no_failures_at_this_commit(traced):
    for name, (details, res) in traced.items():
        assert res["correct"] and res["failed"] == 0, (name, details["commands"])
        assert res["metrics"]["failed_frac"]["value"] == 0


def test_layer_zeros(traced):
    assert traced["labs"][1]["metrics"]["scalars.eval_calls"]["value"] == 0
    for name in ("boundary", "symbolic"):
        assert traced[name][1]["metrics"]["neumann.problems_built"]["value"] == 0
    assert traced["labs"][1]["metrics"]["neumann.problems_built"]["value"] > 0


def test_layer_counts_repeat(traced):
    _, again = result(bench("--workload", "symbolic", "--seed", "5", "--seconds", "1",
                            "--trace", "1"))
    first = traced["symbolic"][1]["metrics"]
    exact = [n for n, u, _ in run.per_layer_specs() if u in ("count", "bytes")]
    assert exact
    for name in exact:
        assert first[name] == again["metrics"][name], name


def test_untraced_metrics_are_the_end_to_end_set():
    details, res = result(bench("--workload", "symbolic", "--seed", "2", "--seconds", "1"))
    assert list(res["metrics"]) == [m[0] for m in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert details["environment"]["workbench_threads"] is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "symbolic", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
