import argparse
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from hodgebench import bounds, cli, scalars
from hodgebench.cli import dumps, load_spec, main
from hodgebench.gallery import gallery_names, gallery_spec
from hodgebench.specfile import SpecError, format_specfile, parse_specfile

SPECS = Path(__file__).resolve().parent / "specs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# spec files


def test_gallery_round_trip():
    for name in gallery_names():
        spec = gallery_spec(name)
        text = format_specfile(spec)
        again = parse_specfile(text)
        assert format_specfile(again) == text, name


def test_specfile_errors(tmp_path, capsys):
    with pytest.raises(SpecError):
        parse_specfile("[chart]\ndim = 2\n")  # missing sections
    with pytest.raises(SpecError):
        parse_specfile(
            "[chart]\ndim = 2\n[boundary]\nr = \"x1\"\n[algebroid]\nkind = nope\n"
        )
    # an expression is parsed, and so checked, when a command builds it
    path = tmp_path / "bad_r.spec"
    path.write_text("[chart]\ndim = 2\n[boundary]\nr = \"x1 +* 2\"\n[algebroid]\nkind = tangent\n")
    for command in ("classify", "convexity", "levi", "dsq"):
        assert main([command, "--spec", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: unexpected '*' at offset 4\n"), command


def test_load_spec_rejects_unknown():
    with pytest.raises(SpecError):
        load_spec("not_a_gallery_name_or_file")


def test_dumps_17_digits():
    text = dumps({"x": 1.0 / 3.0})
    assert text == '{"x": 0.33333333333333331}'
    assert json.loads(text)["x"] == pytest.approx(1 / 3)


@pytest.mark.parametrize(
    "xs, joined",
    [
        ([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0], True),
        ((2.5e-308, -1e300, 1.0 / 3.0), True),
        ([], True),
        ([1.0, 2, 3.5], False),  # mixed int/float
        ([1.0, np.float64(0.1), -0.0], False),
        ([0.5, math.nan], False),
        ([math.inf, 1.0, -math.inf], False),
    ],
)
def test_dumps_writes_a_float_list_as_each_float(xs, joined):
    # a list of finite Python floats is written in one join; the others
    # element by element; both give the bytes of writing each element alone
    assert cli._finite_floats(xs) is joined
    assert dumps(xs) == "[" + ", ".join(dumps(x) for x in xs) + "]"
    assert dumps({"a": [xs]}) == '{"a": [' + dumps(xs) + "]}"


# ---------------------------------------------------------------------------
# commands and exit codes


def test_classify_tangent_sphere(capsys):
    code, out = run_cli(
        capsys, "classify", "--spec", "tangent_sphere", "--samples", "64"
    )
    assert code == 0
    report = json.loads(out)
    assert report["elliptic_fraction"] == 1.0


def test_classify_ball_all_nonelliptic(capsys):
    code, out = run_cli(
        capsys, "classify", "--spec", "ball_c2_dbar", "--samples", "64"
    )
    report = json.loads(out)
    assert code == 0
    assert report["non_elliptic"] == report["samples"]


def test_convexity_ball_exit_codes(capsys):
    code, out = run_cli(
        capsys,
        "convexity",
        "--spec",
        "ball_c2_dbar",
        "--samples",
        "16",
        "--require-q",
        "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["q_set"] == [1, 2]
    code2, _ = run_cli(
        capsys,
        "convexity",
        "--spec",
        "ball_c2_dbar",
        "--samples",
        "16",
        "--require-q",
        "0",
    )
    assert code2 == 2


def test_levi_explicit_point(capsys):
    code, out = run_cli(
        capsys,
        "levi",
        "--spec",
        "ball_c2_dbar",
        "--point",
        "1,0,0,0",
    )
    assert code == 0
    report = json.loads(out)
    entry = report["points"][0]
    assert entry["signature"] == [1, 0, 0]


def test_dsq_demo_nonzero(capsys):
    code, out = run_cli(capsys, "dsq", "--spec", "graph_bivector_demo")
    assert code == 0
    report = json.loads(out)
    assert report["d_squared_residual"] > 1e-6
    assert report["is_lie_algebroid_on_sample"] is False


def test_dsq_tangent_zero(capsys):
    code, out = run_cli(capsys, "dsq", "--spec", "tangent_sphere")
    report = json.loads(out)
    assert report["d_squared_residual"] == 0.0


def test_sobolev_determinism(capsys):
    args = ("sobolev", "--suite", "A.ii", "--grid", "64", "--seed", "7", "--trials", "3")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical


def test_sobolev_kernel_suite(capsys):
    code, out = run_cli(
        capsys, "sobolev", "--suite", "kernel.ii", "--quad-order", "8"
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["pass"] is True


def test_hodge_command(capsys):
    code, out = run_cli(
        capsys,
        "hodge",
        "--n-theta",
        "16",
        "--n-r",
        "32",
        "--trials",
        "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["harmonic_dim_deg1"] == 0


def test_error_exit_code(capsys):
    code = main(["classify", "--spec", "definitely_missing.spec"])
    assert code == 1


def test_csv_output(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code = main(
        [
            "classify",
            "--spec",
            "tangent_sphere",
            "--samples",
            "8",
            "--format",
            "csv",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["point", "classification"]
    assert len(lines) == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--spec", "poisson_c4", "--samples", "8"],
        ["levi", "--spec", "poisson_c4", "--max-points", "2"],
        ["hodge", "--n-theta", "16", "--n-r", "16", "--trials", "2", "--spectra"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_rows_have_the_header_width_and_json_cells(capsys, argv):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1 and all(len(row) == len(header) for row in rows)
    # a per-point table holds JSON in every cell; a key/value list, in its values
    cells = [row[1:] if header == ["key", "value"] else row for row in rows]
    assert any("[" in cell for row in cells for cell in row)  # list-valued cells
    for row in cells:
        for cell in row:
            json.loads(cell)


def test_classify_poisson_locus_fraction(capsys):
    # generic sphere samples are all elliptic; only the forced locus points
    # classify NonElliptic, so the non-elliptic count equals locus_samples
    code, out = run_cli(capsys, "classify", "--spec", "poisson_c4")
    report = json.loads(out)
    assert code == 0
    assert report["samples"] == 1020
    assert report["non_elliptic"] == 20


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--spec", "tangent_sphere", "--samples", "0"],
        ["classify", "--spec", "tangent_sphere", "--samples", "-5"],
        ["convexity", "--spec", "ball_c2_dbar", "--samples", "-5"],
        ["levi", "--spec", "poisson_c4", "--max-points", "0"],
        ["sobolev", "--suite", "A.ii", "--trials", "0"],
        ["hodge", "--trials", "-1"],
        ["sobolev", "--suite", "kernel.iii", "--quad-order", "0"],
    ],
)
def test_nonpositive_counts_are_rejected(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "expected a positive integer" in err


# the command lines that argparse rejects, whose wording changes between
# Python versions; the error lines that the program words are pinned, with
# their stderr, in golden/commands.txt
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--spec", "tangent_sphere", "--format", "xml"],
        ["hodge", "--n-r", "many"],
        ["classify"],
        ["nosuchcommand"],
        [],
        ["sobolev", "--suite", "kernel.iii", "--quad-order", "0"],
        ["sobolev", "--suite", "kernel.iii", "--quad-order", "-3"],
        # the labs' seed seeds numpy, which takes no negative seed
        ["sobolev", "--seed", "-1", "--suite", "A.ii"],
        ["hodge", "--seed", "-1"],
        ["hodge", "--trials", "abc"],
        # an unknown option or command, or one in the wrong place
        ["hodge", "--bogus"],
        ["hodg"],
        ["hodge", "classify"],
        ["dsq", "--spec", "tangent_sphere", "--samples", "40"],  # classify's option
        # a missing option or value
        ["sobolev"],
        ["dsq", "--spec"],
        # a value of the wrong type
        ["hodge", "--n-theta", "x"],
        ["hodge", "--rho0", "abc"],
        ["sobolev", "--suite", "A.i", "--grid", "x"],
        ["convexity", "--spec", "ball_c2_dbar", "--require-q", "x"],
        ["levi", "--spec", "ball_c2_dbar", "--max-points", "1.5"],
        ["classify", "--spec", "tangent_sphere", "--seed", "1e3"],
    ],
)
def test_rejected_command_lines_exit_1_with_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if "--seed" in argv:
        assert "--seed" in captured.err


def test_quad_order_past_its_bound_exits_1_naming_it(capsys):
    # checked before the Gauss-Legendre rule is built: --quad-order 100000
    # would ask leggauss for a 74.5 GiB companion matrix
    limit = bounds._MAX_QUAD_ORDER
    for order in (limit + 1, 100000):
        argv = ["sobolev", "--suite", "kernel.iii", "--quad-order", str(order)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"limit of {limit}" in captured.err


def test_unreadable_spec_and_unwritable_out_exit_1_with_one_line(tmp_path, capsys):
    for argv in (
        ["classify", "--spec", str(tmp_path)],  # a directory, not a spec file
        ["dsq", "--spec", "tangent_sphere", "--out", str(tmp_path / "missing" / "r.json")],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("q", ["3", "-1"])
def test_require_q_outside_0_to_rank_is_rejected(capsys, q):
    # ball_c2_dbar has rank 2, so the q-set can only hold degrees 0..2
    assert main(["convexity", "--spec", "ball_c2_dbar", "--require-q", q]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --require-q must be in 0..2 (the rank), got {q}\n"


@pytest.mark.parametrize("sampler", ["poisson_locus", "sphere_plus_locus"])
@pytest.mark.parametrize("dim", [2, 3])
def test_locus_samplers_need_dim_4(tmp_path, capsys, sampler, dim):
    text = gallery_spec_text("tangent_sphere").replace("dim = 3", f"dim = {dim}")
    text = text.replace("sampler = sphere", f"sampler = {sampler}")
    path = tmp_path / "low.spec"
    path.write_text(text)
    assert main(["classify", "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sampler {sampler!r} needs chart dim >= 4, got {dim}\n"


@pytest.mark.parametrize("key", ["structure_2_1", "structure_1_5"])
def test_custom_structure_keys_out_of_range_exit_1(tmp_path, capsys, key):
    # a rank-2 custom spec: the key used to be dropped and d^2 computed without it
    text = CUSTOM_RANK_2.replace("structure_1_2", key)
    path = tmp_path / "custom.spec"
    path.write_text(text)
    assert main(["dsq", "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: table key {key!r} out of range (need 1 <= i < j <= 2)\n"
    )


def test_spec_hash_tells_tolerances_apart(tmp_path, capsys):
    hashes = set()
    for tol in ("1.2345678e-8", "1.2345679e-8"):
        path = tmp_path / f"tol{tol}.spec"
        path.write_text(CUSTOM_RANK_2 + f"\n[options]\nrank_tol = {tol}\n")
        code, out = run_cli(capsys, "dsq", "--spec", str(path))
        assert code == 0
        hashes.add(json.loads(out)["meta"]["spec_hash"])
    assert len(hashes) == 2


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hodge", "--help"])
    assert exc.value.code == 0
    assert "--spectra" in capsys.readouterr().out


def test_samples_override_reaches_the_sampler(capsys):
    code, out = run_cli(capsys, "classify", "--spec", "tangent_sphere", "--samples", "1")
    assert code == 0
    assert json.loads(out)["samples"] == 1


def test_spec_samples_must_be_positive(tmp_path, capsys):
    text = gallery_spec_text("tangent_sphere").replace("samples = 1000", "samples = 0")
    path = tmp_path / "empty.spec"
    path.write_text(text)
    for command in ("classify", "convexity"):
        assert main([command, "--spec", str(path)]) == 1
        assert capsys.readouterr().err == "error: [boundary] samples must be >= 1\n"


@pytest.mark.parametrize(
    "point", ["1e300,0,0,0", "nan,0,0,0", "0,inf,0,0", "1,x,0,0", ""]
)
def test_levi_bad_point_exits_1_with_one_line(capsys, point):
    code = main(["levi", "--spec", "ball_c2_dbar", "--point", point])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_arithmetic_errors_exit_1_with_one_line(tmp_path, capsys):
    # the first circle sample is (1, 0), where r's denominator vanishes
    text = gallery_spec_text("symplectic_gc").replace(
        'r = "x1^2 + x2^2 - 1"', 'r = "(x1^2 + x2^2 - 1) / x2"'
    )
    path = tmp_path / "pole.spec"
    path.write_text(text)
    assert main(["classify", "--spec", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: ZeroDivisionError: expression denominator vanishes at the point\n"
    )


def test_memory_errors_exit_1_with_one_line(capsys):
    # far beyond the annulus grid's node limit, refused before any array
    assert main(["hodge", "--n-theta", "100000000000000", "--n-r", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, name", [
    (["hodge"], "dbar_report"),
    (["convexity", "--spec", "ball_c2_dbar"], "q_convex_set"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_a_memory_error_without_a_message_names_the_command(monkeypatch, capsys, argv, name):
    # Python's own allocations raise MemoryError() with no text, which left
    # "error: MemoryError: " with nothing after the colon
    def refuse(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, name, refuse)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: out of memory in {argv[0]}\n")


@pytest.mark.parametrize("suite, shape", [("A.i", "4096 x 4096"), ("T.ii", "4096 x 2049")])
def test_oversized_sobolev_grid_is_refused_by_its_node_count(capsys, suite, shape):
    assert main(["sobolev", "--suite", suite, "--grid", "4096"]) == 1
    kind = "torus" if suite.startswith("A.") else "half"
    assert capsys.readouterr().err == (
        f"error: MemoryError: {kind} grid of {shape} nodes exceeds the limit of 1048576 nodes\n"
    )


def test_oversized_hodge_grid_is_refused_before_it_allocates():
    # an overcommitted allocation of this grid succeeds and the process is
    # killed later; the grid is refused by its node count instead.  The
    # subprocess runs under a 1 GiB address-space limit, so that a grid that
    # did allocate fails there with numpy's message rather than touching
    # the machine's memory
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "hodgebench.cli", "hodge", "--n-theta", "4",
         "--n-r", str(10**8), "--trials", "1"],
        capture_output=True, text=True, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "error: MemoryError: annulus grid of 4 x 100000000 nodes exceeds the "
        "limit of 1048576 nodes\n"
    )


@pytest.mark.parametrize("k, seconds", [(20, 2.0), (400, 1.0)])
def test_exact_powers_past_the_term_pair_bound_exit_1_in_time(tmp_path, capsys, k, seconds):
    # squaring the five-term base to its 16th power is a product of 495 x 495
    # term pairs; it is refused before it runs, where it used to take minutes
    text = gallery_spec_text("ball_c2_dbar").replace(
        'r = "x1^2 + x2^2 + x3^2 + x4^2 - 1"', f'r = "(x1^2+x2^2+x3^2+x4^2-1)^{k}"'
    )
    path = tmp_path / f"power_{k}.spec"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["classify", "--spec", str(path), "--samples", "10"]) == 1
    assert time.perf_counter() - start < seconds
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a product of 495 x 495 polynomial terms exceeds the limit of "
        "100000 term pairs\n"
    )


def test_a_command_past_the_term_pair_budget_exits_1_in_time(capsys):
    # the dense C^16 Poisson spec builds its algebroid from 13,744 term pairs,
    # and its CE differentials would take about 1.2 M more (28 s)
    spec = Path(__file__).parent / "specs" / "poisson_c16_dense.spec"
    start = time.perf_counter()
    assert main(["dsq", "--spec", str(spec)]) == 1
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the exact products of this command exceed the budget of 16384 term pairs\n"
    )
    # the budget ends with the command, even one that fails: a library call
    # may square 153 terms (23,409 pairs), under the bound on one product
    chart = parse_specfile(spec.read_text()).chart()
    assert len(scalars.parse_expr("(x1 + x2 + 1)^32", chart).num) == 561


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_levi_notes_a_sample_without_non_elliptic_points(capsys, fmt):
    code, out = run_cli(capsys, "levi", "--spec", "tangent_sphere", "--format", fmt)
    assert code == 0
    note = "no non-elliptic points among the samples"
    if fmt == "json":
        report = json.loads(out)
        assert report["note"] == note and report["points"] == []
    else:
        rows = dict(csv.reader(io.StringIO(out)))
        assert json.loads(rows["note"]) == note and rows["points"] == "[]"


def gallery_spec_text(name):
    from hodgebench.gallery import GALLERY

    return GALLERY[name]


CUSTOM_RANK_2 = """
[chart]
dim = 2

[boundary]
r = "x1^2 + x2^2 - 1"
samples = 8

[algebroid]
kind = custom
anchor_1 = "1; 0"
anchor_2 = "0; x1"
structure_1_2 = "0; 1"
"""


# ---------------------------------------------------------------------------
# the trials bound


@pytest.mark.parametrize("argv, grid", [
    (["hodge", "--trials", "100000000"], "64 x 64"),
    (["sobolev", "--suite", "A.i", "--trials", "100000000"], "64 x 64"),
    (["sobolev", "--suite", "T.iv", "--trials", "100000000"], "64 x 33"),
    (["sobolev", "--suite", "subestimate", "--trials", "100000000"], "64 x 33"),
    (["hodge", "--n-theta", "256", "--n-r", "256", "--trials", "17"], "256 x 256"),
    (["sobolev", "--suite", "A.iv", "--grid", "1024", "--trials", "2"], "1024 x 1024"),
    # a grid under 1,024 nodes is charged 1,024 per trial
    (["sobolev", "--suite", "T.iv", "--grid", "16", "--trials", "1025"], "16 x 9"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_trials_past_their_bound_exit_1_in_time(capsys, argv, grid):
    # refused before any field is drawn, where these used to run for as long
    # as time or memory lasted
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    trials = argv[argv.index("--trials") + 1]
    assert capsys.readouterr() == ("", (
        f"error: {trials} trials on a grid of {grid} nodes exceed the limit of "
        "1048576 trial nodes (trials times grid nodes, at least 1024 per trial)\n"))


def test_the_trials_bound_admits_every_run_the_project_makes():
    # trials times grid nodes: hodge at 256 x 256 with 10 trials (CI), at
    # 64 x 64 with 50 and at 128 x 128 with 10 (the labs workload), 1,024
    # trials at 16 x 32 (the tests) and at 16 x 9 (charged 1,024 nodes each),
    # a battery's 8 trials at 64 x 64, and one trial on the largest torus
    for trials, shape in ((10, (256, 256)), (50, (64, 64)), (10, (128, 128)),
                          (1024, (16, 32)), (1024, (16, 9)), (8, (64, 64)),
                          (1, (1024, 1024))):
        bounds.check_trials(trials, shape)


# ---------------------------------------------------------------------------
# the chart dimension and sample bounds


@pytest.mark.parametrize("spec, old, new, err", [
    ("tangent_sphere", "dim = 3", "dim = 9999999",
     "[chart] dim = 9999999 exceeds the limit of 32 (_MAX_CHART_DIM)"),
    ("tangent_sphere", "samples = 1000", "samples = 9999999",
     "[boundary] samples = 9999999 exceeds the limit of 10000 samples (_MAX_SAMPLES)"),
    ("poisson_c4", "locus_samples = 20", "locus_samples = 9999999",
     "[boundary] locus_samples = 9999999 exceeds the limit of 10000 samples (_MAX_SAMPLES)"),
], ids=["dim", "samples", "locus_samples"])
@pytest.mark.parametrize("command", ["classify", "convexity", "levi", "dsq"])
def test_spec_counts_past_their_bounds_exit_1_in_time(tmp_path, capsys, spec, old, new,
                                                      err, command):
    # refused before any chart or sample exists, where dim = 9999999 ran out
    # of memory after half a minute and samples = 9999999 ran as long as
    # memory lasted
    text = gallery_spec_text(spec)
    assert old in text
    path = tmp_path / "big.spec"
    path.write_text(text.replace(old, new))
    start = time.perf_counter()
    assert main([command, "--spec", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("command", ["classify", "convexity"])
def test_samples_option_past_its_bound_exits_1_in_time(capsys, command):
    start = time.perf_counter()
    assert main([command, "--spec", "tangent_sphere", "--samples", "9999999"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: --samples = 9999999 exceeds the limit of 10000 samples (_MAX_SAMPLES)\n")


def test_the_spec_bounds_admit_every_run_the_project_makes():
    # the gallery goes up to dim 12 with 1,000 samples and 20 on the locus,
    # the boundary workload up to 4,400 samples, the symbolic one up to dim
    # 10; a spec at both bounds parses, one past either does not
    for name in gallery_names():
        spec = gallery_spec(name)
        assert spec.chart_dim <= 12 and spec.samples <= 1000 and spec.locus_samples <= 20
    bounds.check_samples("--samples", 4400)
    text = gallery_spec_text("poisson_c4").replace("\nsamples = 1000", "\nsamples = 10000")
    text = text.replace("locus_samples = 20", "locus_samples = 10000")
    parse_specfile(text)
    ball = '[chart]\ndim = {0}\n\n[boundary]\nr = "x{0}^2 - 1"\n\n[algebroid]\nkind = tangent\n'
    assert parse_specfile(ball.format(32)).chart_dim == 32
    with pytest.raises(SpecError, match="_MAX_CHART_DIM"):
        parse_specfile(ball.format(33))
    with pytest.raises(SpecError, match="_MAX_SAMPLES"):
        parse_specfile(gallery_spec_text("tangent_sphere").replace("samples = 1000",
                                                                   "samples = 10001"))


WALK_LIMIT = "exceed the limit of 33554432 points times dim^3 (_MAX_WALK)"


@pytest.mark.parametrize("command", ["classify", "convexity", "levi", "dsq"])
def test_a_sample_past_the_walk_bound_exits_1_in_time(capsys, command):
    # 10,000 sphere and 10,000 locus points at chart dim 32, on which classify,
    # convexity and levi took 5.9-9.9 s; they refuse it before any point is
    # drawn, while dsq, which draws only the 32 points it keeps, walks no sample
    start = time.perf_counter()
    code = main([command, "--spec", str(SPECS / "poisson_c16_sphere_plus_locus.spec")])
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    if command == "dsq":
        report = json.loads(out)
        assert (code, err, report["sample_points"]) == (0, "", 32)
        assert report["d_squared_residual"] == 0.51353802144302674
        assert seconds < 5.0
        return
    assert seconds < 1.0
    assert (code, out, err) == (1, "", f"error: 20000 boundary points at chart dim 32 {WALK_LIMIT}\n")


def test_the_walk_bound_is_points_times_dim_cubed(tmp_path):
    # 1,024 points at dim 32 is 2^25 exactly; the bound is checked once
    # --samples is applied, and only by the commands that walk the sample
    ball = SPECS / "ball_c16_dbar.spec"
    over = tmp_path / "ball_1025.spec"
    over.write_text(ball.read_text().replace("samples = 300", "samples = 1025"))
    refused = (1, "", f"error: 1025 boundary points at chart dim 32 {WALK_LIMIT}\n")
    for argv in (["classify", "--spec", str(ball), "--samples", "1025"],
                 ["classify", "--spec", str(over)], ["convexity", "--spec", str(over)],
                 ["levi", "--spec", str(over)]):
        assert run_main(argv) == refused, argv
    for spec in (ball, over):
        code, out, err = run_main(["classify", "--spec", str(spec), "--samples", "1024"])
        assert (code, json.loads(out)["samples"], err) == (0, 1024, "")
    on_sphere = ",".join(["1"] + ["0"] * 31)
    for argv in (["dsq", "--spec", str(over)], ["levi", "--spec", str(over), "--point", on_sphere]):
        code, out, err = run_main(argv)
        assert (code, err) == (0, ""), argv


# ---------------------------------------------------------------------------
# one subparser per run


def run_main(argv):
    """main's exit code (or --help's), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


PARSER_ARGVS = [
    [], ["--help"], ["hodg"], ["--seed", "3", "hodge"], ["hodge", "--bogus"],
    ["hodge", "--n-theta", "x"], ["hodge", "classify"], ["sobolev"],
    ["levi", "--format", "xml", "--spec", "a"], ["dsq", "--spec"],
    ["convexity", "--spec", "ball_c2_dbar", "--require-q", "x"],
    ["hodge", "--seed", "-2"], ["classify", "--samples", "0", "--spec", "tangent_sphere"],
    ["dsq", "--spec", "tangent_sphere"], ["sobolev", "--suite", "kernel.i", "--format", "csv"],
] + [[name, "--help"] for name in cli._COMMANDS]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_the_command_parser_alone_keeps_every_byte(monkeypatch, argv):
    # main's parser holds the subparser of argv's command only; the whole
    # parser gives the same exit code, report, help text and error line
    got = run_main(argv)
    whole = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: whole())
    assert got == run_main(argv)


def test_main_builds_only_the_parser_of_its_command(monkeypatch):
    built = []
    build = cli.build_parser

    def record(command=None):
        parser = build(command)
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        built.append(list(sub.choices))
        return parser

    monkeypatch.setattr(cli, "build_parser", record)
    for argv in (["dsq", "--spec", "tangent_sphere"], ["hodg"], []):
        run_main(argv)
    assert built == [["dsq"], list(cli._COMMANDS), list(cli._COMMANDS)]


# ---------------------------------------------------------------------------
# the labs' working set


@pytest.mark.parametrize("argv", [
    ["hodge"],
    ["hodge", "--n-theta", "128", "--n-r", "128", "--trials", "10"],
    ["sobolev", "--suite", "kernel.iii"],
    ["sobolev", "--suite", "kernel.iii", "--quad-order", "256"],
], ids=" ".join)
def test_the_largest_labs_commands_stay_in_a_bounded_working_set(argv):
    # the traced peak of the three labs commands that set that workload's
    # memory, and of kernel.iii at the largest order, the package already
    # imported: the trials' stacks of one degree, the deformed problems built
    # one at a time, kernel.iii's slabs and its quadrature blocks of
    # 2^15 / order forms hold it under 7 MB (16.7 MB at order 256 with a
    # fixed block of 1,024 forms)
    with redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 7e6, peak


def test_convexity_on_a_dim_32_ball_stays_in_a_bounded_working_set():
    # every sample of the antiholomorphic ball in C^16 is non-elliptic, so
    # each block of the walk stacks its anchors, their jacobians and the Levi
    # tail's frames; blocks of min(256, 2^20 / dim^3) points, 32 at dim 32,
    # hold the traced peak under 40 MB (214.6 MB with blocks of 256 points)
    argv = ["convexity", "--spec", str(SPECS / "ball_c16_dbar.spec")]
    with redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 40e6, peak
