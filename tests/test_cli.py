import csv
import io
import json
from pathlib import Path

import pytest

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


def test_specfile_errors():
    with pytest.raises(SpecError):
        parse_specfile("[chart]\ndim = 2\n")  # missing sections
    with pytest.raises(SpecError):
        parse_specfile(
            "[chart]\ndim = 2\n[boundary]\nr = \"x1\"\n[algebroid]\nkind = nope\n"
        )
    with pytest.raises(Exception):
        parse_specfile(
            "[chart]\ndim = 2\n[boundary]\nr = \"x1 +* 2\"\n[algebroid]\nkind = tangent\n"
        )


def test_load_spec_rejects_unknown():
    with pytest.raises(SpecError):
        load_spec("not_a_gallery_name_or_file")


def test_dumps_17_digits():
    text = dumps({"x": 1.0 / 3.0})
    assert text == '{"x": 0.33333333333333331}'
    assert json.loads(text)["x"] == pytest.approx(1 / 3)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--spec", "tangent_sphere", "--format", "xml"],
        ["hodge", "--n-r", "many"],
        ["classify"],
        ["nosuchcommand"],
        [],
        # --grid N gives the half grid N // 2 + 1 = 4 radial points, one too few
        ["sobolev", "--suite", "T.i", "--grid", "6"],
        ["sobolev", "--suite", "T.i", "--grid", "7"],
        ["sobolev", "--suite", "subestimate", "--grid", "6"],
        ["sobolev", "--suite", "kernel.iii", "--quad-order", "0"],
        ["sobolev", "--suite", "kernel.iii", "--quad-order", "-3"],
        # an [algebroid] table entry with another kind's prefix
        ["dsq", "--spec", str(SPECS / "holomorphic_poisson_with_pi_entry.spec")],
        ["dsq", "--spec", str(SPECS / "antiholomorphic_with_sigma_entry.spec")],
    ],
)
def test_rejected_command_lines_exit_1_with_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
    # the mode table alone asks for 728 TiB, beyond any address space, so
    # the allocation fails at once
    assert main(["hodge", "--n-theta", "100000000000000", "--n-r", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError: ") and err.count("\n") == 1


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
