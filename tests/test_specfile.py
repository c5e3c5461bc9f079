import math
import re
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgebench.algebroids import ce_differential, AlgebroidForm
from hodgebench import specfile
from hodgebench.cli import load_spec, main
from hodgebench.gallery import GALLERY, gallery_spec
from hodgebench.levi import classify_point, sphere_lattice
from hodgebench.scalars import var
from hodgebench.specfile import (
    KINDS,
    SAMPLERS,
    SPEC_KEYS,
    SpecError,
    SpecFile,
    format_specfile,
    parse_specfile,
)

CUSTOM = """
[chart]
dim = 2

[boundary]
r = "x1^2 + x2^2 - 1"
sampler = sphere
samples = 16

[algebroid]
kind = custom
anchor_1 = "1; 0"
anchor_2 = "0; x1"
structure_1_2 = "0; 1"

[options]
seed = 3
"""


def test_custom_kind_builds_and_differentiates():
    spec = parse_specfile(CUSTOM)
    alg = spec.build_algebroid()
    assert alg.rank == 2
    chart = alg.chart
    # [w1, w2] = w2 by the declared structure; check d_L on a function
    f = AlgebroidForm.from_function(alg, var(chart, 0) * var(chart, 1))
    df = ce_differential(alg, f)
    assert df.coeff((0,)) == var(chart, 1)
    assert df.coeff((1,)) == var(chart, 0) * var(chart, 0)
    bd = spec.build_boundary()
    cls = classify_point(alg, bd, [1.0, 0.0])
    assert cls.elliptic


def test_custom_kind_round_trip():
    spec = parse_specfile(CUSTOM)
    text = format_specfile(spec)
    again = parse_specfile(text)
    assert format_specfile(again) == text


def test_custom_kind_validation_errors():
    bad = CUSTOM.replace('anchor_1 = "1; 0"', 'anchor_1 = "1"')
    with pytest.raises(SpecError):
        parse_specfile(bad)
    bad2 = CUSTOM.replace('structure_1_2 = "0; 1"', 'structure_1_2 = "0"')
    with pytest.raises(SpecError):
        parse_specfile(bad2)


def test_sampler_counts():
    spec = parse_specfile(CUSTOM)
    pts = spec.sample_points()
    assert len(pts) == 16
    assert all(abs(p[0] ** 2 + p[1] ** 2 - 1) < 1e-12 for p in pts)


def locus_rows(dim, count):
    """The Poisson gallery's circle {x = z = w = 0, |y| = 1}, row by row."""
    rows = []
    for k in range(count):
        theta = 2.0 * math.pi * ((k * 0.6180339887498949) % 1.0)
        rows.append([0.0, 0.0, math.cos(theta), math.sin(theta)] + [0.0] * (dim - 4))
    return np.array(rows).reshape(count, dim)


@pytest.mark.parametrize("sampler", tuple(SAMPLERS))
def test_samples_are_one_float_array_of_the_sampler_pieces(sampler):
    spec = replace(gallery_spec("poisson_c4"),  # dim 8
                   sampler=sampler, samples=37, locus_samples=5, inner_radius=0.25)
    lattice = sphere_lattice(8, 37)
    want = {
        "sphere": lattice,
        "two_spheres": np.concatenate([sphere_lattice(8, 18), sphere_lattice(8, 19, radius=0.25)]),
        "poisson_locus": locus_rows(8, 37),
        "sphere_plus_locus": np.concatenate([lattice, locus_rows(8, 5)]),
    }[sampler]
    pts = spec.sample_points()
    assert type(pts) is np.ndarray and pts.dtype == np.float64
    assert pts.shape == want.shape and pts.flags.c_contiguous
    assert spec.sample_size == len(want)
    assert pts.tobytes() == want.tobytes()


# a spec of each kind on a dim-4 chart, with an entry of each of its prefixes,
# and what the kind's refusal of a foreign entry says that it takes
KIND_SPECS = {
    "tangent": ({}, "no table entries"),
    "antiholomorphic": ({}, "no table entries"),
    "graph_bivector": ({"pi_1_2": "x3"}, "only pi_ entries"),
    "graph_two_form": ({"omega_1_2": "1", "omega_3_4": "x1"}, "only omega_ entries"),
    "holomorphic_poisson": ({"sigma_1_2": "z1"}, "only sigma_ entries"),
    "custom": ({"anchor_1": "1; 0; 0; 0", "anchor_2": "0; 1; 0; x2", "structure_1_2": "0; x1"},
               "only anchor_/structure_ entries"),
}


@pytest.mark.parametrize("kind", tuple(KINDS))
def test_every_kind_builds_from_its_prefixes_and_refuses_a_foreign_one(kind):
    entries, takes = KIND_SPECS[kind]
    assert {key.split("_")[0] + "_" for key in entries} == set(KINDS[kind].prefixes)
    spec = SpecFile(chart_dim=4, complex_pairs=KINDS[kind].complex, r_text="x1^2 + x2^2 - 1",
                    kind=kind, entries=entries)
    alg = spec.build_algebroid()
    assert alg.chart == spec.chart()
    text = format_specfile(spec)
    foreign = {p for other in KINDS.values() for p in other.prefixes} - set(KINDS[kind].prefixes)
    assert foreign
    for prefix in sorted(foreign):
        key = f"{prefix}1_2"
        message = f"kind {kind!r} takes {takes}, got {key!r}"
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            replace(spec, entries={**entries, key: "1"})
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            parse_specfile(text.replace("[algebroid]\n", f'[algebroid]\n{key} = "1"\n'))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_first_count_points_are_drawn_alone_with_the_bits_of_the_whole_sample(data):
    # counts below 8, inside the sample (across two_spheres' halves and into
    # sphere_plus_locus' locus part) and past its end
    sampler = data.draw(st.sampled_from(tuple(SAMPLERS)))
    sphere_only = sampler in ("sphere", "two_spheres")
    spec = SpecFile(
        chart_dim=data.draw(st.sampled_from((2, 3, 6, 12, 32) if sphere_only else (4, 6, 12, 32))),
        complex_pairs=False,
        r_text="x1",
        sampler=sampler,
        samples=data.draw(st.integers(1, 2000)),
        locus_samples=data.draw(st.integers(0, 100)),
        inner_radius=data.draw(st.floats(1e-3, 1e3)),
    )
    whole = spec.sample_points()
    edges = [spec.samples // 2, spec.samples, len(whole)]
    count = data.draw(st.integers(0, 7) | st.integers(0, len(whole) + 50)
                      | st.sampled_from(edges).flatmap(lambda n: st.integers(max(n - 1, 0), n + 1)))
    got = spec.sample_points(count)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == whole[:count].shape
    assert got.tobytes() == whole[:count].tobytes()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('structure_1_2 = "0; 1"', 'structure_1_2 = "0; 1; 0"', "needs 2"),
        ('anchor_2 = "0; x1"', 'anchor_3 = "0; x1"', "numbered 1..rank"),
        ('anchor_1 = "1; 0"\nanchor_2 = "0; x1"', "", "need anchor_<i> entries"),
    ],
)
def test_custom_kind_is_checked_at_parse(old, new, message):
    with pytest.raises(SpecError, match=re.escape(message)):
        parse_specfile(CUSTOM.replace(old, new))


def test_tolerances_round_trip_to_the_bit():
    text = CUSTOM.replace("seed = 3", "seed = 3\nrank_tol = 1.2345678e-8\neig_zero_tol = 3e-300")
    spec = parse_specfile(text)
    again = parse_specfile(format_specfile(spec))
    assert again.rank_tol == spec.rank_tol == 1.2345678e-8
    assert again.eig_zero_tol == spec.eig_zero_tol == 3e-300
    near = parse_specfile(text.replace("1.2345678e-8", "1.2345679e-8"))
    assert format_specfile(near) != format_specfile(spec)
    # the gallery's default tolerance keeps its text, so report digests stay
    assert "rank_tol = 1e-08\n" in format_specfile(parse_specfile(CUSTOM))


@st.composite
def specs(draw):
    """A SpecFile that parse_specfile accepts, over every kind and sampler.
    The keys that format_specfile leaves out for the drawn kind or sampler
    hold the values parse_specfile gives them when absent."""
    kind = draw(st.sampled_from(tuple(KINDS)))
    sampler = draw(st.sampled_from(tuple(SAMPLERS)))
    complex_pairs = kind in ("antiholomorphic", "holomorphic_poisson") or draw(st.booleans())
    low = 4 if sampler in ("poisson_locus", "sphere_plus_locus") else 1
    dim = draw(st.integers(low, 8))
    if complex_pairs:
        dim += dim % 2
    names = [f"x{i}" for i in range(1, dim + 1)]
    if complex_pairs:
        names += [f"{z}{k}" for z in ("z", "zb") for k in range(1, dim // 2 + 1)]
    terms = st.lists(st.sampled_from(names) | st.integers(0, 9).map(str),
                     min_size=1, max_size=3).map("*".join)
    expr = st.lists(terms, min_size=1, max_size=3).map(" + ".join)

    def pairs(prefix, upper, value):
        keys = [f"{prefix}{i}_{j}" for i in range(1, upper + 1) for j in range(i + 1, upper + 1)]
        chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)) if keys else []
        return {key: draw(value) for key in chosen}

    def rows(count):
        return st.lists(expr, min_size=count, max_size=count).map("; ".join)

    entries = {}
    if kind == "holomorphic_poisson":
        entries = pairs("sigma_", dim // 2, expr)
    elif kind in ("graph_bivector", "graph_two_form"):
        entries = pairs("pi_" if kind == "graph_bivector" else "omega_", dim, expr)
    elif kind == "custom":
        rank = draw(st.integers(1, 3))
        entries = {f"anchor_{i}": draw(rows(dim)) for i in range(1, rank + 1)}
        entries.update(pairs("structure_", rank, rows(rank)))
    tol = st.floats(0, 1, exclude_min=True, exclude_max=True)
    return SpecFile(
        chart_dim=dim,
        complex_pairs=complex_pairs,
        r_text=draw(expr),
        sampler=sampler,
        samples=draw(st.integers(1, 10_000)),
        locus_samples=draw(st.integers(0, 10_000)) if sampler == "sphere_plus_locus" else 20,
        inner_radius=(draw(st.floats(1e-300, 1e300)) if sampler == "two_spheres" else 0.5),
        kind=kind,
        entries=entries,
        rank_tol=draw(tol),
        eig_zero_tol=draw(tol),
        seed=draw(st.integers(-2**63, 2**63)),
    )


@given(specs())
def test_format_then_parse_gives_the_spec_back(spec):
    assert parse_specfile(format_specfile(spec)) == spec


def _cli_error(tmp_path, capsys, text, *argv):
    """The stderr of a workbench command on spec text that must exit 1."""
    path = tmp_path / "bad.spec"
    path.write_text(text)
    assert main([*argv, "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize(
    "key, value",
    [("rank_tol", v) for v in ("0", "-1", "-0.5", "1", "nan", "inf")]
    + [("eig_zero_tol", v) for v in ("0", "-1", "1.5", "nan", "inf", "-inf")],
)
def test_tolerances_outside_the_unit_interval_are_rejected_by_name(tmp_path, capsys, key, value):
    # a bad tolerance would flip the ellipticity or q-convexity verdicts silently
    text = GALLERY["poisson_c4"] + f"\n[options]\n{key} = {value}\n"
    err = _cli_error(tmp_path, capsys, text, "convexity")
    assert err.startswith(f"error: [options] {key} must be finite with 0 < {key} < 1")


@pytest.mark.parametrize(
    "name, key, value",
    [("poisson_c4", "locus_samples", "-3")]
    + [("annulus_c3_dbar", "inner_radius", v) for v in ("-1", "0", "nan", "1e400", "-inf")],
)
def test_sampler_settings_are_checked_at_parse(tmp_path, capsys, name, key, value):
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", GALLERY[name], flags=re.M)
    assert f"{key} = {value}\n" in text
    err = _cli_error(tmp_path, capsys, text, "classify", "--samples", "8")
    assert err.startswith(f"error: [boundary] {key} must be")


@pytest.mark.parametrize(
    "name, section, key, value",
    [
        ("poisson_c4", "chart", "dim", "eight"),
        ("poisson_c4", "boundary", "samples", "ten"),
        ("poisson_c4", "boundary", "samples", "1e3"),
        ("poisson_c4", "boundary", "locus_samples", "twenty"),
        ("annulus_c3_dbar", "boundary", "inner_radius", "half"),
        ("poisson_c4", "algebroid", "n", "4.0"),
        ("poisson_c4", "options", "rank_tol", "small"),
        ("poisson_c4", "options", "eig_zero_tol", "1e-8x"),
        ("poisson_c4", "options", "seed", "random"),
    ],
)
def test_numbers_that_do_not_parse_are_rejected_by_name(
    tmp_path, capsys, name, section, key, value
):
    text = GALLERY[name]
    if section == "options":
        text += f"\n[options]\n{key} = {value}\n"
    else:
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
    assert f"{key} = {value}\n" in text
    err = _cli_error(tmp_path, capsys, text, "classify", "--samples", "8")
    assert f"[{section}] {key} must be " in err and repr(value) in err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[options]", "[option]", "unknown section [option]"),
        ("samples = 16", "sampels = 20", "[boundary] has no key 'sampels'"),
        ("kind = custom", "kind = custom\nfoo = 1", "[algebroid] has no key 'foo'"),
        ("dim = 2", "dim = 2\nsigma_1_2 = \"1\"", "[chart] has no key 'sigma_1_2'"),
        ("samples = 16", "samples = 16\nsamples = 20", "[boundary] samples is given twice"),
        ("seed = 3", "seed = 3\n\n[options]\nseed = 4", "[options] seed is given twice"),
        ("dim = 2", "dim = 2\ncomplex = maybe", "[chart] complex must be true or false, got 'maybe'"),
        ("dim = 2", "dim = 2\ncomplex = on", "[chart] complex must be true or false, got 'on'"),
    ],
)
def test_what_the_parser_does_not_read_is_rejected_by_name(tmp_path, capsys, old, new, message):
    # each of these used to be passed over, or read as a real chart
    assert old in CUSTOM
    err = _cli_error(tmp_path, capsys, CUSTOM.replace(old, new, 1), "dsq")
    assert message in err


@pytest.mark.parametrize(
    "text, old, new, message",
    [
        (CUSTOM, "samples = 16", "samples 16", "line 8: expected key = value, got 'samples 16'"),
        (CUSTOM, "[chart]", "dim = 2\n[chart]", "line 2: entry before any [section]"),
        (CUSTOM, "dim = 2", "", "[chart] needs dim"),
        (CUSTOM, "dim = 2", "dim = 3\ncomplex = true", "complex charts need even dimension"),
        (CUSTOM, 'r = "x1^2 + x2^2 - 1"', "", "[boundary] needs r"),
        (CUSTOM, "sampler = sphere", "sampler = cube", "unknown sampler 'cube'"),
        (GALLERY["ball_c2_dbar"], "complex = true", "", "kind 'antiholomorphic' needs a complex chart"),
        (GALLERY["ball_c2_dbar"], "n = 2", "n = 1", "n must equal half the chart dimension"),
    ],
)
def test_malformed_specs_are_rejected_with_their_message(text, old, new, message):
    assert old in text
    with pytest.raises(SpecError, match=re.escape(message)):
        parse_specfile(text.replace(old, new, 1))


def test_a_missing_kind_reads_as_tangent_as_in_code():
    # an absent key takes the SpecFile default, kind as every other key
    text = GALLERY["tangent_sphere"]
    assert "kind = tangent\n" in text
    spec = parse_specfile(text.replace("kind = tangent\n", ""))
    assert spec == parse_specfile(text)
    assert spec.kind == "tangent" == SpecFile(chart_dim=2, complex_pairs=False, r_text="x1").kind
    # an empty kind is still refused by name
    with pytest.raises(SpecError, match="unknown algebroid kind ''"):
        parse_specfile(text.replace("kind = tangent", "kind ="))


def test_a_complex_kind_built_in_code_takes_n_from_its_chart():
    # n is half the chart dimension, so a complex kind built in code, which
    # states no n, builds what its formatted text builds
    spec = SpecFile(4, True, "x1^2 + x2^2 + x3^2 + x4^2 - 1", kind="antiholomorphic")
    text = format_specfile(spec)
    assert "\nn = 2\n" in text
    assert spec.build_algebroid() == parse_specfile(text).build_algebroid()


@pytest.mark.parametrize(
    "value, want", [("TRUE", True), ("yes", True), ("1", True), ("False", False), ("no", False), ("0", False)]
)
def test_chart_complex_takes_the_boolean_spellings(value, want):
    text = CUSTOM.replace("dim = 2", f"dim = 2\ncomplex = {value}")
    assert parse_specfile(text).complex_pairs is want


def test_repeated_sections_continue_the_first():
    spec = parse_specfile(CUSTOM + "\n[options]\nrank_tol = 1e-6\n")
    assert (spec.seed, spec.rank_tol) == (3, 1e-6)


def test_table_keys_that_are_not_numbered_are_rejected():
    text = CUSTOM.replace("structure_1_2", "structure_1_b")
    with pytest.raises(SpecError, match=re.escape("bad table key 'structure_1_b'")):
        parse_specfile(text)


@pytest.mark.parametrize(
    "text, entry, twin",
    [
        (GALLERY["graph_bivector_demo"], 'pi_2_3 = "x1"', 'pi_02_03 = "x2"'),
        (GALLERY["graph_bivector_demo"], 'pi_2_3 = "x1"', 'pi_\uff12_\uff13 = "x2"'),
        (GALLERY["poisson_c4"], 'sigma_1_2 = "z1"', 'sigma_1_02 = "1"'),
        (GALLERY["symplectic_gc"], 'omega_1_2 = "i"', 'omega_\u0661_2 = "1"'),
        (CUSTOM, 'structure_1_2 = "0; 1"', 'structure_01_2 = "1; 0"'),
    ],
    ids=["leading_zeros", "full_width", "sigma", "arabic_indic", "structure"],
)
def test_a_table_key_in_another_numeral_is_refused(tmp_path, capsys, text, entry, twin):
    # the twin named the slot of the entry, and the algebroid kept one of
    # the two while the spec hash covered both
    assert entry in text
    err = _cli_error(tmp_path, capsys, text.replace(entry, f"{entry}\n{twin}"), "dsq")
    key = twin.split(" = ")[0]
    assert err == f"error: bad table key {key!r} (expected prefix_i_j)\n"


# the normalized text of specs that no golden report hashes: a custom kind,
# the poisson_locus sampler, and two_spheres at an inner radius of its own
PINNED_TEXTS = {
    "custom": (CUSTOM, '''[chart]
dim = 2

[boundary]
r = "x1^2 + x2^2 - 1"
sampler = sphere
samples = 16

[algebroid]
kind = custom
anchor_1 = "1; 0"
anchor_2 = "0; x1"
structure_1_2 = "0; 1"

[options]
rank_tol = 1e-08
eig_zero_tol = 1e-08
seed = 3
'''),
    "poisson_locus": (GALLERY["poisson_c4"].replace("sampler = sphere_plus_locus", "sampler = poisson_locus")
                      .replace("samples = 1000", "samples = 40"), '''[chart]
dim = 8
complex = true

[boundary]
r = "x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2 + x7^2 + x8^2 - 1"
sampler = poisson_locus
samples = 40

[algebroid]
kind = holomorphic_poisson
n = 4
sigma_1_2 = "z1"
sigma_3_4 = "1"

[options]
rank_tol = 1e-08
eig_zero_tol = 1e-08
seed = 0
'''),
    "two_spheres": (GALLERY["annulus_c3_dbar"].replace("inner_radius = 0.5", "inner_radius = 0.3")
                    .replace("samples = 1000", "samples = 12"), '''[chart]
dim = 6
complex = true

[boundary]
r = "(x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2 - 1)*(x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2 - 0.25)"
sampler = two_spheres
samples = 12
inner_radius = 0.3

[algebroid]
kind = antiholomorphic
n = 3

[options]
rank_tol = 1e-08
eig_zero_tol = 1e-08
seed = 0
'''),
}


@pytest.mark.parametrize("name", PINNED_TEXTS)
def test_the_normalized_text_keeps_its_bytes(name):
    # the text feeds spec_hash, so a change to it changes every report's meta
    text, want = PINNED_TEXTS[name]
    assert format_specfile(parse_specfile(text)) == want


def test_readme_states_each_boundary_and_options_key_with_its_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = {(section, key): cell.strip() for section, key, cell
            in re.findall(r"^\| `\[(\w+)\] (\w+)` \| ([^|]+) \|", readme, re.M)}
    defaults = {f.name: f.default for f in fields(SpecFile)}
    want = {}
    for section in ("boundary", "options"):
        for key, (field, _, _) in SPEC_KEYS[section].items():
            want[section, key] = defaults[field]
    assert sorted(rows) == sorted(want), "README's key rows and SPEC_KEYS differ"
    for (section, key), default in want.items():
        cell = rows[section, key]
        if default is MISSING:
            assert cell == "required", key
        else:
            assert cell.startswith("`") and cell.endswith("`"), key
            assert SPEC_KEYS[section][key][1](cell[1:-1]) == default, key


def test_sampler_settings_that_are_not_read_are_not_checked():
    text = GALLERY["poisson_c4"].replace("sampler = sphere_plus_locus", "sampler = sphere")
    text = text.replace("locus_samples = 20", "locus_samples = -3\ninner_radius = -1")
    spec = parse_specfile(text)
    assert (spec.locus_samples, spec.inner_radius) == (-3, -1.0)
    assert spec.sample_points().shape == (1000, 8)


def test_a_complex_kind_on_a_real_chart_is_refused_when_made():
    # it once built an algebroid on C^2 over a boundary on R^4, whose every
    # point classified as non-elliptic with margin 0
    with pytest.raises(SpecError, match=re.escape("kind 'antiholomorphic' needs a complex chart")):
        SpecFile(4, False, "x1^2 + x2^2 + x3^2 + x4^2 - 1", kind="antiholomorphic")
    spec = SpecFile(4, True, "x1^2 + x2^2 + x3^2 + x4^2 - 1", kind="antiholomorphic")
    with pytest.raises(FrozenInstanceError):
        spec.complex_pairs = False


def test_a_checked_spec_keeps_its_entries_and_hashes():
    # a table entry written in after the checks once made build_algebroid read
    # a pi_ entry as sigma; the entries are now (key, text) pairs in key order
    spec = gallery_spec("poisson_c4")
    with pytest.raises(TypeError):
        spec.entries["pi_1_3"] = "z2"
    assert spec.entries == (("sigma_1_2", "z1"), ("sigma_3_4", "1"))
    # equal specs, whatever order their entries came in, hash alike
    swapped = replace(spec, entries={"sigma_3_4": "1", "sigma_1_2": "z1"})
    assert swapped == spec and hash(swapped) == hash(spec)
    assert {spec: 1}[parse_specfile(format_specfile(spec))] == 1


TANGENT = GALLERY["tangent_sphere"]


@pytest.mark.parametrize(
    "text, old, new, fields, message",
    [
        (CUSTOM, "dim = 2", "dim = 3\ncomplex = true", dict(chart_dim=3, complex_pairs=True),
         "complex charts need even dimension"),
        (CUSTOM, "dim = 2", "dim = 0", dict(chart_dim=0), "chart dimension must be >= 1"),
        (CUSTOM, "dim = 2", "dim = 33", dict(chart_dim=33),
         "[chart] dim = 33 exceeds the limit of 32 (_MAX_CHART_DIM)"),
        (TANGENT, "kind = tangent", "kind = nope", dict(kind="nope"), "unknown algebroid kind 'nope'"),
        (CUSTOM, "sampler = sphere", "sampler = cube", dict(sampler="cube"), "unknown sampler 'cube'"),
        (CUSTOM, "samples = 16", "samples = 0", dict(samples=0), "[boundary] samples must be >= 1"),
        (CUSTOM, "samples = 16", "samples = 10001", dict(samples=10_001),
         "[boundary] samples = 10001 exceeds the limit of 10000 samples (_MAX_SAMPLES)"),
        (GALLERY["poisson_c4"], "locus_samples = 20", "locus_samples = -3", dict(locus_samples=-3),
         "[boundary] locus_samples must be >= 0, got -3"),
        (GALLERY["annulus_c3_dbar"], "inner_radius = 0.5", "inner_radius = -1",
         dict(inner_radius=-1.0), "[boundary] inner_radius must be finite and > 0, got -1.0"),
        (CUSTOM, "seed = 3", "seed = 3\nrank_tol = 0", dict(rank_tol=0.0),
         "[options] rank_tol must be finite with 0 < rank_tol < 1, got 0.0"),
        (CUSTOM, "seed = 3", "seed = 3\nrank_tol = nan", dict(rank_tol=math.nan),
         "[options] rank_tol must be finite with 0 < rank_tol < 1, got nan"),
        (TANGENT, "sampler = sphere", "sampler = poisson_locus", dict(sampler="poisson_locus"),
         "sampler 'poisson_locus' needs chart dim >= 4, got 3"),
        (GALLERY["ball_c2_dbar"], "complex = true", "", dict(complex_pairs=False),
         "kind 'antiholomorphic' needs a complex chart"),
        # named before the table keys, which were read on the real chart and
        # refused as out of range (1 <= i < j <= 0), or z1 as an unknown name
        (GALLERY["poisson_c4"], "complex = true", "", dict(complex_pairs=False),
         "kind 'holomorphic_poisson' needs a complex chart"),
        (GALLERY["poisson_c4"].replace('"z1"', '"x1"'), "complex = true", "",
         dict(complex_pairs=False), "kind 'holomorphic_poisson' needs a complex chart"),
        (GALLERY["poisson_c4"], 'sigma_1_2 = "z1"\nsigma_3_4 = "1"', 'pi_1_2 = "z1"',
         dict(entries={"pi_1_2": "z1"}),
         "kind 'holomorphic_poisson' takes only sigma_ entries, got 'pi_1_2'"),
        (CUSTOM, "structure_1_2", "structure_1_3",
         dict(entries={"anchor_1": "1; 0", "anchor_2": "0; x1", "structure_1_3": "0; 1"}),
         "table key 'structure_1_3' out of range (need 1 <= i < j <= 2)"),
    ],
    ids=["odd_complex_dim", "dim_0", "dim_33", "kind", "sampler", "samples_0", "samples_10001",
         "locus_samples", "inner_radius", "rank_tol_0", "rank_tol_nan", "locus_at_dim_3",
         "real_chart", "real_chart_sigma_z1", "real_chart_sigma_x1", "table_prefix", "table_range"],
)
def test_a_spec_made_in_code_refuses_each_value_with_the_parsers_line(text, old, new, fields, message):
    assert old in text
    with pytest.raises(SpecError) as parsed:
        parse_specfile(text.replace(old, new, 1))
    with pytest.raises(SpecError) as made:
        replace(parse_specfile(text), **fields)
    assert str(parsed.value) == str(made.value) == message


@pytest.mark.parametrize("command", ["classify", "convexity", "levi", "dsq"])
@pytest.mark.parametrize("ref", ["custom", "poisson_c4"])
def test_a_spec_command_parses_each_expression_once(tmp_path, monkeypatch, capsys, command, ref):
    # levi at CUSTOM's elliptic points walks its 16 samples instead
    at = ["--point", "0,0,1,0,0,0,0,0"]
    if ref == "custom":
        path = tmp_path / "custom.spec"
        path.write_text(CUSTOM)
        ref, at = str(path), []
    spec = load_spec(ref)
    # r, each sigma_ entry, and each ';'-separated component of a custom entry
    want = [spec.r_text] + [c.strip() for _, text in spec.entries for c in text.split(";")]
    parsed = []
    parse = specfile.parse_expr
    monkeypatch.setattr(specfile, "parse_expr",
                        lambda text, chart: parsed.append(text) or parse(text, chart))
    extra = {"classify": ["--samples", "8"], "convexity": ["--samples", "8"],
             "levi": at, "dsq": []}[command]
    assert main([command, "--spec", ref, *extra]) == 0
    capsys.readouterr()
    assert sorted(parsed) == sorted(want)
