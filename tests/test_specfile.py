import re

import pytest

from hodgebench.algebroids import ce_differential, AlgebroidForm
from hodgebench.levi import classify_point
from hodgebench.scalars import var
from hodgebench.specfile import SpecError, format_specfile, parse_specfile

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
