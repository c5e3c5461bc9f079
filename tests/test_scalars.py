import pytest

from hodgebench.scalars import (
    Chart,
    ExprSizeError,
    ExprSyntaxError,
    UnknownVariableError,
    const,
    parse_expr,
    var,
)


@pytest.fixture
def chart2():
    return Chart.real(2)


def test_parse_polynomial_and_evaluate(chart2):
    e = parse_expr("x1^2 + i*x2", chart2)
    assert e.eval([2, 3]) == 4 + 3j


def test_parse_conjugation_pushes_to_coefficients(chart2):
    e = parse_expr("conj(x1 + i*x2)", chart2)
    expected = parse_expr("x1 - i*x2", chart2)
    assert e == expected


def test_parse_syntax_error_carries_offset(chart2):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 +* 2", chart2)
    assert err.value.position == 4


def test_parse_unknown_variable(chart2):
    with pytest.raises(UnknownVariableError):
        parse_expr("x1 + nope", chart2)


def test_parse_complex_aliases():
    chart = Chart.complex_chart(1)
    z = parse_expr("z1", chart)
    assert z == parse_expr("x1 + i*x2", chart)
    zb = parse_expr("zb1", chart)
    assert zb == z.conj()


def test_decimal_literals_are_exact(chart2):
    e = parse_expr("0.5*x1", chart2)
    assert e.eval([3, 0]) == 1.5


def test_differentiate_power(chart2):
    e = parse_expr("x1^2", chart2)
    assert e.diff(0) == parse_expr("2*x1", chart2)


def test_differentiate_commutes_with_conj(chart2):
    e = parse_expr("conj(x1 + i*x2)", chart2)
    assert e.diff(0) == const(chart2, 1)
    assert e.diff(1) == const(chart2, -1j)


def test_quotient_rule(chart2):
    e = parse_expr("x1/x2", chart2)
    assert e.diff(1) == parse_expr("-x1/x2^2", chart2)


def test_rational_normalization_reduces_exact_multiples(chart2):
    x1, x2 = var(chart2, 0), var(chart2, 1)
    e = (x1 * x2 + x2) / x2
    assert e.is_polynomial
    assert e == x1 + 1


def test_rational_equality_by_cross_multiplication(chart2):
    x1, x2 = var(chart2, 0), var(chart2, 1)
    a = x1 / x2
    b = (x1 * x1) / (x1 * x2)
    assert a == b


def test_zero_division_raises(chart2):
    with pytest.raises(ZeroDivisionError):
        var(chart2, 0) / const(chart2, 0)


def test_negative_powers(chart2):
    x2 = var(chart2, 1)
    e = x2 ** (-2)
    assert e.eval([0, 2.0]) == 0.25


@pytest.mark.parametrize("point", [(0.5, -1.25), (2.0, 3.0), (-1.5, 0.75)])
def test_reciprocals_and_sums_of_quotients_match_complex_arithmetic(chart2, point):
    x1, x2 = point
    z = parse_expr("x1 + i*x2", chart2)
    cases = [
        # a negative exponent in the grammar
        (parse_expr("x1^-2", chart2), x1**-2),
        # rational functions with different denominators
        (parse_expr("1/x1 + x2/(x1 + i*x2)", chart2), 1 / x1 + x2 / (x1 + 1j * x2)),
        # a number on the left of - and /
        (2 - z, 2 - (x1 + 1j * x2)),
        (1 / z, 1 / (x1 + 1j * x2)),
    ]
    for expr, want in cases:
        assert expr.eval(list(point)) == pytest.approx(want, rel=1e-14, abs=0)


def test_products_past_the_term_pair_bound_are_refused(chart2):
    # (x1 + x2 + 1)^k has (k + 1)(k + 2)/2 terms: the 32nd power squares 153
    # terms (23,409 pairs), the 64th would square 561 (314,721, past 10^5)
    assert len(parse_expr("(x1 + x2 + 1)^32", chart2).num) == 561
    with pytest.raises(ExprSizeError, match="561 x 561 polynomial terms exceeds the limit of 100000"):
        parse_expr("(x1 + x2 + 1)^64", chart2)


def test_print_parse_roundtrip(chart2):
    cases = [
        "x1^2 + i*x2",
        "3/7*x1*x2 - x2^3",
        "(x1 + i*x2)/(x2^2 + 1)",
        "conj(x1^2 - i*x1*x2) + 2.25",
    ]
    for text in cases:
        e = parse_expr(text, chart2)
        again = parse_expr(str(e), chart2)
        assert again == e, text


def test_eval_matches_central_differences(chart2):
    # independent derivative oracle: 2nd-order central finite differences
    import random

    rng = random.Random(20240811)
    for _ in range(20):
        coeffs = [
            (
                (rng.randrange(0, 3), rng.randrange(0, 3)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            for _ in range(4)
        ]
        e = const(chart2, 0)
        for (a, b), c in coeffs:
            e = e + const(chart2, c) * var(chart2, 0) ** a * var(chart2, 1) ** b
        p = [rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)]
        h = 1e-6
        for i in range(2):
            sym = e.diff(i).eval(p)
            hi = list(p)
            lo = list(p)
            hi[i] += h
            lo[i] -= h
            fd = (e.eval(hi) - e.eval(lo)) / (2 * h)
            scale = max(1.0, abs(sym))
            assert abs(sym - fd) / scale <= 1e-6


def test_chart_invariants():
    with pytest.raises(ValueError):
        Chart(0)
    with pytest.raises(ValueError):
        Chart(3, complex_pairs=((0, 1),))
    with pytest.raises(ValueError):
        Chart(2, complex_pairs=((0, 0),))
    chart = Chart.complex_chart(2)
    assert chart.dim == 4
    assert chart.n_complex == 2


# ---------------------------------------------------------------------------
# evaluation: eval_many and eval against the term-by-term interpreter, bit for bit

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from hodgebench.scalars import CNum, PointBatch, ScalarExpr, eval_table


def _poly_eval(p, point):
    total = 0j
    for mono, c in p.items():
        term = c.to_complex()
        for x, e in zip(point, mono):
            if e:
                term *= x**e
        total += term
    return total


def reference_eval(expr, point):
    """The value at one point, summed term by term in Python complex numbers:
    the reference the lowered evaluator must match bit for bit."""
    if len(point) != expr.chart.dim:
        raise ValueError("point dimension mismatch")
    den = _poly_eval(expr.den, point)
    if den == 0:
        raise ZeroDivisionError("expression denominator vanishes at the point")
    return _poly_eval(expr.num, point) / den


small = st.integers(-9, 9)
coefficients = st.builds(
    lambda a, b, c, d: CNum(Fraction(a, b), Fraction(c, d)),
    small, st.integers(1, 8), small, st.integers(1, 8),
).filter(lambda c: not c.is_zero)
coordinates = st.floats(-2.0, 2.0)


def polynomials(dim, min_terms=0):
    monomials = st.tuples(*[st.integers(0, 6)] * dim)
    return st.dictionaries(monomials, coefficients, min_size=min_terms, max_size=4)


def points(dim, min_size=1):
    return st.lists(st.lists(coordinates, min_size=dim, max_size=dim), min_size=min_size, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eval_many_equals_eval_bytes(data):
    dim = data.draw(st.integers(1, 3))
    chart = Chart.real(dim)
    num = data.draw(polynomials(dim))
    den = data.draw(st.none() | polynomials(dim, min_terms=1))
    expr = ScalarExpr(chart, num, den)
    rows = data.draw(points(dim))
    try:
        want = np.array([reference_eval(expr, p) for p in rows], dtype=complex)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            expr.eval_many(np.array(rows))
        return
    got = expr.eval_many(np.array(rows))
    assert got.tobytes() == want.tobytes()
    assert np.array([expr.eval(p) for p in rows]).tobytes() == want.tobytes()
    # sample points reach eval as numpy scalars; the values must not change
    assert np.array([expr.eval(list(p)) for p in np.array(rows)]).tobytes() == want.tobytes()


def test_eval_many_equals_eval_bytes_past_overflow():
    # a product overflowing to inf and then meeting a zero part makes a nan;
    # the batch must make the same ones, and fail where eval fails
    chart = Chart.real(3)
    rows = [[1e120, 1e120, 1.0], [-1e120, 1e100, 0.0], [1e150, -1e150, 2.0], [1.0, 2.0, 3.0]]
    for text in ("(1+i)*x1^2*x2^2*x3", "i*x1^2*x2^2 + x3", "x1^2*x2^2*x3 / (x3 + 2*i)"):
        expr = parse_expr(text, chart)
        want = np.array([reference_eval(expr, p) for p in rows])
        assert np.isnan(want).any()
        assert expr.eval_many(np.array(rows)).tobytes() == want.tobytes()
        assert np.array([expr.eval(p) for p in rows]).tobytes() == want.tobytes()
    too_big = parse_expr("x1^3", chart)
    with pytest.raises(OverflowError):
        reference_eval(too_big, rows[0])
    with pytest.raises(OverflowError):
        too_big.eval(rows[0])
    with pytest.raises(OverflowError):
        too_big.eval_many(np.array(rows))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_vanishing_denominator_raises_on_both_paths(data):
    dim = data.draw(st.integers(1, 3))
    chart = Chart.real(dim)
    root = Fraction(data.draw(st.integers(-8, 8)), 4)  # exact in binary
    den = {(1,) + (0,) * (dim - 1): CNum.of(1), (0,) * dim: CNum.of(-root)}
    expr = ScalarExpr(chart, data.draw(polynomials(dim, min_terms=1)), den)
    assume(not expr.is_polynomial)
    rows = data.draw(points(dim, min_size=0))
    bad = [float(root)] + data.draw(st.lists(coordinates, min_size=dim - 1, max_size=dim - 1))
    with pytest.raises(ZeroDivisionError):
        reference_eval(expr, bad)
    with pytest.raises(ZeroDivisionError):
        expr.eval(bad)
    with pytest.raises(ZeroDivisionError):
        expr.eval_many(np.array(rows + [bad]))


def test_chart_points_are_real():
    # complex-typed points with zero imaginary parts evaluate as their real
    # parts; a nonzero imaginary part is refused, as chart points are real
    chart = Chart.real(3)
    expr = parse_expr("(x1^2*x2 - i*x3) / (x2^2 + 1)", chart)
    rows = np.array([[0.3, -1.2, 0.0], [-0.0, 2.5, 1.0 / 3.0], [1e-3, 0.5, -7.0]])
    want = expr.eval_many(rows)
    assert want.tobytes() == np.array([reference_eval(expr, p) for p in rows]).tobytes()
    as_complex = [list(map(complex, p)) for p in rows]
    assert expr.eval_many(np.array(as_complex)).tobytes() == want.tobytes()
    assert expr.eval_many(as_complex).tobytes() == want.tobytes()
    assert np.array([expr.eval(p) for p in as_complex]).tobytes() == want.tobytes()
    bad = [0.3, -1.2 + 1e-300j, 0.0]
    for call in (lambda: PointBatch([bad]), lambda: expr.eval(bad), lambda: expr.eval_many([bad])):
        with pytest.raises(ValueError, match="chart points are real"):
            call()


def test_eval_table_checks_the_point_dimension_of_zero_entries():
    chart = Chart.real(2)
    for table in ([const(chart, 0)], [[var(chart, 0), const(chart, 0)]]):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            eval_table(table, [[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# algebraic properties on drawn rational functions


def drawn_expr(data, chart):
    """A rational function with at most three terms over at most two, of
    degree at most 3 in each variable."""
    monomials = st.tuples(*[st.integers(0, 3)] * chart.dim)
    num = data.draw(st.dictionaries(monomials, coefficients, max_size=3))
    den = data.draw(st.none() | st.dictionaries(monomials, coefficients, min_size=1, max_size=2))
    return ScalarExpr(chart, num, den)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_print_parse_round_trips_on_drawn_expressions(data):
    chart = Chart.real(data.draw(st.integers(1, 3)))
    e = drawn_expr(data, chart)
    assert parse_expr(str(e), chart) == e


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_diff_commutes_with_conj_on_drawn_expressions(data):
    # the chart's variables are real, so d/dx_i commutes with conjugation
    chart = Chart.real(data.draw(st.integers(1, 3)))
    e = drawn_expr(data, chart)
    for i in range(chart.dim):
        assert e.diff(i).conj() == e.conj().diff(i), i


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_quotient_rule_on_drawn_expressions(data):
    chart = Chart.real(data.draw(st.integers(1, 3)))
    f, g = drawn_expr(data, chart), drawn_expr(data, chart)
    assume(not g.is_zero)
    for i in range(chart.dim):
        assert (f / g).diff(i) == (f.diff(i) * g - f * g.diff(i)) / g**2, i


# ---------------------------------------------------------------------------
# int coefficients against all-Fraction ones

import operator
import struct
from dataclasses import dataclass

from hodgebench.scalars import C_ZERO, _lower, _poly_mul


@dataclass(frozen=True)
class FractionCNum:
    """CNum with a Fraction for every part, integral or not: the reference
    for CNum's int parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other):
        return FractionCNum(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionCNum(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionCNum(-self.re, -self.im)

    def __mul__(self, other):
        return FractionCNum(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero coefficient")
        return FractionCNum(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conj(self):
        return FractionCNum(self.re, -self.im)

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)


# ints, Fraction(n, 1), zero, negatives, small denominators and ints past 2^53
rationals = (st.integers(-40, 40) | st.integers(-40, 40).map(Fraction) | st.just(0)
             | st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
             | st.integers(-2**70, 2**70))
gaussians = st.tuples(rationals, rationals)


def pair(re, im):
    """The same Gaussian rational as a CNum, built by CNum's own operations,
    and as its all-Fraction reference."""
    return CNum.of(re) + CNum.of(im) * CNum.of(1j), FractionCNum(Fraction(re), Fraction(im))


def assert_matches(got, want):
    assert (got.re, got.im) == (want.re, want.im)
    for part in (got.re, got.im):
        assert type(part) in (int, Fraction)  # never a float
        assert (type(part) is int) == (part.denominator == 1)
    z, w = got.to_complex(), want.to_complex()
    assert struct.pack("dd", z.real, z.imag) == struct.pack("dd", w.real, w.imag)


@settings(max_examples=300, deadline=None)
@given(gaussians, gaussians)
def test_int_parts_follow_the_all_fraction_reference(a, b):
    (x, x_ref), (y, y_ref) = pair(*a), pair(*b)
    for part in a:
        assert_matches(CNum.of(part), FractionCNum(Fraction(part), Fraction(0)))
    assert_matches(x, x_ref)
    assert_matches(-x, -x_ref)
    assert_matches(x.conj(), x_ref.conj())
    for op in (operator.add, operator.sub, operator.mul):
        assert_matches(op(x, y), op(x_ref, y_ref))
    if y_ref.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_matches(x / y, x_ref / y_ref)


def reference_product(p, q, zero):
    """_poly_mul's sum of term products in its order, over any coefficient class."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(mono, zero) + c1 * c2
            if s.is_zero:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lowered_products_keep_their_bits_under_int_parts(data):
    dim = data.draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(0, 2)] * dim)
    p, q = (data.draw(st.dictionaries(monomials, gaussians, max_size=5)) for _ in range(2))
    ours = [{mono: pair(*c)[0] for mono, c in t.items()} for t in (p, q)]
    refs = [{mono: pair(*c)[1] for mono, c in t.items()} for t in (p, q)]
    got = _poly_mul(*ours)
    want = reference_product(*refs, FractionCNum(Fraction(0), Fraction(0)))
    assert list(got.items()) == list(reference_product(*ours, C_ZERO).items())
    assert list(got) == list(want)
    for mono in got:
        assert_matches(got[mono], want[mono])
    lowered = [(struct.pack("dd", re, im), factors) for re, im, factors in _lower(got)]
    assert lowered == [(struct.pack("dd", re, im), factors) for re, im, factors in _lower(want)]
