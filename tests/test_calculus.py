import random
from itertools import combinations, permutations

import pytest

from hodgebench.calculus import (
    FormExpr,
    GeneralizedSection,
    VectorFieldExpr,
    coordinate_field,
    courant_bracket,
    exterior_derivative,
    interior,
    lie_bracket,
    lie_derivative,
    wedge_sign,
    wirtinger,
)
from hodgebench.scalars import Chart, const, parse_expr, var


def random_poly(chart, rng, degree=2):
    e = const(chart, 0)
    for _ in range(3):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        term = const(chart, c)
        for _ in range(rng.randrange(0, degree + 1)):
            term = term * var(chart, rng.randrange(chart.dim))
        e = e + term
    return e


def random_field(chart, rng, degree=2):
    return VectorFieldExpr(
        chart, tuple(random_poly(chart, rng, degree) for _ in range(chart.dim))
    )


def random_form(chart, rng, degree, poly_degree=2):
    from itertools import combinations

    table = {
        idx: random_poly(chart, rng, poly_degree)
        for idx in combinations(range(chart.dim), degree)
    }
    return FormExpr.from_table(chart, degree, table)


# ---------------------------------------------------------------------------
# Wirtinger fields


def test_wirtinger_on_z():
    chart = Chart.complex_chart(1)
    z = parse_expr("z1", chart)
    dz = wirtinger(chart, 1, anti=False)
    dzb = wirtinger(chart, 1, anti=True)
    assert dz.apply(z) == const(chart, 1)
    assert dzb.apply(z).is_zero


def test_wirtinger_on_abs_square():
    chart = Chart.complex_chart(1)
    zz = parse_expr("z1*zb1", chart)
    dzb = wirtinger(chart, 1, anti=True)
    assert dzb.apply(zz) == parse_expr("z1", chart)


def test_wirtinger_requires_pairing():
    with pytest.raises(ValueError):
        wirtinger(Chart.real(2), 1, anti=False)


# ---------------------------------------------------------------------------
# Lie brackets


def test_bracket_coordinate_example():
    chart = Chart.real(2)
    d1 = coordinate_field(chart, 0)
    x1d2 = coordinate_field(chart, 1).scale(var(chart, 0))
    assert lie_bracket(d1, x1d2) == coordinate_field(chart, 1)


def test_bracket_antisymmetry_and_conjugation():
    chart = Chart.real(3)
    rng = random.Random(7)
    X = random_field(chart, rng)
    Y = random_field(chart, rng)
    assert (lie_bracket(X, Y) + lie_bracket(Y, X)).is_zero
    assert lie_bracket(X, Y).conj() == lie_bracket(X.conj(), Y.conj())


def test_jacobi_identity_symbolic():
    chart = Chart.real(3)
    rng = random.Random(11)
    for _ in range(3):
        X = random_field(chart, rng)
        Y = random_field(chart, rng)
        Z = random_field(chart, rng)
        total = (
            lie_bracket(lie_bracket(X, Y), Z)
            + lie_bracket(lie_bracket(Y, Z), X)
            + lie_bracket(lie_bracket(Z, X), Y)
        )
        assert total.is_zero


def test_hamiltonian_field_bracket_from_poisson_example():
    # X_r of the holomorphic Poisson structure x d_x ^ d_y + d_z ^ d_w
    # on C^4 satisfies [X_r, d_x] = ybar d_x on the locus {x = z = w = 0}.
    chart = Chart.complex_chart(4)  # (x, y, z, w)
    x, y, z, w = (parse_expr(f"z{k}", chart) for k in (1, 2, 3, 4))
    xb, yb, zb, wb = (e.conj() for e in (x, y, z, w))
    dx, dy = wirtinger(chart, 1, False), wirtinger(chart, 2, False)
    dz, dw = wirtinger(chart, 3, False), wirtinger(chart, 4, False)
    X_r = (
        dy.scale(x * xb)
        - dx.scale(yb * x)
        + dw.scale(zb)
        - dz.scale(wb)
    )
    bracket = lie_bracket(X_r, dx)
    expected = dx.scale(yb) - dy.scale(xb)
    assert bracket == expected  # equals ybar d_x wherever x = 0
    pt = [0, 0, 0.6, 0.8, 0, 0, 0, 0]  # x=0, y=0.6+0.8i, on the locus
    got = bracket.eval(pt)
    want = dx.scale(yb).eval(pt)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-15


# ---------------------------------------------------------------------------
# form calculus


def test_exterior_derivative_example():
    chart = Chart.real(2)
    eta = FormExpr.from_table(chart, 1, {(1,): var(chart, 0)})  # x1 dx2
    deta = exterior_derivative(eta)
    assert deta == FormExpr.from_table(chart, 2, {(0, 1): const(chart, 1)})


def test_d_squared_zero():
    chart = Chart.real(3)
    rng = random.Random(3)
    f = random_poly(chart, rng, 3)
    zero_form = FormExpr.from_table(chart, 0, {(): f})
    assert exterior_derivative(exterior_derivative(zero_form)).is_zero
    eta = random_form(chart, rng, 1)
    assert exterior_derivative(exterior_derivative(eta)).is_zero


def test_double_interior_vanishes():
    chart = Chart.real(3)
    rng = random.Random(5)
    X = random_field(chart, rng)
    eta = random_form(chart, rng, 2)
    assert interior(X, interior(X, eta)).is_zero


def test_cartan_magic_formula():
    chart = Chart.real(3)
    rng = random.Random(13)
    X = random_field(chart, rng)
    for degree in (1, 2):
        eta = random_form(chart, rng, degree)
        lhs = lie_derivative(X, eta)
        rhs = interior(X, exterior_derivative(eta)) + exterior_derivative(
            interior(X, eta)
        )
        assert (lhs - rhs).is_zero


def test_form_evaluation_alternating():
    chart = Chart.real(3)
    rng = random.Random(17)
    eta = random_form(chart, rng, 2)
    X = random_field(chart, rng)
    Y = random_field(chart, rng)
    assert (eta.apply(X, Y) + eta.apply(Y, X)).is_zero
    assert eta.apply(X, X).is_zero


def test_wedge_against_apply():
    chart = Chart.real(3)
    rng = random.Random(19)
    a = random_form(chart, rng, 1)
    b = random_form(chart, rng, 1)
    X, Y = random_field(chart, rng), random_field(chart, rng)
    lhs = a.wedge(b).apply(X, Y)
    rhs = a.apply(X) * b.apply(Y) - a.apply(Y) * b.apply(X)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Courant bracket


def test_courant_plain_vectors():
    chart = Chart.real(2)
    rng = random.Random(23)
    X, Y = random_field(chart, rng), random_field(chart, rng)
    zero1 = FormExpr.zero(chart, 1)
    out = courant_bracket(
        GeneralizedSection(X, zero1), GeneralizedSection(Y, zero1)
    )
    assert out.vector == lie_bracket(X, Y)
    assert out.covector.is_zero


def test_courant_pure_covectors():
    chart = Chart.real(2)
    rng = random.Random(29)
    xi = random_form(chart, rng, 1)
    eta = random_form(chart, rng, 1)
    Z = VectorFieldExpr.zero(chart)
    out = courant_bracket(GeneralizedSection(Z, xi), GeneralizedSection(Z, eta))
    assert out.is_zero


def graph_identity_residual(chart, rng):
    omega = random_form(chart, rng, 2)
    H = random_form(chart, rng, 3)
    X, Y = random_field(chart, rng), random_field(chart, rng)
    u = GeneralizedSection(X, interior(X, omega))
    v = GeneralizedSection(Y, interior(Y, omega))
    lhs = courant_bracket(u, v, H)
    bracket = lie_bracket(X, Y)
    expected_cov = interior(bracket, omega) + interior(
        Y, interior(X, exterior_derivative(omega) - H)
    )
    return lhs - GeneralizedSection(bracket, expected_cov)


def test_graph_of_two_form_identity():
    chart = Chart.real(3)
    rng = random.Random(31)
    for _ in range(5):
        assert graph_identity_residual(chart, rng).is_zero


# ---------------------------------------------------------------------------
# the one sign rule


def inversion_sign(seq):
    """(-1)^(number of inversions), counted pair by pair."""
    inversions = sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]
    )
    return (-1) ** inversions


@pytest.mark.parametrize("n", range(6))
def test_wedge_sign_is_the_inversion_parity(n):
    for perm in permutations(range(n)):
        assert wedge_sign(perm) == (inversion_sign(perm), tuple(range(n)))
    # e^ia ^ e^ib for every split of 0..n-1 into two increasing tuples
    for k in range(n + 1):
        for ia in combinations(range(n), k):
            ib = tuple(j for j in range(n) if j not in ia)
            assert wedge_sign(ia, ib) == (inversion_sign(ia + ib), tuple(range(n)))


def test_wedge_sign_rejects_a_repeated_index():
    assert wedge_sign((1, 1)) is None
    assert wedge_sign((3, 0, 3)) is None
    assert wedge_sign((2,), (0, 2, 4)) is None
    assert wedge_sign((0, 4), (1, 4)) is None
    assert wedge_sign((), (1, 3)) == (1, (1, 3))
