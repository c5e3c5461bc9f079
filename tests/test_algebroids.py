import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgebench.algebroids import (
    AlgebroidForm,
    AlgebroidSpec,
    bivector_contract,
    ce_differential,
    d_squared_residual,
    is_elliptic_at,
    jacobiator,
    make_antiholomorphic,
    make_graph_bivector,
    make_graph_two_form,
    make_holomorphic_poisson,
    make_tangent,
    sigma_contract,
)
from hodgebench.calculus import (
    FormExpr,
    GeneralizedSection,
    coordinate_field,
    courant_bracket,
    insertion_sign,
    lie_bracket,
    wirtinger,
)
from hodgebench.gallery import GALLERY, gallery_spec
from hodgebench.scalars import Chart, const, parse_expr, var
from hodgebench.specfile import parse_specfile


def sphere_points(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return [list(map(complex, p)) for p in pts]


def structure_coeff(alg, i, j, k):
    """c^k_ij from alg's stored rows, with the antisymmetry c^k_ij = -c^k_ji
    built in: the pair accessor of the oracles below."""
    row = alg.structure.get((i, j) if i < j else (j, i))
    if i == j or row is None:
        return const(alg.chart, 0)
    return row[k] if i < j else -row[k]


# ---------------------------------------------------------------------------
# constructors


def test_tangent_anchors_and_exterior_derivative():
    chart = Chart.real(2)
    alg = make_tangent(chart)
    assert alg.anchors[0] == coordinate_field(chart, 0)
    assert alg.anchors[1] == coordinate_field(chart, 1)
    f = parse_expr("x1*x2", chart)
    df = ce_differential(alg, AlgebroidForm.from_function(alg, f))
    assert df.coeff((0,)) == var(chart, 1)
    assert df.coeff((1,)) == var(chart, 0)
    flag, margin = is_elliptic_at(alg, [0.3, -1.2])
    assert flag and margin == pytest.approx(1.0)


def test_antiholomorphic_anchor_and_disjoint_conjugate():
    alg = make_antiholomorphic(1)
    chart = alg.chart
    expected = wirtinger(chart, 1, anti=True)
    assert alg.anchors[0] == expected
    # rho(L) and its conjugate intersect trivially: the stacked 2x2 matrix
    # [dzbar | dz] has full rank, margin 1/sqrt(2) per column scaling
    flag, margin = is_elliptic_at(alg, [0.2, 0.4])
    assert flag
    A = alg.anchor_matrices([[0.2, 0.4]])[0]
    # dim(rho(L) cap conj(rho(L))) = rank A + rank conj(A) - rank [A | conj(A)] = 0
    inter = 2 * np.linalg.matrix_rank(A) - np.linalg.matrix_rank(
        np.hstack([A, A.conj()])
    )
    assert inter == 0
    assert ce_differential(
        alg, AlgebroidForm.from_function(alg, parse_expr("z1*zb1", chart))
    ).coeff((0,)) == parse_expr("z1", chart)


def test_antiholomorphic_d_squared_zero():
    alg = make_antiholomorphic(2)
    assert d_squared_residual(alg, sphere_points(4, 5)) == 0.0


def test_graph_two_form_structure_vanishes():
    chart = Chart.real(3)
    from itertools import combinations

    table = {
        idx: parse_expr("x1 - 2*x3", chart) if idx == (0, 1) else var(chart, idx[0])
        for idx in combinations(range(3), 2)
    }
    omega = FormExpr.from_table(chart, 2, table)
    alg = make_graph_two_form(omega)
    assert all(c.is_zero for row in alg.structure.values() for c in row)
    assert d_squared_residual(alg, sphere_points(3, 4)) == 0.0


def test_graph_bivector_zero_and_constant():
    chart = Chart.real(2)
    alg0 = make_graph_bivector(chart, {})
    assert all(a.is_zero for a in alg0.anchors)
    assert d_squared_residual(alg0, sphere_points(2, 3)) == 0.0
    alg1 = make_graph_bivector(chart, {(0, 1): const(chart, 1)})
    assert d_squared_residual(alg1, sphere_points(2, 3)) == 0.0
    flag, _ = is_elliptic_at(alg0, [0.5, 0.5])
    assert not flag


def test_graph_bivector_non_jacobi_cross_validated():
    # pi = x2 d1^d2 + x1 d2^d3 has nonvanishing Jacobiator
    chart = Chart.real(3)
    pi = {(0, 1): var(chart, 1), (1, 2): var(chart, 0)}
    alg = make_graph_bivector(chart, pi)
    pts = sphere_points(3, 6, seed=4)
    residual = d_squared_residual(alg, pts)
    assert residual > 1e-6
    jac = jacobiator(chart, pi, var(chart, 0), var(chart, 1), var(chart, 2))
    assert not jac.is_zero
    # both-ways battery: d^2 == 0 exactly when the Jacobiator vanishes
    batteries = [
        ({}, True),
        ({(0, 1): const(chart, 1)}, True),
        ({(0, 1): var(chart, 2), (0, 2): -var(chart, 1), (1, 2): var(chart, 0)}, True),
        (pi, False),
        ({(0, 1): var(chart, 0)}, True),  # {x1,x2}=x1: a Lie-Poisson piece
    ]
    for table, should_vanish in batteries:
        spec = make_graph_bivector(chart, table)
        res = d_squared_residual(spec, pts)
        jac_zero = all(
            jacobiator(
                chart, table, var(chart, a), var(chart, b), var(chart, c)
            ).is_zero
            for a in range(3)
            for b in range(3)
            for c in range(3)
        )
        assert jac_zero == should_vanish
        assert (res == 0.0) == should_vanish


def test_holomorphic_poisson_example_anchor_and_integrability():
    # sigma = x d/dx ^ d/dy + d/dz ^ d/dw on C^4 (k = 1)
    n = 4
    chart = Chart.complex_chart(n)
    x = parse_expr("z1", chart)
    sigma = {(1, 2): x, (3, 4): const(chart, 1)}
    alg = make_holomorphic_poisson(n, sigma)
    assert alg.rank == 8
    # anchor of the dz^1-section is sigma(dx) = x d/dy
    expected = wirtinger(chart, 2, anti=False).scale(x)
    assert alg.anchors[n + 0] == expected
    assert d_squared_residual(alg, sphere_points(8, 4)) == 0.0


def test_holomorphic_poisson_rejects_nonholomorphic():
    chart = Chart.complex_chart(2)
    with pytest.raises(ValueError):
        make_holomorphic_poisson(2, {(1, 2): parse_expr("zb1", chart)})


def test_holomorphic_poisson_sigma_zero_reduces():
    alg = make_holomorphic_poisson(2, {})
    assert all(a.is_zero for a in alg.anchors[2:])
    assert d_squared_residual(alg, sphere_points(4, 4)) == 0.0


# ---------------------------------------------------------------------------
# CE differential properties


def test_ce_leibniz_rule():
    chart = Chart.real(3)
    alg = make_tangent(chart)
    rng = random.Random(5)

    def rand_poly():
        e = const(chart, 0)
        for _ in range(3):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            term = const(chart, c)
            for _ in range(rng.randrange(0, 3)):
                term = term * var(chart, rng.randrange(3))
            e = e + term
        return e

    f = rand_poly()
    phi = AlgebroidForm(alg, 1, tuple(((k,), rand_poly()) for k in range(3)))
    lhs = ce_differential(alg, phi.scale(f))
    df = ce_differential(alg, AlgebroidForm.from_function(alg, f))
    rhs = df.wedge(phi) + ce_differential(alg, phi).scale(f)
    assert (lhs - rhs).is_zero


def test_ce_differential_requires_structure():
    chart = Chart.real(2)
    from hodgebench.algebroids import AlgebroidSpec

    alg = AlgebroidSpec(
        chart, 2, tuple(coordinate_field(chart, i) for i in range(2)), None
    )
    with pytest.raises(ValueError):
        ce_differential(alg, AlgebroidForm.from_function(alg, var(chart, 0)))


def test_anchored_bracket_compatibility():
    # rho([w_i,w_j]) = [rho(w_i), rho(w_j)] for the built-in Lie algebroids
    so3 = Chart.real(3)
    lie_poisson = {(0, 1): var(so3, 2), (0, 2): -var(so3, 1), (1, 2): var(so3, 0)}
    for alg in (
        make_tangent(Chart.real(3)),
        make_antiholomorphic(2),
        make_holomorphic_poisson(2, {(1, 2): parse_expr("z1", Chart.complex_chart(2))}),
        gallery_spec("poisson_c4").build_algebroid(),
        make_graph_bivector(so3, lie_poisson),
    ):
        for i in range(alg.rank):
            for j in range(i + 1, alg.rank):
                lhs = lie_bracket(alg.anchors[i], alg.anchors[j])
                rhs_comps = None
                for k in range(alg.rank):
                    c = structure_coeff(alg, i, j, k)
                    piece = alg.anchors[k].scale(c)
                    rhs_comps = piece if rhs_comps is None else rhs_comps + piece
                assert (lhs - rhs_comps).is_zero


def test_elliptic_margin_frame_change_invariance():
    alg = make_antiholomorphic(2)
    point = [0.1, 0.2, 0.3, 0.4]
    flag, _ = is_elliptic_at(alg, point)
    # an invertible constant frame change keeps the flag
    from hodgebench.algebroids import AlgebroidSpec

    chart = alg.chart
    mixed = (
        alg.anchors[0] + alg.anchors[1],
        alg.anchors[0] - alg.anchors[1],
    )
    alg2 = AlgebroidSpec(chart, 2, mixed, {})
    flag2, _ = is_elliptic_at(alg2, point)
    assert flag == flag2 == True  # noqa: E712


# ---------------------------------------------------------------------------
# closed-form structure functions against the Courant-bracket frame expansion


def courant_structure_holomorphic_poisson(n, sigma):
    """{(i, j): row} from untwisted Courant brackets of the frame sections
    u_i = d/dzbar^i + 0 and s_k = sigma(dz^k) + dz^k, expanded along the
    conjugate complement: the (0,1) vector part gives the u-coefficients,
    the dz part of the covector the s-coefficients."""
    chart = Chart.complex_chart(n)

    def dz(k):
        re_i, im_i = chart.complex_pairs[k - 1]
        return FormExpr.from_table(
            chart, 1, {(re_i,): const(chart, 1), (im_i,): const(chart, 1j)}
        )

    def dzbar_component(Y, k):
        re_i, im_i = chart.complex_pairs[k - 1]
        return Y.components[re_i] - const(chart, 1j) * Y.components[im_i]

    unit_alpha = [
        [const(chart, 1) if i == k else const(chart, 0) for i in range(n)]
        for k in range(n)
    ]
    sections = [
        GeneralizedSection(wirtinger(chart, i + 1, anti=True), FormExpr.zero(chart, 1))
        for i in range(n)
    ] + [
        GeneralizedSection(sigma_contract(chart, sigma, unit_alpha[k]), dz(k + 1))
        for k in range(n)
    ]
    structure = {}
    for i, j in combinations(range(2 * n), 2):
        br = courant_bracket(sections[i], sections[j])
        structure[(i, j)] = [dzbar_component(br.vector, a + 1) for a in range(n)] + [
            br.covector.apply(wirtinger(chart, a + 1, anti=False)) for a in range(n)
        ]
    return structure


def courant_structure_graph_bivector(chart, pi, H=None):
    """{(i, j): row} from Courant brackets (twisted by H) of the frame
    sections w_i = pi(dx^i) + dx^i, read off the covector component."""
    m = chart.dim
    unit = [
        [const(chart, 1) if i == j else const(chart, 0) for j in range(m)]
        for i in range(m)
    ]
    sections = [
        GeneralizedSection(
            bivector_contract(chart, pi, unit[i]),
            FormExpr.from_table(chart, 1, {(i,): const(chart, 1)}),
        )
        for i in range(m)
    ]
    structure = {}
    for i, j in combinations(range(m), 2):
        br = courant_bracket(sections[i], sections[j], H)
        structure[(i, j)] = [br.covector.coeff((k,)) for k in range(m)]
    return structure


def assert_terms_equal(alg, oracle):
    """Every c^k_ij equals the oracle's term for term: the same monomials in
    the same dict order with equal coefficients, numerator and denominator."""
    for (i, j), row in oracle.items():
        for k, expected in enumerate(row):
            got = structure_coeff(alg, i, j, k)
            assert list(got.num.items()) == list(expected.num.items()), (i, j, k)
            assert list(got.den.items()) == list(expected.den.items()), (i, j, k)


@pytest.mark.parametrize("name", ["poisson_c4", "poisson_c6", "graph_bivector_demo"])
def test_gallery_structure_equals_courant_expansion(name):
    alg = gallery_spec(name).build_algebroid()
    meta = alg.meta
    if meta["kind"] == "holomorphic_poisson":
        oracle = courant_structure_holomorphic_poisson(meta["n"], meta["sigma"])
    else:
        oracle = courant_structure_graph_bivector(alg.chart, meta["pi"], meta["H"])
    assert len(oracle) == alg.rank * (alg.rank - 1) // 2
    assert_terms_equal(alg, oracle)


def _gaussian_rational(draw):
    re = draw(st.integers(-4, 4))
    im = draw(st.integers(-4, 4))
    den = draw(st.integers(1, 5))
    return f"({re} + {im}*i)/{den}"


def _polynomial_text(draw, names, max_terms=3, max_exp=2):
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        factors = [_gaussian_rational(draw)]
        for name in names:
            e = draw(st.integers(0, max_exp))
            if e:
                factors.append(f"{name}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_holomorphic_poisson_structure_equals_courant_expansion(data):
    # includes non-Poisson tables: no Jacobi condition is imposed on sigma
    n = data.draw(st.integers(2, 4))
    chart = Chart.complex_chart(n)
    names = [f"z{k + 1}" for k in range(n)]
    pairs = data.draw(
        st.lists(
            st.sampled_from(list(combinations(range(1, n + 1), 2))),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    sigma = {
        pair: parse_expr(_polynomial_text(data.draw, names), chart) for pair in pairs
    }
    alg = make_holomorphic_poisson(n, sigma)
    assert_terms_equal(alg, courant_structure_holomorphic_poisson(n, sigma))


@settings(max_examples=20, deadline=None)
@given(st.data(), st.booleans())
def test_graph_bivector_structure_equals_courant_expansion(data, twisted):
    m = data.draw(st.integers(3, 4))
    chart = Chart.real(m)
    names = list(chart.names)
    pairs = data.draw(
        st.lists(
            st.sampled_from(list(combinations(range(m), 2))),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    pi = {pair: parse_expr(_polynomial_text(data.draw, names), chart) for pair in pairs}
    H = None
    if twisted:
        triples = data.draw(
            st.lists(
                st.sampled_from(list(combinations(range(m), 3))),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        H = FormExpr.from_table(
            chart,
            3,
            {t: parse_expr(_polynomial_text(data.draw, names), chart) for t in triples},
        )
    alg = make_graph_bivector(chart, pi, H)
    assert_terms_equal(alg, courant_structure_graph_bivector(chart, pi, H))


def _fixed_points(dim):
    base = [0.3, -0.7, 0.5, 0.1, -0.2, 0.6, 0.9, -0.4, 0.25, -0.35]
    return [[base[(k + s) % len(base)] for k in range(dim)] for s in range(3)]


@pytest.mark.parametrize(
    "n, table, bits",
    [
        (
            3,
            {(1, 2): "z1*z3 + z2^2/5 - i*z3^2", (1, 3): "z2/3 + z1*z2", (2, 3): "z2*z3 - i*z1^2"},
            "0x1.3986fdfe15600p+1",
        ),
        (
            3,
            {(1, 2): "z2^2 + i*z3", (1, 3): "2*z1", (2, 3): "z1*z3"},
            "0x1.efc660f05e7a1p+1",
        ),
        (
            4,
            {(1, 2): "z3", (3, 4): "z1*z2", (1, 4): "1/2 + z4"},
            "0x1.7c9244a4fb68cp+0",
        ),
    ],
)
def test_non_poisson_residual_bits_pinned(n, table, bits):
    # eval sums terms in dict order, so these bits can move if a structure
    # function's term order does (the first table's do, by one ulp, when
    # every row is reversed)
    chart = Chart.complex_chart(n)
    sigma = {pair: parse_expr(text, chart) for pair, text in table.items()}
    alg = make_holomorphic_poisson(n, sigma)
    assert d_squared_residual(alg, _fixed_points(2 * n)).hex() == bits


def test_twisted_bivector_residual_bits_pinned():
    chart = Chart.real(4)
    pi = {
        (0, 1): parse_expr("1", chart),
        (2, 3): parse_expr("1 + x1^2/3", chart),
        (1, 3): parse_expr("x3", chart),
    }
    H = FormExpr.from_table(
        chart,
        3,
        {(0, 1, 2): parse_expr("x2 - x4/7", chart), (1, 2, 3): parse_expr("1/3", chart)},
    )
    alg = make_graph_bivector(chart, pi, H)
    assert d_squared_residual(alg, _fixed_points(4)).hex() == "0x1.f12a547964d83p+0"


# ---------------------------------------------------------------------------
# ce_differential over the stored structure rows against the full pair loop


def ce_differential_oracle(alg, phi):
    """The CE differential as a loop over every (K, a < b, k), reading each
    c^k_ij through structure_coeff and multiplying each term by its sign."""
    chart = alg.chart
    q = phi.degree
    table = {}
    phi_table = phi.table()
    zero = const(chart, 0)
    for K in combinations(range(alg.rank), q + 1):
        acc = zero
        for a in range(q + 1):
            rest = K[:a] + K[a + 1 :]
            c = phi_table.get(rest)
            if c is not None:
                acc = acc + const(chart, (-1) ** a) * alg.anchors[K[a]].apply(c)
        for a in range(q + 1):
            for b in range(a + 1, q + 1):
                rest = tuple(x for t, x in enumerate(K) if t not in (a, b))
                sign_ab = (-1) ** (a + b)
                for k in range(alg.rank):
                    ins, merged = insertion_sign(k, rest)
                    if ins == 0:
                        continue
                    c = phi_table.get(merged)
                    if c is None:
                        continue
                    sc = structure_coeff(alg, K[a], K[b], k)
                    if sc.is_zero:
                        continue
                    acc = acc + const(chart, sign_ab * ins) * sc * c
        if not acc.is_zero:
            table[K] = acc
    return AlgebroidForm(alg, q + 1, tuple(table.items()))


def assert_forms_term_equal(got, expected):
    """The same index tuples in the same order, and every coefficient with the
    same monomials in the same dict order, numerator and denominator."""
    assert got.degree == expected.degree
    assert [idx for idx, _ in got.coeffs] == [idx for idx, _ in expected.coeffs]
    for (idx, g), (_, e) in zip(got.coeffs, expected.coeffs):
        assert list(g.num.items()) == list(e.num.items()), idx
        assert list(g.den.items()) == list(e.den.items()), idx


def default_probes(alg):
    """d_squared_residual's probes: the coordinate functions, and the dual
    frame one-forms when the rank allows a degree-3 result."""
    probes = [AlgebroidForm.from_function(alg, var(alg.chart, i)) for i in range(alg.chart.dim)]
    if alg.rank >= 3:
        probes += [AlgebroidForm.dual_frame(alg, i) for i in range(alg.rank)]
    return probes


def assert_ce_matches_oracle(alg, probes):
    for phi in probes:
        d_phi = ce_differential(alg, phi)
        oracle = ce_differential_oracle(alg, phi)
        assert_forms_term_equal(d_phi, oracle)
        if d_phi.degree < alg.rank:
            assert_forms_term_equal(
                ce_differential(alg, d_phi), ce_differential_oracle(alg, oracle)
            )


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_ce_differential_equals_pair_loop_on_gallery(name):
    alg = gallery_spec(name).build_algebroid()
    rng = random.Random(name)
    # one mixed 2-form besides the probes, so rows meet several coefficients
    pairs = list(combinations(range(alg.rank), 2))
    mixed = AlgebroidForm(
        alg,
        2,
        tuple(
            (pair, var(alg.chart, rng.randrange(alg.chart.dim)) + const(alg.chart, k + 1))
            for k, pair in enumerate(rng.sample(pairs, min(4, len(pairs))))
        ),
    )
    probes = default_probes(alg) + ([mixed] if alg.rank > 2 else [])
    assert_ce_matches_oracle(alg, probes)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_ce_differential_equals_pair_loop_on_drawn_sigma(data):
    n = data.draw(st.integers(2, 3))
    chart = Chart.complex_chart(n)
    names = [f"z{k + 1}" for k in range(n)]
    pairs = data.draw(
        st.lists(
            st.sampled_from(list(combinations(range(1, n + 1), 2))),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    sigma = {pair: parse_expr(_polynomial_text(data.draw, names), chart) for pair in pairs}
    alg = make_holomorphic_poisson(n, sigma)
    assert_ce_matches_oracle(alg, default_probes(alg))


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_ce_differential_is_linear_over_constants(data):
    # d(a phi + b psi) = a d(phi) + b d(psi) for Gaussian rational constants
    # a, b and drawn forms of one degree over a drawn holomorphic Poisson
    # algebroid, whose structure rows are nonzero
    n = data.draw(st.integers(2, 3))
    chart = Chart.complex_chart(n)
    pairs = data.draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), 2))),
                               min_size=1, max_size=2, unique=True))
    zs = [f"z{k + 1}" for k in range(n)]
    alg = make_holomorphic_poisson(
        n, {pair: parse_expr(_polynomial_text(data.draw, zs), chart) for pair in pairs})
    q = data.draw(st.integers(0, alg.rank - 1))
    xs = [f"x{k + 1}" for k in range(chart.dim)]
    indices = st.lists(st.sampled_from(list(combinations(range(alg.rank), q))),
                       min_size=1, max_size=3, unique=True)

    def form():
        coeffs = tuple((idx, parse_expr(_polynomial_text(data.draw, xs, max_terms=2), chart))
                       for idx in data.draw(indices))
        return AlgebroidForm(alg, q, coeffs)

    phi, psi = form(), form()
    a, b = (parse_expr(_gaussian_rational(data.draw), chart) for _ in range(2))
    lhs = ce_differential(alg, phi.scale(a) + psi.scale(b))
    assert (lhs - ce_differential(alg, phi).scale(a) - ce_differential(alg, psi).scale(b)).is_zero


@settings(max_examples=8, deadline=None)
@given(st.data(), st.booleans())
def test_ce_differential_equals_pair_loop_on_drawn_pi(data, twisted):
    m = data.draw(st.integers(3, 4))
    chart = Chart.real(m)
    names = list(chart.names)
    pairs = data.draw(
        st.lists(
            st.sampled_from(list(combinations(range(m), 2))),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    pi = {pair: parse_expr(_polynomial_text(data.draw, names), chart) for pair in pairs}
    H = None
    if twisted:
        H = FormExpr.from_table(
            chart, 3, {(0, 1, 2): parse_expr(_polynomial_text(data.draw, names), chart)}
        )
    alg = make_graph_bivector(chart, pi, H)
    assert_ce_matches_oracle(alg, default_probes(alg))


def _reciprocal_text(draw, names):
    """A rational function with a constant numerator, as 1/(1 + x1^2): not a
    constant, though its numerator is."""
    return f"{_gaussian_rational(draw)}/(1 + {draw(st.sampled_from(names))}^2)"


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_ce_differential_equals_pair_loop_on_drawn_forms(data):
    # ce_differential visits only the K that a term can reach and skips the
    # anchor term of a constant entry; each drawn form holds a constant, a
    # rational function with a constant numerator and a polynomial, over a
    # holomorphic Poisson algebroid whose constant sigma entry has a zero row
    chart = Chart.complex_chart(3)
    zs, xs = ["z1", "z2", "z3"], list(chart.names)
    sigma = {(1, 2): parse_expr(_gaussian_rational(data.draw), chart)}
    for pair in data.draw(st.lists(st.sampled_from([(1, 3), (2, 3)]), max_size=2, unique=True)):
        sigma[pair] = parse_expr(_polynomial_text(data.draw, zs), chart)
    alg = make_holomorphic_poisson(3, sigma)
    assert all(c.is_zero for c in alg.structure[(3, 4)])
    q = data.draw(st.integers(1, alg.rank - 1))
    indices = data.draw(st.lists(st.sampled_from(list(combinations(range(alg.rank), q))),
                                 min_size=3, max_size=4, unique=True))
    texts = [_gaussian_rational(data.draw), _reciprocal_text(data.draw, xs),
             _polynomial_text(data.draw, xs, max_terms=2), _reciprocal_text(data.draw, xs)]
    phi = AlgebroidForm(alg, q, tuple(
        (idx, parse_expr(text, chart)) for idx, text in zip(indices, texts)))
    assert_ce_matches_oracle(alg, [phi])


def test_ce_differential_equals_pair_loop_on_the_c16_spec():
    # rank 32, two structure rows: the differential visits a few K where the
    # oracle loops over all C(32, q + 1)
    path = Path(__file__).parent / "specs" / "poisson_c16_sphere_plus_locus.spec"
    alg = parse_specfile(path.read_text()).build_algebroid()
    chart = alg.chart
    probes = [
        AlgebroidForm.from_function(alg, var(chart, 0) * var(chart, 4)),
        AlgebroidForm.from_function(alg, parse_expr("1/(1 + x5^2)", chart)),
        AlgebroidForm.dual_frame(alg, 18),
        AlgebroidForm(alg, 1, (((0,), const(chart, 2)), ((16,), var(chart, 2)),
                               ((17,), parse_expr("1/(1 + x1^2)", chart)))),
    ]
    assert_ce_matches_oracle(alg, probes)
