import hashlib
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hodgebench import sobolev
from hodgebench.cli import dumps, main
from hodgebench.sobolev import (
    INEQUALITY_IDS,
    _form_integrals,
    _integral_lower_bound,
    _norms,
    _order_stats,
    HalfGrid,
    TorusGrid,
    boundary_square,
    ck_norms,
    commutator,
    double_commutator,
    half_space_subestimate,
    kernel_lemma_check,
    lambda_full,
    lambda_tangential,
    leibniz_battery,
    radial_derivative,
    random_half_field,
    random_torus_field,
    sobolev_norm,
    tangential_norm,
)

TWO_PI = 2.0 * math.pi


def l2_inner(grid, phi, psi):
    """The L^2 inner product on a TorusGrid, by the rectangle rule."""
    return complex(np.sum(phi * np.conj(psi)) * (grid.box / grid.n) ** grid.dim)


def half_inner(grid, phi, psi):
    """The L^2 inner product on a HalfGrid: the rectangle rule over the
    tangential torus, the trapezoid rule in r."""
    cell_t = (grid.box / grid.n_t) ** (grid.dim - 1)
    return complex(np.sum(phi * np.conj(psi) * grid._r_weights) * cell_t)


def mode_field(grid, xi):
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    phase = sum(x * k for x, k in zip(mesh, xi))
    return np.exp(1j * phase)


# ---------------------------------------------------------------------------
# multipliers and norms


def test_lambda_identity_and_constant():
    grid = TorusGrid(2, 32)
    rng = np.random.default_rng(0)
    phi = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    assert np.allclose(lambda_full(grid, phi, 0.0), phi)
    c = np.full(grid.shape, 2.5 + 1j)
    assert np.allclose(lambda_full(grid, c, 1.7), c)


def test_lambda_on_single_mode():
    grid = TorusGrid(2, 32)
    xi = (3, -5)
    phi = mode_field(grid, xi)
    s = 0.75
    expected = (1.0 + 3**2 + 5**2) ** (s / 2.0) * phi
    assert np.allclose(lambda_full(grid, phi, s), expected)


def test_norm_of_single_mode():
    grid = TorusGrid(2, 32)
    xi = (2, 1)
    phi = mode_field(grid, xi)
    s = 1.5
    expected = (1.0 + 5.0) ** (s / 2.0) * TWO_PI ** (grid.dim / 2.0)
    assert sobolev_norm(grid, phi, s) == pytest.approx(expected, rel=1e-12)


def test_multiplier_group_law():
    grid = TorusGrid(2, 32)
    rng = np.random.default_rng(1)
    phi = random_torus_field(grid, rng)
    for s, t in [(0.5, 1.0), (-0.5, 2.0), (1.3, -1.3)]:
        a = lambda_full(grid, lambda_full(grid, phi, s), t)
        b = lambda_full(grid, phi, s + t)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


def test_duality_pairing():
    grid = TorusGrid(2, 64)
    rng = np.random.default_rng(2)
    for s in (0.5, 1.0, 2.0):
        phi = random_torus_field(grid, rng)
        psi = random_torus_field(grid, rng)
        lhs = abs(l2_inner(grid, phi, psi))
        rhs = sobolev_norm(grid, phi, -s) * sobolev_norm(grid, psi, s)
        assert lhs <= rhs * (1 + 1e-12)


# ---------------------------------------------------------------------------
# tangential operators


def reference_sobolev_norm(grid, phi, s):
    """The full-space H^s norm from its own spectrum, as sobolev_norm was
    written before the norms shared one."""
    coeffs = np.fft.fftn(phi) / phi.size
    weight = (1.0 + sobolev._freq_square(grid.n, grid.dim)) ** s
    total = np.sum(weight * np.abs(coeffs) ** 2) * grid.box**grid.dim
    return float(np.sqrt(total))


def reference_tangential_norm(grid, phi, s):
    """The tangential H^s norm from its own spectrum, as tangential_norm was
    written before the norms shared one."""
    spec = np.fft.fftn(phi, axes=tuple(range(grid.dim - 1))) / (grid.n_t ** (grid.dim - 1))
    weight = (1.0 + sobolev._freq_square(grid.n_t, grid.dim - 1)[..., None]) ** s
    per_slice = weight * np.abs(spec) ** 2
    radial = np.sum(per_slice, axis=tuple(range(grid.dim - 1)))
    total = np.sum(radial * grid._r_weights) * grid.box ** (grid.dim - 1)
    return float(np.sqrt(total))


NORM_ORDERS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5)
NORM_GRIDS = [TorusGrid(2, 32), TorusGrid(3, 16), HalfGrid(2, 32, 17), HalfGrid(3, 16, 9)]


@settings(max_examples=20, deadline=None)
@given(
    which=st.integers(0, len(NORM_GRIDS) - 1),
    seed=st.integers(0, 2**32 - 1),
    battery=st.booleans(),
)
def test_norms_from_one_spectrum_equal_the_per_call_norms_bit_for_bit(which, seed, battery):
    grid = NORM_GRIDS[which]
    rng = np.random.default_rng(seed)
    if not battery:
        phi = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    elif isinstance(grid, TorusGrid):
        phi = random_torus_field(grid, rng)
    else:
        phi = random_half_field(grid, rng)
    if isinstance(grid, TorusGrid):
        public, reference = sobolev_norm, reference_sobolev_norm
    else:
        public, reference = tangential_norm, reference_tangential_norm
    norms = _norms(grid, phi)
    for s in NORM_ORDERS:
        want = reference(grid, phi, s)
        assert public(grid, phi, s) == want
        assert norms(s) == want


def test_a_battery_takes_one_spectrum_per_field(monkeypatch, capsys):
    # per A.iii trial: one per random field, one of phi (for its norm and
    # Lambda^k phi at every k), one of f phi, three per double commutator
    # (three k), and one per norm of f and of each k's field: 8 * 17 = 136.
    # A T.iii trial takes three per random field and none for the C^k norm
    # of f: 8 * 20 = 160
    calls = []
    fftn = sobolev.fftn

    def counting_fftn(*args, **kwargs):
        calls.append(args[0].shape)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(sobolev, "fftn", counting_fftn)
    for suite, limit in (("A.iii", 136), ("T.iii", 160)):
        calls.clear()
        assert main(["sobolev", "--suite", suite, "--seed", "7250"]) == 0
        assert capsys.readouterr().out
        assert len(calls) <= limit, suite


def test_one_plus_freq_square_is_built_once_per_grid(monkeypatch, capsys):
    # every _lambdas and _norms of a command reads its grid's one 1 + |xi|^2
    # (576 builds over the labs suites at seed 0 before it was kept on the grid)
    calls = []
    freq_square = sobolev._freq_square
    monkeypatch.setattr(sobolev, "_freq_square", lambda *a: calls.append(a) or freq_square(*a))
    for suite in ("A.iii", "T.iv", "subestimate"):
        calls.clear()
        assert main(["sobolev", "--suite", suite, "--seed", "0"]) == 0
        assert capsys.readouterr().out
        assert len(calls) == 1, suite


def test_tangential_identity_cases():
    grid = HalfGrid(2, 32, 33)
    rng = np.random.default_rng(3)
    phi = random_half_field(grid, rng)
    assert np.allclose(lambda_tangential(grid, phi, 0.0), phi)
    radial_only = np.tile(np.cos(grid.r_axis()), (grid.n_t, 1)).astype(complex)
    assert np.allclose(lambda_tangential(grid, radial_only, 1.25), radial_only)
    back = lambda_tangential(grid, lambda_tangential(grid, phi, 0.8), -0.8)
    assert np.allclose(back, phi, atol=1e-12)


def test_tangential_norm_zero_is_l2():
    grid = HalfGrid(2, 32, 41)
    rng = np.random.default_rng(4)
    phi = random_half_field(grid, rng)
    l2 = math.sqrt(half_inner(grid, phi, phi).real)
    assert tangential_norm(grid, phi, 0.0) == pytest.approx(l2, rel=1e-12)


def test_d_norm_against_quadrature_oracle():
    # phi(t, r) = e^{i tau0 t} g(r):
    #   ||D phi||_{d,s}^2 = ||phi||_{d,s+1}^2 + ||d_r phi||_{d,s}^2
    #                     = (1+tau0^2)^{s+1} ||g||^2 + (1+tau0^2)^s ||g'||^2
    # with both radial integrals evaluated by an independent quadrature
    grid = HalfGrid(2, 32, 257, depth=TWO_PI)
    tau0 = 3
    r = grid.r_axis()
    g = np.exp(-((r + 3.0) ** 2))
    t = np.arange(grid.n_t) * (grid.box / grid.n_t)
    phi = np.exp(1j * tau0 * t)[:, None] * g[None, :]
    from scipy.integrate import quad

    g2 = quad(lambda x: math.exp(-2.0 * (x + 3.0) ** 2), -TWO_PI, 0.0)[0]
    gp2 = quad(
        lambda x: (2.0 * (x + 3.0) * math.exp(-((x + 3.0) ** 2))) ** 2,
        -TWO_PI,
        0.0,
    )[0]
    s = -0.5
    expected = math.sqrt(
        (1 + tau0**2) ** (s + 1) * g2 * TWO_PI + (1 + tau0**2) ** s * gp2 * TWO_PI
    )
    a = tangential_norm(grid, phi, s + 1.0)
    b = tangential_norm(grid, radial_derivative(grid, phi), s)
    assert math.sqrt(a * a + b * b) == pytest.approx(expected, rel=1e-6)


def test_radial_derivative_fourth_order():
    errs = []
    for n_r in (33, 65):
        grid = HalfGrid(2, 16, n_r, depth=1.0)
        r = grid.r_axis()
        f = np.sin(3.0 * r)[None, :] * np.ones((grid.n_t, 1))
        df = radial_derivative(grid, f)
        errs.append(np.max(np.abs(df - 3.0 * np.cos(3.0 * r)[None, :])))
    order = math.log2(errs[0] / errs[1])
    assert order > 3.5


# ---------------------------------------------------------------------------
# kernel lemma


def test_kernel_lemma_trivial_points():
    # part i at xi = eta: LHS = 1 <= 2^{|k|}; part ii at xi = eta: LHS = 0
    out_i = kernel_lemma_check("i", ks=(1.0,), coords=(0,))
    assert out_i["max_violation"] <= 0.0
    out_ii = kernel_lemma_check("ii", ks=(2.0,), coords=(0,))
    assert out_ii["max_violation"] <= 0.0


def test_kernel_lemma_full_lattice():
    for part in ("i", "ii", "iii"):
        out = kernel_lemma_check(part)
        assert out["max_violation"] <= 1e-12, (part, out)


def _kernel_iii_reference(ks, coords, quad_order, stride):
    """Part iii of the kernel lemma as one quadrature over every triple of
    the lattice, each (nodes, triples) chunk at full width."""

    def half_power(base, two_expo):
        if two_expo == 0.0:
            return np.ones_like(base)
        if two_expo == 1.0:
            return np.sqrt(base)
        if two_expo == -1.0:
            return 1.0 / np.sqrt(base)
        if two_expo == 2.0:
            return base
        if two_expo == -2.0:
            return 1.0 / base
        if two_expo == -4.0:
            return 1.0 / (base * base)
        return base ** (two_expo / 2.0)

    V = np.array(list(product(coords, repeat=3)), dtype=float)
    eta1 = V[::stride]
    eta2 = V[::stride]
    X = np.repeat(V, len(eta1) * len(eta2), axis=0)
    E1 = np.tile(np.repeat(eta1, len(eta2), axis=0), (len(V), 1))
    E2 = np.tile(eta2, (len(V) * len(eta1), 1))
    a = E1 - E2
    b = E2 - X
    c_xx = np.sum(X * X, -1)
    c_aa = np.sum(a * a, -1)
    c_bb = np.sum(b * b, -1)
    c_xa = np.sum(X * a, -1)
    c_xb = np.sum(X * b, -1)
    c_ab = np.sum(a * b, -1)
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    ti, tj = np.meshgrid(nodes, nodes, indexing="ij")
    wij = np.outer(weights, weights).ravel()
    ti, tj = ti.ravel(), tj.ravel()
    g_x = 1.0 + c_xx
    g_e1 = 1.0 + np.sum(E1 * E1, -1)
    g_e2 = 1.0 + np.sum(E2 * E2, -1)
    g_s = 1.0 + np.sum((X + E1 - E2) ** 2, -1)
    dist = np.sqrt(np.sum((X - E2) ** 2, -1) * np.sum((E1 - E2) ** 2, -1))
    integrals = {k: np.zeros(len(X)) for k in ks}
    for lo in range(0, ti.size, 64):
        t1 = ti[lo : lo + 64, None]
        t2 = tj[lo : lo + 64, None]
        base = 1.0 + (
            c_xx[None, :]
            + t1 * t1 * c_aa[None, :]
            + t2 * t2 * c_bb[None, :]
            + 2.0 * t1 * c_xa[None, :]
            + 2.0 * t2 * c_xb[None, :]
            + 2.0 * t1 * t2 * c_ab[None, :]
        )
        w = wij[lo : lo + 64]
        for k in ks:
            integrals[k] += w @ half_power(base, k - 2.0)
    worst = 0.0
    count = 0
    for k in ks:
        lhs = np.abs(
            g_x ** (k / 2.0) + g_e1 ** (k / 2.0) - g_e2 ** (k / 2.0) - g_s ** (k / 2.0)
        )
        rhs = abs(k) * max(1.0, abs(k - 1.0)) * dist * integrals[k]
        ok = rhs > 0
        excess = np.zeros_like(lhs)
        excess[ok] = (lhs[ok] - rhs[ok]) / rhs[ok]
        excess[~ok] = lhs[~ok]
        worst = max(worst, float(np.max(excess)))
        count += lhs.size
    return {"max_violation": worst, "tuples": count}


DEFAULT_KS = (-2.0, -0.5, 0.0, 1.0, 2.0, 3.0)


def reference_form_integrals(forms, ks, quad_order):
    """The part iii integrals with base built from all six coefficients at
    every node and raised to (k - 2) / 2 there, 64 nodes per gemv."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    ti, tj = np.meshgrid(nodes, nodes, indexing="ij")
    wij = np.outer(weights, weights).ravel()
    ti, tj = ti.ravel(), tj.ravel()
    c_xx, c_aa, c_bb, c_xa, c_xb, c_ab = forms[:, None, :]
    integrals = {k: np.zeros(forms.shape[1]) for k in ks}
    for lo in range(0, ti.size, 64):
        t1 = ti[lo : lo + 64, None]
        t2 = tj[lo : lo + 64, None]
        base = 1.0 + (
            c_xx
            + t1 * t1 * c_aa
            + t2 * t2 * c_bb
            + 2.0 * t1 * c_xa
            + 2.0 * t2 * c_xb
            + 2.0 * t1 * t2 * c_ab
        )
        for k in ks:
            integrals[k] += wij[lo : lo + 64] @ base ** ((k - 2.0) / 2.0)
    return integrals


def lattice_forms(coords, stride):
    """The distinct (|xi|^2, |a|^2, |b|^2, xi.a, xi.b, a.b) columns of the
    part iii triples of a lattice, as kernel_lemma_check builds them."""
    V = np.array(list(product(coords, repeat=3)), dtype=float)
    eta = V[::stride]
    X = np.repeat(V, len(eta) ** 2, axis=0)
    E1 = np.tile(np.repeat(eta, len(eta), axis=0), (len(V), 1))
    E2 = np.tile(eta, (len(V) * len(eta), 1))
    a, b = E1 - E2, E2 - X
    pairs = [(X, X), (a, a), (b, b), (X, a), (X, b), (a, b)]
    forms = np.stack([np.sum(u * v, -1) for u, v in pairs])
    return np.unique(forms, axis=1)


@settings(max_examples=30, deadline=None)
@given(
    coords=st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True),
    stride=st.integers(1, 5),
    quad_order=st.integers(1, 12),
)
@example(coords=[-4, -2, 0, 1, 3], stride=5, quad_order=8)  # kernel_lemma_check's lattice
def test_form_integrals_match_the_per_node_integrand(coords, stride, quad_order):
    # 0.7 takes the general power; k = 2 integrates 1, to the rule's area
    ks = DEFAULT_KS + (0.7,)
    forms = lattice_forms(coords, stride)
    want = reference_form_integrals(forms, ks, quad_order)
    for k in ks:
        got = _form_integrals(forms, k, quad_order)
        assert np.max(np.abs(got - want[k]) / want[k]) <= 1e-14, k


@settings(max_examples=30, deadline=None)
@given(
    ks=st.lists(st.sampled_from(DEFAULT_KS), min_size=1, max_size=6, unique=True),
    coords=st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True),
    quad_order=st.integers(2, 12),
    stride=st.integers(1, 5),
)
def test_kernel_iii_over_distinct_forms_matches_whole_lattice(
    ks, coords, quad_order, stride
):
    out = kernel_lemma_check(
        "iii", ks=ks, coords=coords, quad_order=quad_order, stride=stride
    )
    ref = _kernel_iii_reference(ks, coords, quad_order, stride)
    assert out["tuples"] == ref["tuples"]
    assert abs(out["max_violation"] - ref["max_violation"]) <= 1e-15


# 0.7 and 2.5 take the general power, 2.5 on the concave side of (1 + Q)^p
# (0 < p < 1, as k = 3), 5.0 the convex side with p >= 1
BOUND_KS = DEFAULT_KS + (0.7, 2.5, 5.0)


def assert_lower_bounds_hold(forms, quad_order):
    for k in BOUND_KS:
        bound = _integral_lower_bound(forms, k, quad_order)
        assert np.all(bound <= _form_integrals(forms, k, quad_order)), (k, quad_order)


@pytest.mark.parametrize("quad_order", list(range(1, 13)) + [32])
def test_integral_lower_bounds_hold_on_the_default_lattice(quad_order):
    assert_lower_bounds_hold(lattice_forms((-4, -2, 0, 1, 3), 5), quad_order)


@settings(max_examples=30, deadline=None)
@given(
    coords=st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True),
    stride=st.integers(1, 5),
    quad_order=st.one_of(st.integers(1, 12), st.just(32)),
)
def test_integral_lower_bounds_hold_on_drawn_lattices(coords, stride, quad_order):
    assert_lower_bounds_hold(lattice_forms(coords, stride), quad_order)


@settings(max_examples=30, deadline=None)
@given(
    ks=st.lists(st.sampled_from(BOUND_KS), min_size=1, max_size=6, unique=True),
    coords=st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True),
    quad_order=st.integers(1, 12),
    stride=st.integers(1, 5),
)
@example(ks=list(DEFAULT_KS), coords=[-4, -2, 0, 1, 3], quad_order=32, stride=5)
# one node per axis: the report's max_violation, 0.964, is set by an integral
@example(ks=list(DEFAULT_KS), coords=[-4, -2, 0, 1, 3], quad_order=1, stride=5)
def test_kernel_iii_certified_skip_equals_integrating_every_form(
    ks, coords, quad_order, stride
):
    # with every lower bound 0, no (triple, k) is certified and every triple
    # with dist > 0 is integrated, as before the skip
    args = dict(ks=ks, coords=coords, quad_order=quad_order, stride=stride)
    pruned = kernel_lemma_check("iii", **args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sobolev, "_integral_lower_bound", lambda forms, k, quad_order: 0.0)
        full = kernel_lemma_check("iii", **args)
    assert pruned == full


def test_kernel_iii_integrates_few_forms_on_the_default_lattice(monkeypatch):
    # 1,338 forms over the quadrature ks at order 32, where every k took each
    # of the 38,078 distinct forms before the certified skip
    seen = []
    integrate = sobolev._form_integrals
    monkeypatch.setattr(
        sobolev,
        "_form_integrals",
        lambda forms, k, quad_order: seen.append(forms.shape[1])
        or integrate(forms, k, quad_order),
    )
    kernel_lemma_check("iii")
    assert sum(seen) <= 1500


def test_form_integrals_do_not_depend_on_the_forms_beside_them():
    # the node sums run row by row, with no gemv, whose rounding moves with
    # a column's place in the block
    forms = lattice_forms((-4, -2, 0, 1, 3), 5)[:, :3000]
    for k in DEFAULT_KS + (0.7,):
        whole = _form_integrals(forms, k, 8)
        for lo, hi in ((0, 1), (5, 6), (17, 1041), (2999, 3000)):
            part = _form_integrals(forms[:, lo:hi], k, 8)
            assert np.array_equal(part, whole[lo:hi]), (k, lo, hi)


@pytest.mark.parametrize("quad_order", [1, 2, 8, 32])
def test_kernel_iii_by_slabs_equals_one_slab_of_the_whole_lattice(monkeypatch, quad_order):
    # every step before the open triples of all slabs are joined is
    # elementwise, so slabs of any size give one slab's report bit for bit;
    # 0.7 and 2.5 take the general power, and one triple asks for one xi
    ks = DEFAULT_KS + (0.7, 2.5)
    slabbed = kernel_lemma_check("iii", ks=ks, quad_order=quad_order)
    monkeypatch.setattr(sobolev, "_SLAB_TRIPLES", 125 * 25 * 25)
    whole = kernel_lemma_check("iii", ks=ks, quad_order=quad_order)
    monkeypatch.setattr(sobolev, "_SLAB_TRIPLES", 1)
    one_xi = kernel_lemma_check("iii", ks=ks, quad_order=quad_order)
    assert slabbed == whole == one_xi


def test_kernel_iii_at_k0_takes_no_integral():
    # k = 0: the constant |k| max(1, |k - 1|) vanishes and so does the LHS
    out = kernel_lemma_check("iii", ks=(0.0,))
    assert out == {"max_violation": 0.0, "tuples": 125 * 25 * 25}


def test_kernel_lemma_rejects_unknown_part():
    with pytest.raises(ValueError):
        kernel_lemma_check("iv")


# ---------------------------------------------------------------------------
# commutators


def test_commutator_trivial_cases():
    grid = TorusGrid(2, 64)
    rng = np.random.default_rng(5)
    phi = random_torus_field(grid, rng)
    f_const = np.full(grid.shape, 1.5 - 0.5j)
    out = commutator(grid, 1.0, f_const, phi)
    assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(phi))
    f = random_torus_field(grid, rng)
    out0 = commutator(grid, 0.0, f, phi)
    assert np.max(np.abs(out0)) <= 1e-12 * np.max(np.abs(f * phi))


def test_commutator_refinement_consistency():
    # the reference-grid construction pins one continuum function, so the
    # commutators agree across resolutions once products stay in band
    coarse = TorusGrid(2, 64)
    fine = TorusGrid(2, 128)
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    f_c, phi_c = random_torus_field(coarse, rng1), random_torus_field(coarse, rng1)
    f_f, phi_f = random_torus_field(fine, rng2), random_torus_field(fine, rng2)
    for k in (0.5, 1.0, 2.0):
        out_c = commutator(coarse, k, f_c, phi_c)
        out_f = commutator(fine, k, f_f, phi_f)
        n_c = sobolev_norm(coarse, out_c, 0.0)
        n_f = sobolev_norm(fine, out_f, 0.0)
        assert n_c == pytest.approx(n_f, rel=2e-2)
    # double and nested keep the same scale as well
    d_c = sobolev_norm(coarse, double_commutator(coarse, 1.0, f_c, phi_c), 0.0)
    d_f = sobolev_norm(fine, double_commutator(fine, 1.0, f_f, phi_f), 0.0)
    assert d_c == pytest.approx(d_f, rel=5e-2)


# ---------------------------------------------------------------------------
# batteries


def test_battery_deterministic_and_finite():
    grid = TorusGrid(2, 64)
    one = leibniz_battery("A.i", grid, trials=4, seed=7)
    two = leibniz_battery("A.i", grid, trials=4, seed=7)
    assert one == two
    assert math.isfinite(one["max_ratio"]) and one["max_ratio"] > 0


def test_battery_homogeneity_under_f_scaling():
    # commutators and norms are linear in f, so scaling f rescales LHS and
    # RHS together and the ratio is unchanged
    grid = TorusGrid(2, 64)
    rng = np.random.default_rng(13)
    f = random_torus_field(grid, rng)
    phi = random_torus_field(grid, rng)
    lam = 7.0
    for k in (1.0, 2.0):
        base = sobolev_norm(grid, commutator(grid, k, f, phi), 0.5)
        scaled = sobolev_norm(grid, commutator(grid, k, lam * f, phi), 0.5)
        assert scaled == pytest.approx(lam * base, rel=1e-12)
    base_rhs = sobolev_norm(grid, f, 3.0)
    assert sobolev_norm(grid, lam * f, 3.0) == pytest.approx(
        lam * base_rhs, rel=1e-12
    )


def test_shared_bump_product_ratio_below_one():
    # f = phi = one smooth half-box bump: the Sobolev embedding constant on
    # the 2-torus is below one, so ||f phi||_0 <= ||f||_a ||phi|| already
    grid = TorusGrid(2, 64)
    x = grid.axes()[0]
    u = (x - math.pi) / (math.pi / 2)
    bump1d = np.zeros_like(u)
    inside = np.abs(u) < 1
    bump1d[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    f = (bump1d[:, None] * bump1d[None, :]).astype(complex)
    a = 1.0 + grid.dim / 2.0
    lhs = sobolev_norm(grid, f * f, 0.0)
    rhs = sobolev_norm(grid, f, a) * sobolev_norm(grid, f, 0.0) + sobolev_norm(
        grid, f, a
    ) * sobolev_norm(grid, f, 0.0)
    assert lhs / rhs <= 1.0


def test_tangential_duality_pairing():
    grid = HalfGrid(2, 32, 33)
    rng = np.random.default_rng(8)
    for s in (0.5, 1.0):
        phi = random_half_field(grid, rng)
        psi = random_half_field(grid, rng)
        lhs = abs(half_inner(grid, phi, psi))
        rhs = tangential_norm(grid, phi, -s) * tangential_norm(grid, psi, s)
        assert lhs <= rhs * (1 + 1e-12)


def test_tangential_battery_runs():
    grid = HalfGrid(2, 64, 33)
    out = leibniz_battery("T.i", grid, trials=2, seed=3)
    assert math.isfinite(out["max_ratio"]) and out["max_ratio"] > 0


def test_battery_rejects_wrong_grid():
    with pytest.raises(TypeError, match="^tangential batteries need a HalfGrid$"):
        leibniz_battery("T.i", TorusGrid(2, 32), trials=1)
    with pytest.raises(TypeError, match="^full-space batteries need a TorusGrid$"):
        leibniz_battery("A.i", HalfGrid(2, 32, 17), trials=1)


def test_tangential_names_are_the_grid_generic_operators():
    # the half grid carries the tangential axes, the trapezoid sum in r and
    # the radial stencil, so one multiplier and one norm serve both families
    assert lambda_tangential is lambda_full
    assert tangential_norm is sobolev_norm


def test_grids_past_the_node_bound_are_refused_before_any_array():
    # 2^20 nodes exactly are allowed; no array exists until an operator runs
    assert TorusGrid(2, 1024).shape == (1024, 1024)
    assert HalfGrid(2, 2048, 512).shape == (2048, 512)
    with pytest.raises(MemoryError, match="^torus grid of 128 x 128 x 128 nodes exceeds the limit of 1048576 nodes$"):
        TorusGrid(3, 128)
    with pytest.raises(MemoryError, match="^half grid of 2048 x 513 nodes exceeds the limit of 1048576 nodes$"):
        HalfGrid(2, 2048, 513)


# Report digests of every battery at dim 3, where the embedding index
# a = 1 + m/2 is 2.5; the CLI and the goldens only ever run dim 2 (a = 2).
DIM3_BATTERY_SHA256 = {
    "A.i": "1bd959fe80db19097686787271521f8862095a02e5c4002161296b28c483eecf",
    "A.ii": "a9391ce63e265cf53aa5c0e9f9819257575a1d5cc730f115094a4bc36c7c8b3f",
    "A.iii": "377f37dd49e259cb0d96424c81d6f201d5208e2bdcc18d13882edb14c8979490",
    "A.iv": "c7b510ab177b5a3805b5da3ff8d9a5bbd456ce17ed000d376536c5f27ca15634",
    "T.i": "6e15751b9cca5d0e068dadd083408bf026596bcad9c8a0bb9727f4f6cfd5be56",
    "T.ii": "2a0d417cc8e15d75a8c3a8e37f6aeb2dc18bf8d17bd6b215593b9a6e7e6a60f7",
    "T.iii": "26fd06e747c9c2613c33286a554f36c5ab4915c5120aa44a907a954d309a3f97",
    "T.iv": "ac56bca72f109dae33ae573f3b08bf25102254491bac523c8858a6bc0dd32080",
}


@pytest.mark.parametrize("ineq", INEQUALITY_IDS)
def test_battery_report_at_dim3_is_pinned(ineq):
    grid = TorusGrid(3, 16) if ineq.startswith("A") else HalfGrid(3, 16, 9)
    report = leibniz_battery(ineq, grid, trials=1, seed=3)
    digest = hashlib.sha256(dumps(report).encode()).hexdigest()
    assert digest == DIM3_BATTERY_SHA256[ineq]


def test_half_space_subestimate_finite_and_stable():
    coarse = HalfGrid(2, 64, 33)
    fine = HalfGrid(2, 128, 65)
    out_c = half_space_subestimate(coarse, trials=10, seed=1)
    out_f = half_space_subestimate(fine, trials=10, seed=1)
    assert math.isfinite(out_c["max_ratio"])
    drift = abs(out_f["max_ratio"] - out_c["max_ratio"]) / out_c["max_ratio"]
    assert drift <= 0.2


def test_ck_norm_on_trig():
    grid = TorusGrid(1, 32)
    x = grid.axes()[0]
    f = np.cos(2 * x).astype(complex)
    assert ck_norms(grid, f, 0)[-1] == pytest.approx(1.0, rel=1e-12)
    assert ck_norms(grid, f, 1)[-1] == pytest.approx(2.0, rel=1e-12)
    assert ck_norms(grid, f, 3)[-1] == pytest.approx(8.0, rel=1e-12)
    # mixed: sup |d_x^a d_y^b f| = 2^a 3^b, largest at (a, b) = (0, |alpha|)
    grid = TorusGrid(2, 32)
    x, y = np.meshgrid(*grid.axes(), indexing="ij")
    f = (np.cos(2 * x) * np.cos(3 * y)).astype(complex)
    for order, expected in enumerate((1.0, 3.0, 9.0, 27.0)):
        assert ck_norms(grid, f, order)[-1] == pytest.approx(expected, rel=1e-12)


def _ck_norm_reference(grid, f, order):
    """C^k norm on a half grid with every d^alpha f built from f itself:
    spectral d/dt along each tangential axis in turn, then d/dr."""
    k = np.fft.fftfreq(grid.n_t, d=1.0 / grid.n_t) * (TWO_PI / grid.box)
    worst = 0.0
    for alpha in product(range(order + 1), repeat=grid.dim):
        if sum(alpha) > order:
            continue
        g = f
        for axis, p in enumerate(alpha[:-1]):
            shape = [1] * grid.dim
            shape[axis] = grid.n_t
            for _ in range(p):
                spec = np.fft.fft(g, axis=axis)
                g = np.fft.ifft(spec * (1j * k).reshape(shape), axis=axis)
        for _ in range(alpha[-1]):
            g = radial_derivative(grid, g)
        worst = max(worst, float(np.max(np.abs(g))))
    return worst


@pytest.mark.parametrize("grid", [HalfGrid(2, 32, 17), HalfGrid(3, 16, 9)])
def test_half_grid_ck_norm_matches_reference_bit_for_bit(grid):
    f = random_half_field(grid, np.random.default_rng(21))
    for order in range(5):
        assert ck_norms(grid, f, order)[-1] == _ck_norm_reference(grid, f, order)
    levels = ck_norms(grid, f, 4)
    assert levels == [_ck_norm_reference(grid, f, j) for j in range(5)]


def test_half_grid_needs_five_radial_points():
    # the one-sided radial stencil reads five nodes at each end
    with pytest.raises(ValueError, match="n_r >= 5"):
        HalfGrid(2, 16, 4)
    assert radial_derivative(HalfGrid(2, 16, 5), np.ones((16, 5))).shape == (16, 5)


@pytest.mark.parametrize("n_t", [8, 15, 44, 100])
def test_half_grid_tangential_axes_take_the_torus_rule(n_t):
    # sobolev --suite T.iv --grid 8 and --grid 44 ran on such axes and exited 0
    with pytest.raises(ValueError, match=r"^points per axis must be a power of two, >= 16$"):
        HalfGrid(2, n_t, 33)
    with pytest.raises(ValueError, match=r"^points per axis must be a power of two, >= 16$"):
        TorusGrid(2, n_t)


def test_boundary_square():
    grid = HalfGrid(2, 32, 17)
    phi = np.zeros(grid.shape, dtype=complex)
    phi[..., -1] = 2.0
    assert boundary_square(grid, phi) == pytest.approx(4.0 * TWO_PI, rel=1e-12)


# ---------------------------------------------------------------------------
# battery summaries


# signed zeros compare equal, so sort and partition may order them either
# way; they are folded into +0.0
VALUES = st.lists(
    st.floats(allow_nan=False).map(lambda x: x + 0.0), min_size=1, max_size=40
)


@settings(max_examples=300, deadline=None)
@given(values=VALUES, qs=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_order_stats_match_numpy_bit_for_bit(values, qs):
    arr = np.array(values)
    qs = qs + [0.0, 0.25, 0.5, 0.75, 1.0]
    with np.errstate(all="ignore"):
        got_q, got_median = _order_stats(arr, qs)
        want_q, want_median = np.quantile(arr, qs), np.median(arr)
    assert got_q.tobytes() == want_q.tobytes()
    assert np.float64(got_median).tobytes() == np.float64(want_median).tobytes()


# ---------------------------------------------------------------------------
# random battery fields, against their construction with every constant
# built per field


def reference_coeffs(rng, dim):
    n = sobolev._REFERENCE_N
    shape = (n,) * dim
    spec = np.zeros(shape, dtype=complex)
    freq = np.fft.fftfreq(n, d=1.0 / n)
    low = np.ones(shape, dtype=bool)
    for axis in range(dim):
        low &= sobolev._along(np.abs(freq), axis, dim) <= n // 5
    count = int(np.sum(low))
    spec[low] = rng.normal(size=count) + 1j * rng.normal(size=count)
    raw = np.fft.ifftn(spec)
    x = np.arange(n) * (TWO_PI / n)
    window = np.ones(shape)
    for axis in range(dim):
        window = window * sobolev._along(sobolev._bump((x - math.pi) / (math.pi / 2)), axis, dim)
    coeffs = np.fft.fftn(raw * window) / raw.size
    keep = np.ones(shape, dtype=bool)
    for axis in range(dim):
        keep &= sobolev._along(np.abs(freq), axis, dim) < sobolev._BAND
    coeffs[~keep] = 0.0
    return coeffs / max(np.max(np.abs(raw * window)), 1e-300)


def reference_synthesize(coeffs, n, dim):
    big = np.zeros((n,) * dim, dtype=complex)
    idx = np.fft.fftfreq(sobolev._REFERENCE_N, d=1.0 / sobolev._REFERENCE_N).astype(int)
    grids = np.meshgrid(*([idx] * dim), indexing="ij")
    keep = np.ones(coeffs.shape, dtype=bool)
    if n < sobolev._REFERENCE_N:
        for g in grids:
            keep &= np.abs(g) < n // 2
    big[tuple(g[keep] % n for g in grids)] = coeffs[keep]
    return np.fft.ifftn(big) * (n**dim)


def reference_half_field(grid, rng):
    t_dim = grid.dim - 1
    r, R = grid.r_axis(), grid.depth
    window = sobolev._smooth_step((r + R) / (0.4 * R))
    out = np.zeros(grid.shape, dtype=complex)
    for _ in range(3):
        tang = reference_synthesize(reference_coeffs(rng, t_dim), grid.n_t, t_dim)
        poly = np.polynomial.chebyshev.chebval(2.0 * (r + R) / R - 1.0, rng.normal(size=4))
        out = out + tang[..., np.newaxis] * sobolev._along(poly * window, t_dim, grid.dim)
    return out


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_random_fields_equal_their_construction_per_field(n):
    # the masks, windows and scatter places are built once per dimension or
    # grid and shared read-only; the fields and the generator's state after
    # them keep their bits, below the reference resolution too
    for grid, field, reference in (
        (TorusGrid(2, n), random_torus_field,
         lambda g, rng: reference_synthesize(reference_coeffs(rng, g.dim), g.n, g.dim)),
        (TorusGrid(3, 16), random_torus_field,
         lambda g, rng: reference_synthesize(reference_coeffs(rng, g.dim), g.n, g.dim)),
        (HalfGrid(2, n, n // 2 + 1), random_half_field, reference_half_field),
        (HalfGrid(3, 16, 9), random_half_field, reference_half_field),
    ):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(2):
            assert np.array_equal(field(grid, rng), reference(grid, ref_rng))
        assert rng.random() == ref_rng.random()
    low, _, window, cut = sobolev._reference_plan(2)
    assert not (low.flags.writeable or window.flags.writeable or cut.flags.writeable)
