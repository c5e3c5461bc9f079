import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvals_banded

from hodgebench import neumann
from hodgebench.neumann import (
    AnnulusGrid,
    NeumannProblem,
    _largest_eigenvalue,
    _norm_diffs,
    anchor_energy,
    basic_estimate_report,
    d_seminorm,
    dbar_report,
    family_continuity,
    hodge_split,
    solve_dbar,
    solve_dbar_lstsq,
    tangential_mode_norm,
)

RHO0 = 0.5


def _diff_matrix(n, h):
    """Dense d/drho: centred inside, one-sided of 2nd order at the ends."""
    D = np.zeros((n, n))
    for k in range(1, n - 1):
        D[k, k - 1] = -0.5 / h
        D[k, k + 1] = 0.5 / h
    D[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    D[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return D


@pytest.fixture(scope="module")
def problem():
    return NeumannProblem(AnnulusGrid(RHO0, 32, 48))


def dense(problem, apply, degree):
    """Per-mode matrices (n_modes, n_out, n_in) of a mode-diagonal operator,
    read off its action on unit vectors."""
    n_in = problem.grid.n_r - 2 * degree
    cols = []
    for k in range(n_in):
        e = np.zeros((len(problem.modes0), n_in))
        e[:, k] = 1.0
        cols.append(apply(e))
    return np.stack(cols, axis=-1)


def dense_P(problem):
    """P of every mode as a dense (n_modes, n_r - 2, n_r) stack, from its
    three bands."""
    n_int = problem.grid.n_r - 2
    out = np.zeros((len(problem.modes0), n_int, problem.grid.n_r))
    k = np.arange(n_int)
    out[:, k, k] = problem.p_lo
    out[:, k, k + 1] = problem.p_mid
    out[:, k, k + 2] = problem.p_up
    return out


def harmonic_basis(problem):
    """(mode, vector) pairs of a w-orthonormal basis of the degree-0 harmonic
    space, Ker P per mode, from a dense SVD of P W^{-1/2}."""
    s0 = np.sqrt(problem.w)
    _, _, vh = np.linalg.svd(dense_P(problem) / s0, full_matrices=True)
    return [(n, vh[i, j] / s0) for i, n in enumerate(problem.modes0) for j in (-2, -1)]


# ---------------------------------------------------------------------------
# dense reference: per-mode matrices and a full eigen-decomposition per mode
# and degree, built from the grid formulas alone


class DenseReference:
    """N, pi and box from a full eigen-decomposition of each mode's dense
    Laplacian at each degree; the cut is harmonic_tol * (largest eigenvalue
    of that degree)."""

    def __init__(self, grid, eps=0.0, profile=None, harmonic_tol=1e-8):
        rho = grid.rho()
        self.w = grid.weights()
        self.w_int = self.w[1:-1]
        self.harmonic_tol = harmonic_tol
        D = _diff_matrix(grid.n_r, grid.h)
        scale = np.ones(grid.n_r)
        if profile is not None and eps != 0.0:
            scale = 1.0 + eps * np.asarray(profile(rho), dtype=float)
        self.modes0 = grid.modes0()
        self.L1, self.L0, self.eig1, self.eig0 = [], [], [], []
        s_int, s_full = np.sqrt(self.w_int), np.sqrt(self.w)
        for n in self.modes0:
            A = scale[:, None] * (0.5 * (D - n * np.diag(1.0 / rho)))
            P = A[1:-1, :]
            Ps = (A.T[:, 1:-1] * self.w_int[None, :]) / self.w[:, None]
            for L, s, table, eig in (
                (P @ Ps, s_int, self.L1, self.eig1),
                (Ps @ P, s_full, self.L0, self.eig0),
            ):
                table.append(L)
                sym = (s[:, None] * L) / s[None, :]
                lam, V = np.linalg.eigh(0.5 * (sym + sym.T))
                eig.append((lam, V / s[:, None]))
        self.lam_max = {1: max(lam.max() for lam, _ in self.eig1),
                        0: max(lam.max() for lam, _ in self.eig0)}

    def _bundle(self, degree):
        eig = self.eig1 if degree == 1 else self.eig0
        w = self.w_int if degree == 1 else self.w
        return eig, w, self.harmonic_tol * self.lam_max[degree]

    def _spectral_apply(self, values, degree, weight_fn):
        eig, w, cut = self._bundle(degree)
        out = np.zeros_like(values)
        for i, (lam, V) in enumerate(eig):
            coeff = V.conj().T @ (w * values[i])
            out[i] = V @ (weight_fn(lam, cut) * coeff)
        return out

    def apply_N(self, values, degree):
        return self._spectral_apply(
            values, degree,
            lambda lam, cut: np.where(lam > cut, 1.0 / np.where(lam > cut, lam, 1.0), 0.0),
        )

    def apply_pi(self, values, degree):
        return self._spectral_apply(values, degree, lambda lam, cut: np.where(lam > cut, 0.0, 1.0))

    def apply_box(self, values, degree):
        table = self.L1 if degree == 1 else self.L0
        return np.stack([L @ v for L, v in zip(table, values)])

    def harmonic_dim(self, degree):
        eig, _, cut = self._bundle(degree)
        return int(sum(np.sum(lam <= cut) for lam, _ in eig))

    def smallest_positive_eigenvalue(self, degree):
        eig, _, cut = self._bundle(degree)
        return float(min(lam[lam > cut].min() for lam, _ in eig if np.any(lam > cut)))

    def dense_N1(self, i):
        lam, V = self.eig1[i]
        cut = self.harmonic_tol * self.lam_max[1]
        inv = np.where(lam > cut, 1.0 / np.where(lam > cut, lam, 1.0), 0.0)
        return (V * inv[None, :]) @ (V.conj().T * self.w_int[None, :])


def reference_norm_diff(a, b):
    s = np.sqrt(a.w_int)
    worst = 0.0
    for i in range(len(a.modes0)):
        diff = (s[:, None] * (a.dense_N1(i) - b.dense_N1(i))) / s[None, :]
        worst = max(worst, float(np.linalg.svd(diff, compute_uv=False)[0]))
    return worst


def bump_on(rho0):
    def bump(r):
        mid = 0.5 * (1.0 + rho0)
        width = 0.25 * (1.0 - rho0)
        u = (r - mid) / width
        out = np.zeros_like(r)
        inside = np.abs(u) < 1
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    return bump


PROFILES = {"constant": lambda rho0: (lambda r: np.ones_like(r)), "bump": bump_on}


@settings(max_examples=40, deadline=None)
@given(
    rho0=st.floats(0.1, 0.9, exclude_max=True),
    n_theta=st.sampled_from([4, 6, 8, 10, 12, 14, 16]),
    n_r=st.integers(16, 40),
    eps=st.floats(-0.5, 0.5),
    profile=st.sampled_from(sorted(PROFILES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_matches_dense_reference(rho0, n_theta, n_r, eps, profile, seed):
    grid = AnnulusGrid(rho0, n_theta, n_r)
    prof = PROFILES[profile](rho0)
    prob = NeumannProblem(grid, eps=eps, profile=prof)
    ref = DenseReference(grid, eps=eps, profile=prof)
    rng = np.random.default_rng(seed)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    for deg in (0, 1):
        phi = prob.random_form(deg, rng)
        assert close(prob.apply_N(phi), ref.apply_N(phi, deg))
        assert close(prob.apply_pi(phi), ref.apply_pi(phi, deg))
        assert close(prob.apply_box(phi), ref.apply_box(phi, deg))
        assert prob.harmonic_dim(deg) == ref.harmonic_dim(deg)
        assert prob.smallest_positive_eigenvalue() == pytest.approx(
            ref.smallest_positive_eigenvalue(deg), rel=1e-10
        )
    base = NeumannProblem(grid)
    ref_base = DenseReference(grid)
    # a difference of two operators is known to rounding relative to the
    # operators themselves, not to the (possibly tiny) difference
    got, want = _norm_diffs([prob], base)[0], reference_norm_diff(ref, ref_base)
    assert abs(got - want) <= 1e-10 * (want + 1 / prob.smallest_positive_eigenvalue()
                                    + 1 / base.smallest_positive_eigenvalue())


# ---------------------------------------------------------------------------
# assembly sanity


def test_p_on_zbar_exact(problem):
    # dbar(zbar) = 1, exact at the nodes because the stencils are exact on
    # linear radial profiles
    f = problem.sample(0, np.conj)
    pf = problem.apply_P(f)
    one = problem.sample(1, lambda z: np.ones_like(z))
    assert np.max(np.abs(pf - one)) < 1e-12


def test_p_on_holomorphic_second_order():
    errs = []
    for n_r in (32, 64):
        prob = NeumannProblem(AnnulusGrid(RHO0, 16, n_r))
        f = prob.sample(0, lambda z: z**3)
        pf = prob.apply_P(f)
        errs.append(np.max(np.abs(pf)))
    order = math.log2(errs[0] / errs[1])
    assert errs[1] < 1e-3
    assert 1.5 < order < 2.5


def test_integration_by_parts_defect_second_order():
    # (P phi, psi) - (phi, P*_f psi) - boundary term = O(h^2) with the
    # formal-adjoint formula P*_f = -(d/drho + m/rho)/2
    defects = []
    for n_r in (32, 64):
        prob = NeumannProblem(AnnulusGrid(RHO0, 16, n_r))
        rho = prob.grid.rho()
        n = 2  # function mode; pairs with form mode 3
        u = np.exp(rho) * (1 + 0.3 * rho**2)
        v = np.cos(2.0 * rho) + 0.1j * rho
        D = _diff_matrix(n_r, prob.grid.h)
        A = 0.5 * (D - n * np.diag(1.0 / rho))
        Pf = -0.5 * (D + (n + 1) * np.diag(1.0 / rho))
        # P is the interior rows of A
        idx = int(np.where(prob.modes0 == n)[0][0])
        vals = np.zeros((len(prob.modes0), n_r))
        vals[idx] = u
        assert np.allclose(prob.apply_P(vals)[idx], (A @ u)[1:-1],
                           rtol=1e-14, atol=1e-14 * np.abs(A @ u).max())
        lhs = 2 * math.pi * np.sum((A @ u) * np.conj(v) * prob.w)
        rhs = 2 * math.pi * np.sum(u * np.conj(Pf @ v) * prob.w)
        boundary = math.pi * (
            u[-1] * np.conj(v[-1]) * 1.0 - u[0] * np.conj(v[0]) * RHO0
        )
        defects.append(abs(lhs - rhs - boundary))
    order = math.log2(defects[0] / defects[1])
    assert 1.5 < order < 2.6


def test_box_hermitian_and_nonnegative(problem):
    s = np.sqrt(problem.w_int)
    for L in dense(problem, problem.apply_box, 1):
        sym = (s[:, None] * L) / s[None, :]
        assert np.linalg.norm(sym - sym.T.conj()) <= 1e-10 * np.linalg.norm(sym)
        lam = np.linalg.eigvalsh(0.5 * (sym + sym.T.conj()))
        assert lam.min() >= -1e-10 * lam.max()


# ---------------------------------------------------------------------------
# spectrum and harmonic spaces


def test_degree1_harmonics_empty(problem):
    assert problem.harmonic_dim(1) == 0
    # cross-check by a dense rank oracle: the adjoint has trivial kernel
    for p_star in dense(problem, problem.apply_P_star, 1):
        mat = p_star * np.sqrt(problem.w_int)[None, :]
        svals = np.linalg.svd(mat, compute_uv=False)
        assert svals[-1] > 1e-8 * svals[0]


def test_degree0_kernel_contains_holomorphic_shadow(problem):
    # each mode keeps a discrete-holomorphic kernel vector with P h ~ 0
    for m, vec in harmonic_basis(problem):
        h = np.zeros((len(problem.modes0), problem.grid.n_r), dtype=complex)
        idx = int(np.where(problem.modes0 == m)[0][0])
        h[idx] = vec
        ph = problem.apply_P(h)
        assert problem.norm(ph) <= 1e-3 * problem.norm(h)


def test_degree0_kernel_residual_is_second_order():
    # the sampled holomorphic function z^3 is annihilated to O(h^2)
    resids = []
    for n_r in (32, 64):
        prob = NeumannProblem(AnnulusGrid(RHO0, 16, n_r))
        h = prob.sample(0, lambda z: z**3)
        resids.append(prob.norm(prob.apply_P(h)) / prob.norm(h))
    order = math.log2(resids[0] / resids[1])
    assert 1.5 < order < 2.5


def test_smallest_eigenvalue_refinement_stable():
    vals = []
    for n_r in (32, 64):
        prob = NeumannProblem(AnnulusGrid(RHO0, 16, n_r))
        vals.append(prob.smallest_positive_eigenvalue())
    assert abs(vals[1] - vals[0]) / vals[0] < 0.1


# ---------------------------------------------------------------------------
# Neumann identities


def test_neumann_identities(problem):
    rng = np.random.default_rng(3)
    for _ in range(10):
        for deg in (0, 1):
            phi = problem.random_form(deg, rng)
            box_n = problem.apply_box(problem.apply_N(phi))
            pi = problem.apply_pi(phi)
            resid = box_n + pi - phi
            assert problem.norm(resid) <= 1e-8 * problem.norm(phi)
            n_box = problem.apply_N(problem.apply_box(phi))
            resid2 = n_box + pi - phi
            assert problem.norm(resid2) <= 1e-8 * problem.norm(phi)
            assert problem.norm(problem.apply_N(pi)) <= 1e-10 * max(problem.norm(phi), 1)
            assert (
                problem.norm(problem.apply_pi(problem.apply_N(phi)))
                <= 1e-10 * problem.norm(phi)
            )


def test_n_on_harmonic_is_zero(problem):
    m, vec = harmonic_basis(problem)[0]
    h = np.zeros((len(problem.modes0), problem.grid.n_r), dtype=complex)
    idx = int(np.where(problem.modes0 == m)[0][0])
    h[idx] = vec
    assert problem.norm(problem.apply_N(h)) <= 1e-12 * problem.norm(h)


def test_nonempty_degree1_harmonics_raise():
    # only a harmonic_tol far above the default puts degree-1 eigenvalues
    # under the cut; N and pi are then refused, as solve_dbar always did
    grid = AnnulusGrid(RHO0, 8, 24)
    prob = NeumannProblem(grid, harmonic_tol=0.05)
    ref = DenseReference(grid, harmonic_tol=0.05)
    assert prob.harmonic_dim(1) == ref.harmonic_dim(1) > 0
    for deg in (0, 1):
        assert prob.harmonic_dim(deg) == ref.harmonic_dim(deg)
        assert prob.smallest_positive_eigenvalue() == pytest.approx(
            ref.smallest_positive_eigenvalue(deg), rel=1e-10
        )
    phi = prob.random_form(1, np.random.default_rng(0))
    for call in (prob.apply_N, prob.apply_pi, lambda f: solve_dbar(prob, f)):
        with pytest.raises(RuntimeError, match="harmonic obstruction"):
            call(phi)


# ---------------------------------------------------------------------------
# Hodge decomposition


def test_hodge_split_orthogonal_complete(problem):
    rng = np.random.default_rng(5)
    for deg in (0, 1):
        phi = problem.random_form(deg, rng)
        harm, im_p, im_ps = hodge_split(problem, phi)
        total = harm + im_p + im_ps
        assert problem.norm(total - phi) <= 1e-8 * problem.norm(phi)
        pieces = [harm, im_p, im_ps]
        for a in range(3):
            for b in range(a + 1, 3):
                ip = abs(problem.inner(pieces[a], pieces[b]))
                assert ip <= 1e-8 * problem.norm(phi) ** 2


def test_hodge_split_idempotent_on_exact(problem):
    rng = np.random.default_rng(6)
    g = problem.random_form(0, rng)
    phi = problem.apply_P(g)
    harm, im_p, im_ps = hodge_split(problem, phi)
    assert problem.norm(im_p - phi) <= 1e-8 * problem.norm(phi)
    assert problem.norm(harm) <= 1e-8 * problem.norm(phi)


def test_hodge_split_on_harmonic(problem):
    m, vec = harmonic_basis(problem)[0]
    h = np.zeros((len(problem.modes0), problem.grid.n_r), dtype=complex)
    idx = int(np.where(problem.modes0 == m)[0][0])
    h[idx] = vec
    harm, im_p, im_ps = hodge_split(problem, h)
    assert problem.norm(harm - h) <= 1e-8 * problem.norm(h)
    assert problem.norm(im_p) <= 1e-8 * problem.norm(h)
    assert problem.norm(im_ps) <= 1e-8 * problem.norm(h)


# ---------------------------------------------------------------------------
# solving dbar


def exact_minimal_solution(z, rho0=RHO0):
    # dbar u = zbar with u orthogonal to the holomorphic functions:
    # u = zbar^2/2 - (rho0^2/2) z^{-2} (Bergman projection removed)
    return 0.5 * np.conj(z) ** 2 - 0.5 * rho0**2 * z ** (-2.0)


def test_solve_dbar_matches_lstsq_oracle(problem):
    f = problem.sample(1, np.conj)
    u = solve_dbar(problem, f)
    oracle = solve_dbar_lstsq(problem, f)
    err = problem.norm(u - oracle)
    assert err <= 1e-8 * problem.norm(oracle)
    pu = problem.apply_P(u)
    assert problem.norm(pu - f) <= 1e-8 * problem.norm(f)


def test_solve_dbar_zero(problem):
    f = np.zeros((len(problem.modes1), problem.grid.n_r - 2), dtype=complex)
    u = solve_dbar(problem, f)
    assert problem.norm(u) == 0.0


@pytest.mark.parametrize("call, degree", [("apply_P", 1), ("apply_P_star", 0), ("solve_dbar", 0)])
def test_a_field_of_the_wrong_degree_is_refused_by_name(call, degree):
    # on a 16 x 32 grid a degree-0 field has 32 radial nodes and a degree-1
    # field 30; each call names the degree it takes
    prob = NeumannProblem(AnnulusGrid(RHO0, 16, 32))
    phi = prob.random_form(degree, np.random.default_rng(0))
    apply = (lambda f: solve_dbar(prob, f)) if call == "solve_dbar" else getattr(prob, call)
    with pytest.raises(ValueError, match=f"^{call} takes a degree-{1 - degree} field$"):
        apply(phi)


@pytest.mark.parametrize("shape", [(16, 29), (16, 31), (14, 30), (30,), (2, 16, 33)])
def test_a_field_of_neither_degree_is_refused(shape):
    prob = NeumannProblem(AnnulusGrid(RHO0, 16, 32))
    phi = np.zeros(shape, dtype=complex)
    for call in (prob.degree, prob.norm, prob.apply_box, prob.apply_N, prob.apply_pi,
                 lambda f: hodge_split(prob, f), lambda f: tangential_mode_norm(prob, f, 0.5)):
        with pytest.raises(ValueError, match=r"16 modes, 32 or 30 radial nodes"):
            call(phi)


def test_inner_takes_two_fields_of_one_shape():
    # numpy would broadcast the second field over the first
    prob = NeumannProblem(AnnulusGrid(RHO0, 16, 32))
    phi = prob.random_form(0, np.random.default_rng(0))
    for psi in (phi[:1], phi[0], prob.random_form(1, np.random.default_rng(1))):
        with pytest.raises(ValueError, match="two fields of one shape"):
            prob.inner(phi, psi)


def test_degrees_other_than_0_and_1_are_refused():
    # at rank one a field has degree 0 or 1
    prob = NeumannProblem(AnnulusGrid(RHO0, 16, 32))
    for degree in (-1, 2):
        for call in (lambda: prob.random_form(degree, np.random.default_rng(0)),
                     lambda: prob.sample(degree, np.conj), lambda: prob.harmonic_dim(degree)):
            with pytest.raises(ValueError, match="degree 0 or 1, got"):
                call()


def test_solve_dbar_on_exact_data(problem):
    rng = np.random.default_rng(9)
    g = problem.random_form(0, rng)
    f = problem.apply_P(g)
    u = solve_dbar(problem, f)
    pu = problem.apply_P(u)
    assert problem.norm(pu - f) <= 1e-8 * problem.norm(f)
    pi_g = problem.apply_pi(g)
    bound = problem.norm(g - pi_g) * (1 + 1e-8)
    assert problem.norm(u) <= bound


def test_solve_dbar_convergence_to_smooth_solution():
    errs = []
    sizes = (24, 48, 96)
    for n_r in sizes:
        prob = NeumannProblem(AnnulusGrid(RHO0, 16, n_r))
        f = prob.sample(1, np.conj)
        u = solve_dbar(prob, f)
        ref = prob.sample(0, exact_minimal_solution)
        err = prob.norm(u - ref) / prob.norm(ref)
        errs.append(err)
    slopes = [
        math.log(errs[i] / errs[i + 1]) / math.log(sizes[i + 1] / sizes[i])
        for i in range(len(sizes) - 1)
    ]
    assert 1.6 <= slopes[-1] <= 2.4


# ---------------------------------------------------------------------------
# estimates and family


def test_basic_estimate_finite_and_stable():
    reports = []
    for n_r in (32, 64):
        prob = NeumannProblem(AnnulusGrid(RHO0, 16, n_r))
        reports.append(basic_estimate_report(prob, trials=15, seed=2))
    for key in ("C_E_vs_Q", "C_D_vs_E"):
        a, b = reports[0][key], reports[1][key]
        assert math.isfinite(a) and a > 0
        assert abs(a - b) / a <= 0.2


def per_mode_estimate_norms(problem, phi, s):
    """anchor_energy and d_seminorm as loops over the modes against the
    dense d/drho matrix."""
    grid = problem.grid
    rho, D = grid.rho(), _diff_matrix(grid.n_r, grid.h)
    degree = problem.degree(phi)
    energy = a2 = b2 = 0.0
    for i, (m0, m1) in enumerate(zip(problem.modes0, problem.modes1)):
        ext = np.zeros(grid.n_r, dtype=complex)
        if degree == 1:
            ext[1:-1] = phi[i]
        else:
            ext[:] = phi[i]
        d_ext = D @ ext
        dv = problem.scale * 0.5 * (d_ext - m1 * ext / rho)
        energy += 2.0 * math.pi * float(np.sum(np.abs(dv) ** 2 * problem.w))
        # the extended field keeps the field's own modes, with the all-node weights
        m = m1 if degree == 1 else m0
        a2 += (1.0 + m * m) ** (s + 1.0) * float(np.sum(np.abs(ext) ** 2 * problem.w))
        b2 += (1.0 + m * m) ** s * float(np.sum(np.abs(d_ext) ** 2 * problem.w))
    return energy, math.sqrt(2.0 * math.pi * (a2 + b2))


@pytest.mark.parametrize("degree", [0, 1])
def test_estimate_norms_match_per_mode_loops(degree):
    grid = AnnulusGrid(RHO0, 16, 40)
    rng = np.random.default_rng(12)
    deformed = NeumannProblem(grid, eps=0.3, profile=bump_on(RHO0))
    for prob in (NeumannProblem(grid), deformed):
        phi = prob.random_form(degree, rng)
        for s in (-0.5, 0.0, 1.5):
            energy, dnorm = per_mode_estimate_norms(prob, phi, s)
            assert anchor_energy(prob, phi) == pytest.approx(energy, rel=1e-12)
            assert d_seminorm(prob, phi, s) == pytest.approx(dnorm, rel=1e-12)


@pytest.mark.parametrize("degree", [0, 1])
def test_estimate_norms_of_a_stack_add_up_over_its_fields(degree):
    # as with norm, a stack is the sum of its fields: anchor_energy is a
    # square and adds up over them, the other two are norms whose squares do
    prob = NeumannProblem(AnnulusGrid(RHO0, 16, 32))
    rng = np.random.default_rng(7)
    fields = [prob.random_form(degree, rng) for _ in range(3)]
    stack = np.stack(fields)
    assert anchor_energy(prob, stack) == pytest.approx(
        sum(anchor_energy(prob, f) for f in fields), rel=1e-12)
    for norm in (tangential_mode_norm, d_seminorm):
        assert norm(prob, stack, -0.5) ** 2 == pytest.approx(
            sum(norm(prob, f, -0.5) ** 2 for f in fields), rel=1e-12)


def test_d_seminorm_weights_a_degree1_field_by_its_own_modes(monkeypatch):
    # with d/drho switched off, d_seminorm is its ||phi||_{boundary,s+1} part
    # alone; for a degree-1 field that part weights mode i by modes1[i], as
    # tangential_mode_norm does (at s = -1/2 the degree-0 modes gave 16.906
    # against 16.882)
    prob = NeumannProblem(AnnulusGrid(RHO0, 16, 32))
    phi = prob.random_form(1, np.random.default_rng(0))
    monkeypatch.setattr(neumann, "_d_rho", lambda u, h: np.zeros_like(u))
    for s in (-0.5, 0.0, 1.5):
        expected = tangential_mode_norm(prob, phi, s + 1.0)
        assert d_seminorm(prob, phi, s) == pytest.approx(expected, rel=1e-12)


def test_basic_estimate_one_mode_oracle():
    # single-mode polynomial coefficient: E and Q have closed forms; the
    # Richardson-extrapolated discrete ratio matches to 1e-6
    import scipy.integrate as si

    m = 3  # form mode
    v = lambda r: (r - RHO0) * (1.0 - r)  # vanishes at both radii
    dv = lambda r: 1.0 + RHO0 - 2.0 * r
    anchor = lambda r: 0.5 * (dv(r) - m * v(r) / r)
    pstar = lambda r: -0.5 * (dv(r) + m * v(r) / r)
    l2 = si.quad(lambda r: v(r) ** 2 * r, RHO0, 1.0)[0]
    e2 = si.quad(lambda r: anchor(r) ** 2 * r, RHO0, 1.0)[0] + l2
    q2 = l2 + si.quad(lambda r: pstar(r) ** 2 * r, RHO0, 1.0)[0]
    exact_ratio = e2 / q2

    def discrete_ratio(n_r):
        prob = NeumannProblem(AnnulusGrid(RHO0, 16, n_r))
        rho_int = prob.grid.rho()[1:-1]
        idx = int(np.where(prob.modes1 == m)[0][0])
        phi = np.zeros((len(prob.modes1), n_r - 2), dtype=complex)
        phi[idx] = v(rho_int)
        e2d = anchor_energy(prob, phi) + prob.norm(phi) ** 2
        ps = prob.apply_P_star(phi)
        q2d = prob.norm(phi) ** 2 + prob.norm(ps) ** 2
        return e2d / q2d

    coarse = discrete_ratio(129)
    fine = discrete_ratio(257)
    richardson = fine + (fine - coarse) / 3.0
    assert richardson == pytest.approx(exact_ratio, abs=1e-6)


def test_family_pure_rescaling_matches_spectral_oracle():
    grid = AnnulusGrid(RHO0, 16, 40)
    base = NeumannProblem(grid)
    for eps in (0.1, 0.01):
        prob = NeumannProblem(grid, eps=eps, profile=lambda r: np.ones_like(r))
        rng = np.random.default_rng(1)
        phi = prob.random_form(1, rng)
        lhs = prob.apply_N(phi)
        rhs = base.apply_N(phi)
        expected = rhs / (1.0 + eps) ** 2
        err = prob.norm(lhs - expected)
        assert err <= 1e-8 * prob.norm(expected)


@pytest.mark.parametrize("size", [16, 64])
def test_family_constant_profile_matches_closed_form(size):
    # the constant profile rescales S_1 by (1+eps)^2 exactly, so
    # N_eps - N_0 = ((1+eps)^-2 - 1) N_0, whose norm is attained at lambda_min
    grid = AnnulusGrid(RHO0, size, size)
    base = NeumannProblem(grid)
    lam_min = base.smallest_positive_eigenvalue()
    for eps in (0.1, 0.01, 1e-3, -0.3):
        prob = NeumannProblem(grid, eps=eps, profile=lambda r: np.ones_like(r))
        exact = abs(1.0 - (1.0 + eps) ** -2) / lam_min
        assert _norm_diffs([prob], base)[0] == pytest.approx(exact, rel=1e-10)


def test_family_bump_profile_linear_slope():
    grid = AnnulusGrid(RHO0, 16, 40)
    report = family_continuity(NeumannProblem(grid), bump_on(RHO0), [1e-1, 1e-2, 1e-3])
    assert report["harmonic_dims_deg1"] == [0, 0, 0]
    diffs = report["norm_diffs"]
    assert diffs[0] > diffs[1] > diffs[2] > 0
    assert 0.8 <= report["fitted_slope"] <= 1.2


def test_family_zero_deformation_is_exact():
    grid = AnnulusGrid(RHO0, 16, 32)
    base = NeumannProblem(grid)
    same = NeumannProblem(grid)
    assert _norm_diffs([base], same)[0] <= 1e-13


def test_family_rejects_ellipticity_loss():
    grid = AnnulusGrid(RHO0, 16, 32)
    with pytest.raises(ValueError):
        family_continuity(NeumannProblem(grid), lambda r: np.ones_like(r), [1.5])


def test_elliptic_regularity_trend():
    consts = []
    for n_r in (32, 64):
        prob = NeumannProblem(AnnulusGrid(RHO0, 16, n_r))
        rho = prob.grid.rho()
        s = np.sqrt(prob.w_int)
        D = _diff_matrix(n_r, prob.grid.h)
        worst = 0.0
        for m, L in zip(prob.modes1, dense(prob, prob.apply_box, 1)):
            sym = (s[:, None] * L) / s[None, :]
            lam, V = np.linalg.eigh(0.5 * (sym + sym.T))
            V = V / s[:, None]
            for j in range(V.shape[1]):
                vec = V[:, j]
                phi = np.zeros((len(prob.modes1), n_r - 2), dtype=complex)
                idx = int(np.where(prob.modes1 == m)[0][0])
                phi[idx] = vec
                ext = np.zeros(n_r, dtype=complex)
                ext[1:-1] = vec
                h1 = math.sqrt(
                    2 * math.pi
                    * float(
                        np.sum(
                            (np.abs(D @ ext) ** 2 + (m / rho) ** 2 * np.abs(ext) ** 2 + np.abs(ext) ** 2)
                            * prob.w
                        )
                    )
                )
                worst = max(worst, h1 / ((lam[j] + 1.0) * prob.norm(phi)))
        consts.append(worst)
    assert abs(consts[0] - consts[1]) / consts[0] <= 0.25


def test_dbar_report_smoke():
    out = dbar_report(n_theta=16, n_r=32, trials=6, seed=1)
    assert out["harmonic_dim_deg1"] == 0
    assert out["identity_residual"] <= 1e-8
    assert out["hodge_orthogonality"] <= 1e-8
    assert out["solve_dbar_vs_lstsq"] <= 1e-8


def test_dbar_report_memory_does_not_grow_with_the_trials():
    # the fields wait by degree until a stack of neumann._TRIAL_BLOCK_NODES
    # nodes of one degree, 64 fields at 16 x 32, is full; 2 * 64 trials fill
    # about one stack of each degree and 8 * 64 about four: the split between
    # the two degrees varies, so "about" is 25 %
    block = neumann._TRIAL_BLOCK_NODES // (16 * 32)
    dbar_report(n_theta=16, n_r=32, trials=1)
    peaks = []
    for trials in (2 * block, 8 * block):
        tracemalloc.start()
        dbar_report(n_theta=16, n_r=32, trials=trials)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("trials", [1, 31, 32, 33, 70])
def test_trial_blocks_keep_the_worst_residuals(monkeypatch, trials):
    # one trial at a time, as the report draws them, against blocks of 32:
    # each field of a stack is computed as it would be alone, bit for bit
    monkeypatch.setattr(neumann, "_TRIAL_BLOCK_NODES", 32 * 16 * 32)
    out = dbar_report(n_theta=16, n_r=32, trials=trials, seed=3)
    problem = NeumannProblem(AnnulusGrid(RHO0, 16, 32))
    rng = np.random.default_rng(np.random.SeedSequence([3, 5]))
    worst = np.zeros(3)
    for _ in range(trials):
        deg = int(rng.integers(0, 2))
        phi = problem.random_form(deg, rng)
        per_trial = neumann._trial_residuals(problem, phi[None])
        worst = np.maximum(worst, [r[0] for r in per_trial])
    got = [out["identity_residual"], out["n_pi_residual"], out["hodge_orthogonality"]]
    assert got == worst.tolist()


# ---------------------------------------------------------------------------
# the dense solve_dbar oracle and the harmonic cut, against the per-mode
# computations they replaced


def lstsq_reference(problem, f):
    """Per-mode dense minimal-norm least squares over the whole dense P stack."""
    s0 = np.sqrt(problem.w)
    out = np.zeros((len(problem.modes0), problem.grid.n_r), dtype=complex)
    for i, P in enumerate(dense_P(problem)):
        y, *_ = np.linalg.lstsq(P / s0[None, :], f[i], rcond=None)
        out[i] = y / s0
    return out


# (n_theta, n_r): the ranges of test_banded_matches_dense_reference, and the
# two grids of the labs workload
GRIDS = st.one_of(
    st.tuples(st.sampled_from([4, 6, 8, 10, 12, 14, 16]), st.integers(16, 40)),
    st.sampled_from([(64, 64), (128, 128)]),
)


@settings(max_examples=20, deadline=None)
@given(
    rho0=st.floats(0.1, 0.9, exclude_max=True),
    size=GRIDS,
    eps=st.floats(-0.5, 0.5),
    profile=st.sampled_from(sorted(PROFILES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_qr_oracle_matches_per_mode_lstsq(rho0, size, eps, profile, seed):
    prob = NeumannProblem(AnnulusGrid(rho0, *size), eps=eps, profile=PROFILES[profile](rho0))
    f = prob.random_form(1, np.random.default_rng(seed))
    got, want = solve_dbar_lstsq(prob, f), lstsq_reference(prob, f)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_qr_oracle_peak_memory_at_most_the_per_mode_reference():
    prob = NeumannProblem(AnnulusGrid(RHO0, 128, 128))
    f = prob.sample(1, np.conj)
    peaks = []
    for solve in (solve_dbar_lstsq, lstsq_reference):
        tracemalloc.start()
        solve(prob, f)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


# LAPACK's banded routines stay the independent oracle of the numpy
# kernels.  Both routes are backward stable: they differ by rounding of the
# order eps * ||S_1|| in an eigenvalue, and in a solve by that times the
# condition number of S_1.  The smallest eigenvalue above the cut and the
# solves on the grids below differ by at most 1.3e-13 and 3.3e-14 relative
LAPACK_REL = 1e-12


def per_mode_lambda_max(S1):
    """The largest eigenvalue over all modes, from the per-mode kernel on
    every mode."""
    return max(neumann._mode_eigenvalues(S1, i)[-1] for i in range(S1.shape[1]))


def lapack_lambda_max(S1):
    n = S1.shape[2]
    return max(
        eigvals_banded(S1[:, i, :], select="i", select_range=(n - 1, n - 1))[0]
        for i in range(S1.shape[1])
    )


@settings(max_examples=40, deadline=None)
@given(
    rho0=st.floats(0.1, 0.9, exclude_max=True),
    size=GRIDS,
    eps=st.floats(-0.5, 0.5),
    profile=st.sampled_from(sorted(PROFILES)),
)
def test_gershgorin_largest_eigenvalue_is_the_per_mode_maximum(rho0, size, eps, profile):
    S1 = NeumannProblem(AnnulusGrid(rho0, *size), eps=eps, profile=PROFILES[profile](rho0)).S1
    assert _largest_eigenvalue(S1) == per_mode_lambda_max(S1)
    assert _largest_eigenvalue(S1) == pytest.approx(lapack_lambda_max(S1), rel=LAPACK_REL)


@pytest.mark.parametrize("size", [64, 128, 256])
def test_gershgorin_skips_most_modes(monkeypatch, size):
    calls = []
    kernel = neumann._mode_eigenvalues

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    prob = NeumannProblem(AnnulusGrid(RHO0, size, size))
    monkeypatch.setattr(neumann, "_mode_eigenvalues", counting)
    # the inertia of the other modes rules them all out
    _largest_eigenvalue(prob.S1)
    assert len(calls) == 1
    # the harmonic cut: the largest eigenvalue again, then the lowest mode
    # and the few that the inertia at the lowest eigenvalue leaves
    calls.clear()
    prob._low_spectrum
    assert 0 < len(calls) <= 3
    # a whole hodge command: the base problem and three of the family
    calls.clear()
    dbar_report(n_theta=size, n_r=size, trials=1)
    assert 0 < len(calls) <= 12


def near_copies(S1, i, deltas):
    """S1 with mode i's block scaled by 1 + delta into one further mode per
    delta, from the last mode down: eigenvalues within |delta| (relative)
    of mode i's."""
    out = S1.copy()
    for j, delta in enumerate(deltas):
        out[:, -1 - j] = S1[:, i] * (1.0 + delta)
    return out


NEAR = (1e-12, -1e-12, 1e-13, -3e-13)


def test_inertia_filter_keeps_a_near_tie_of_the_largest_eigenvalue(monkeypatch):
    # the filter's shift sits 1e-10 of the bound inside the largest
    # eigenvalue found, so a mode within 1e-12 of it is solved, not skipped
    S1 = NeumannProblem(AnnulusGrid(RHO0, 16, 24)).S1
    i = int(np.argmax([neumann._mode_eigenvalues(S1, j)[-1] for j in range(S1.shape[1])]))
    S1 = near_copies(S1, i, NEAR)
    solved = []
    kernel = neumann._mode_eigenvalues
    monkeypatch.setattr(neumann, "_mode_eigenvalues", lambda S, j: solved.append(j) or kernel(S, j))
    got = _largest_eigenvalue(S1)
    monkeypatch.undo()
    assert got == per_mode_lambda_max(S1)
    n = S1.shape[1]
    assert {i} | {n - 1 - j for j in range(len(NEAR))} <= set(solved)


@pytest.mark.parametrize("harmonic_tol", [1e-8, 0.05])
def test_inertia_filter_keeps_a_near_tie_of_the_smallest_eigenvalue(monkeypatch, harmonic_tol):
    prob = NeumannProblem(AnnulusGrid(RHO0, 16, 24), harmonic_tol=harmonic_tol)
    _, lowest = all_mode_low_spectrum(prob)
    # the mode that holds the smallest eigenvalue above the cut
    lam = [neumann._mode_eigenvalues(prob.S1, j) for j in range(prob.S1.shape[1])]
    i = next(j for j, x in enumerate(lam) if lowest in x)
    prob.S1 = near_copies(prob.S1, i, NEAR)
    solved = []
    kernel = neumann._mode_eigenvalues
    monkeypatch.setattr(neumann, "_mode_eigenvalues", lambda S, j: solved.append(j) or kernel(S, j))
    counts, got = prob._low_spectrum
    monkeypatch.undo()
    want_counts, want = all_mode_low_spectrum(prob)
    assert counts.tolist() == want_counts and got == want
    n = prob.S1.shape[1]
    assert {i} | {n - 1 - j for j in range(len(NEAR))} <= set(solved)


# ---------------------------------------------------------------------------
# the pruned harmonic cut, the Givens oracle and the per-mode Lanczos norm,
# against the all-mode and dense computations they replaced


def all_mode_low_spectrum(problem):
    """The harmonic cut's per-mode counts and the smallest eigenvalue above
    it, from the per-mode kernel on every mode."""
    S1 = problem.S1
    cut = problem.harmonic_tol * per_mode_lambda_max(S1)
    counts, lowest = [], []
    for i in range(S1.shape[1]):
        lam = neumann._mode_eigenvalues(S1, i)
        k = int(np.count_nonzero(lam <= cut))
        counts.append(k)
        lowest.append(lam[k] if k < len(lam) else np.inf)
    return counts, float(min(lowest))


def lapack_low_spectrum(problem):
    """all_mode_low_spectrum from LAPACK's banded eigensolver."""
    S1 = problem.S1
    n = S1.shape[2]
    lam_max = lapack_lambda_max(S1)
    cut = problem.harmonic_tol * lam_max
    counts, lowest = [], []
    for i in range(S1.shape[1]):
        b = S1[:, i, :]
        low = eigvals_banded(b, select="i", select_range=(0, 0))[0]
        k = 0
        if low <= cut:
            k = len(eigvals_banded(b, select="v", select_range=(-lam_max, cut)))
            low = eigvals_banded(b, select="i", select_range=(k, k))[0] if k < n else np.inf
        counts.append(k)
        lowest.append(low)
    return counts, float(min(lowest))


# (size, eps, harmonic_tol): the raised cut of the last case puts
# eigenvalues under it, so the counts are exercised
LOW_SPECTRUM_CASES = [
    ((16, 16), 0.0, 1e-8), ((64, 64), 0.0, 1e-8), ((32, 40), 0.3, 1e-8), ((8, 24), 0.0, 0.05),
]


@pytest.mark.parametrize("size, eps, harmonic_tol", LOW_SPECTRUM_CASES)
def test_pruned_low_spectrum_equals_the_all_mode_loop(size, eps, harmonic_tol):
    prob = NeumannProblem(
        AnnulusGrid(RHO0, *size), eps=eps, profile=bump_on(RHO0), harmonic_tol=harmonic_tol
    )
    counts, lowest = prob._low_spectrum
    want_counts, want_lowest = all_mode_low_spectrum(prob)
    assert counts.tolist() == want_counts
    assert lowest == want_lowest
    assert (sum(want_counts) > 0) == (harmonic_tol == 0.05)


@pytest.mark.parametrize("size, eps, harmonic_tol", LOW_SPECTRUM_CASES)
def test_low_spectrum_matches_lapack(size, eps, harmonic_tol):
    prob = NeumannProblem(
        AnnulusGrid(RHO0, *size), eps=eps, profile=bump_on(RHO0), harmonic_tol=harmonic_tol
    )
    counts, lowest = prob._low_spectrum
    want_counts, want_lowest = lapack_low_spectrum(prob)
    assert counts.tolist() == want_counts
    assert lowest == pytest.approx(want_lowest, rel=LAPACK_REL)
    assert (sum(want_counts) > 0) == (harmonic_tol == 0.05)


# (n_theta, n_r, eps): the labs workload's grids, a coarse one, and a
# deformed one with the 256 x 256 hodge grid's modes
KERNEL_GRIDS = [(8, 24, 0.0), (64, 64, 0.0), (128, 128, 0.0), (32, 40, 0.3), (256, 256, -0.3)]


@pytest.mark.parametrize("n_theta, n_r, eps", KERNEL_GRIDS)
def test_band_cholesky_and_solve_match_lapack(n_theta, n_r, eps):
    prob = NeumannProblem(AnnulusGrid(RHO0, n_theta, n_r), eps=eps, profile=bump_on(RHO0))
    S1 = prob.S1
    U = neumann._band_cholesky(S1)
    want = scipy.linalg.cholesky_banded(S1.reshape(3, -1)).reshape(S1.shape)
    assert np.abs(U.transpose(0, 2, 1) - want).max() <= LAPACK_REL * np.abs(want).max()
    # a stack of fields and parts, axes (node, field, part, mode)
    b = np.random.default_rng(n_r).normal(size=(S1.shape[2], 3, 2, S1.shape[1]))
    got = neumann._band_solve(U, b.copy())
    flat = b.transpose(3, 0, 1, 2).reshape(S1.shape[1] * S1.shape[2], -1)
    x = scipy.linalg.cho_solve_banded((want.reshape(3, -1), False), flat)
    x = x.reshape(S1.shape[1], S1.shape[2], 3, 2).transpose(1, 2, 3, 0)
    assert np.linalg.norm(got - x) <= LAPACK_REL * np.linalg.norm(x)


@pytest.mark.parametrize("n_theta, n_r, eps", KERNEL_GRIDS)
def test_mode_eigenvalues_match_lapack(n_theta, n_r, eps):
    S1 = NeumannProblem(AnnulusGrid(RHO0, n_theta, n_r), eps=eps, profile=bump_on(RHO0)).S1
    for i in np.linspace(0, S1.shape[1] - 1, 5).astype(int):
        got, want = neumann._mode_eigenvalues(S1, i), eigvals_banded(S1[:, i, :])
        # each eigenvalue to rounding of the largest, the bound of both routes
        assert np.abs(got - want).max() <= LAPACK_REL * want[-1]
    assert _largest_eigenvalue(S1) == pytest.approx(lapack_lambda_max(S1), rel=LAPACK_REL)


def test_band_cholesky_flags_what_is_not_positive_definite():
    S1 = NeumannProblem(AnnulusGrid(RHO0, 16, 24)).S1
    lam = [neumann._mode_eigenvalues(S1, i) for i in range(S1.shape[1])]
    # shifts below the smallest eigenvalue of every mode, and between the
    # two smallest
    for shift, definite in (([0.5 * x[0] for x in lam], True),
                            ([0.5 * (x[0] + x[1]) for x in lam], False)):
        shifted = S1.copy()
        shifted[2] -= np.array(shift)[:, None]
        U = neumann._band_cholesky(shifted)
        assert (np.all(U[2] > 0, axis=0) == definite).all()


def dense_qr_minimal_norm(problem, f):
    """Per mode, y = Q z with B^T = QR (np.linalg.qr) and R^T z = f, for the
    dense B = P W^{-1/2}; returns u = W^{-1/2} y."""
    s0 = np.sqrt(problem.w)
    out = np.zeros((len(problem.modes0), problem.grid.n_r), dtype=complex)
    for i, P in enumerate(dense_P(problem)):
        q, r = np.linalg.qr((P / s0[None, :]).T)
        z = scipy.linalg.solve_triangular(r, f[i], trans="T")
        out[i] = (q @ z) / s0
    return out


@pytest.mark.parametrize("rho0", [0.1, 0.9])
def test_givens_oracle_matches_dense_qr_without_the_factors(monkeypatch, rho0):
    prob = NeumannProblem(AnnulusGrid(rho0, 64, 64), eps=0.3, profile=bump_on(rho0))
    fields = [prob.sample(1, np.conj), prob.random_form(1, np.random.default_rng(4))]

    def refuse(self):
        raise AssertionError("the oracle read the Cholesky factors")

    # the oracle must not lean on the route it checks
    monkeypatch.setattr(NeumannProblem, "_factors", property(refuse))
    for f in fields:
        got, want = solve_dbar_lstsq(prob, f), dense_qr_minimal_norm(prob, f)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def dense_S1(S1, i):
    """Mode i of an upper-banded pentadiagonal stack as a dense matrix."""
    S = np.diag(S1[2, i]) + np.diag(S1[1, i, 1:], 1) + np.diag(S1[0, i, 2:], 2)
    return S + np.triu(S, 1).T


def eigvalsh_norm_diff(a, b):
    """max over modes of |eigvalsh(S_a^-1 - S_b^-1)|, the difference taken as
    S_a^-1 (S_b - S_a) S_b^-1 so that it keeps its digits at small eps."""
    worst = 0.0
    for i in range(a.S1.shape[1]):
        Sa, Sb = dense_S1(a.S1, i), dense_S1(b.S1, i)
        D = np.linalg.solve(Sa, np.linalg.solve(Sb, (Sb - Sa).T).T)
        worst = max(worst, float(np.abs(np.linalg.eigvalsh(0.5 * (D + D.T))).max()))
    return worst


@pytest.mark.parametrize("size", [32, 64])
def test_lanczos_norm_diff_matches_per_mode_eigvalsh(size):
    grid = AnnulusGrid(RHO0, size, size)
    base = NeumannProblem(grid)
    for eps in (0.3, 0.1, -0.3):
        prob = NeumannProblem(grid, eps=eps, profile=bump_on(RHO0))
        assert _norm_diffs([prob], base)[0] == pytest.approx(
            eigvalsh_norm_diff(prob, base), rel=1e-12
        )


def undeflated_norm_diffs(problems, base):
    """||N_p - N_base|| for each p by the lockstep Lanczos with no block ever
    leaving: every block is solved and its tridiagonal taken at every step,
    and a problem's norm is its largest |theta| at the first step where
    none of its blocks can reach past it."""
    factors = [p._factors for p in problems] + [base._factors] * len(problems)
    F = np.concatenate(factors, axis=2)
    n_modes, n = base.S1.shape[1:]
    m = len(problems) * n_modes
    V = np.empty((n, m, n))
    V[0] = 1.0 / math.sqrt(n)
    x, w = np.empty((n, 2 * m)), np.empty((m, n))
    alpha, beta = [], []
    norms = [None] * len(problems)
    for k in range(1, n + 1):
        x[:, :m] = x[:, m:] = V[k - 1].T
        neumann._band_solve(F, x)
        np.subtract(x[:, :m].T, x[:, m:].T, out=w)
        alpha.append(np.einsum("mn,mn->m", V[k - 1], w))
        for _ in range(2):
            w -= np.einsum("km,kmn->mn", np.einsum("kmn,mn->km", V[:k], w), V[:k])
        beta.append(np.linalg.norm(w, axis=1))
        T = np.stack(alpha, axis=1)[:, :, None] * np.eye(k)
        T[:, 1:, :-1] += np.stack(beta, axis=1)[:, :-1, None] * np.eye(k - 1)
        theta, U = np.linalg.eigh(T)
        top = np.abs(theta).reshape(len(problems), -1).max(axis=1)
        reach = np.abs(theta) + beta[-1][:, None] * np.abs(U[:, -1, :])
        reach = reach.reshape(len(problems), -1).max(axis=1)
        for i, norm in enumerate(norms):
            if norm is None and (k == n or reach[i] <= top[i] * (1.0 + 1e-14)):
                norms[i] = float(top[i])
        if None not in norms:
            return norms
        np.divide(w, np.where(beta[-1] > 0, beta[-1], 1.0)[:, None], out=V[k])


@settings(max_examples=40, deadline=None)
@given(
    rho0=st.floats(0.1, 0.9, exclude_max=True),
    n_theta=st.sampled_from([4, 6, 8, 10, 12, 14, 16]),
    n_r=st.integers(16, 40),
    eps=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=3),
    profile=st.sampled_from(sorted(PROFILES)),
)
def test_deflated_norm_diffs_match_the_undeflated_lockstep(rho0, n_theta, n_r, eps, profile):
    grid = AnnulusGrid(rho0, n_theta, n_r)
    base = NeumannProblem(grid)
    probs = [NeumannProblem(grid, eps=e, profile=PROFILES[profile](rho0)) for e in eps]
    got, want = neumann._norm_diffs(probs, base), undeflated_norm_diffs(probs, base)
    # relative to the difference; where eps is so small that the difference
    # nears the rounding of the operators themselves (at eps = 1e-10 it is
    # 3e-12 and known to 2e-7 of itself), to that rounding
    for g, w_, prob in zip(got, want, probs):
        rounding = 1e-15 * (1 / prob.smallest_positive_eigenvalue()
                            + 1 / base.smallest_positive_eigenvalue())
        assert abs(g - w_) <= 1e-12 * w_ + rounding


def test_deflated_norm_diffs_of_a_zero_deformation_are_exactly_zero():
    grid = AnnulusGrid(RHO0, 16, 32)
    base = NeumannProblem(grid)
    probs = [NeumannProblem(grid), NeumannProblem(grid, eps=0.1, profile=bump_on(RHO0))]
    got = neumann._norm_diffs(probs, base)
    assert got[0] == 0.0 == undeflated_norm_diffs(probs, base)[0]
    assert got[1] > 0


# ---------------------------------------------------------------------------
# the trials' stacked operators, against the public operators one trial at a
# time


def per_trial_residuals(problem, phi):
    """The three residuals of one field from apply_N, apply_pi and apply_box,
    each solve taken on its own."""
    n_phi, harm = problem.apply_N(phi), problem.apply_pi(phi)
    if problem.degree(phi) == 1:
        im_p = problem.apply_P(problem.apply_P_star(n_phi))
        im_ps = np.zeros_like(phi)
    else:
        im_p = np.zeros_like(phi)
        im_ps = problem.apply_P_star(problem.apply_P(n_phi))
    size = problem.norm(phi)
    identity = problem.norm(problem.apply_box(n_phi) + harm - phi)
    npi = max(problem.norm(problem.apply_N(harm)), problem.norm(problem.apply_pi(n_phi)))
    ortho = problem.norm(harm + im_p + im_ps - phi) / size
    pieces = [harm, im_p, im_ps]
    for a in range(3):
        for b in range(a + 1, 3):
            ortho = max(ortho, abs(problem.inner(pieces[a], pieces[b])) / size**2)
    return [identity / size, npi, ortho]


def trial_problems():
    """A deformed coarse problem and the labs workload's 64 x 64 one."""
    return [NeumannProblem(AnnulusGrid(RHO0, 16, 32), eps=0.2, profile=bump_on(RHO0)),
            NeumannProblem(AnnulusGrid(RHO0, 64, 64))]


def random_stack(problem, degree, trials=5):
    rng = np.random.default_rng(degree)
    return np.stack([problem.random_form(degree, rng) for _ in range(trials)])


@pytest.mark.parametrize("degree", [0, 1])
def test_shared_trial_solves_match_the_operators_one_trial_at_a_time(degree):
    for problem in trial_problems():
        stack = random_stack(problem, degree)
        per_trial = neumann._trial_residuals(problem, stack)
        for t, phi in enumerate(stack):
            assert [r[t] for r in per_trial] == per_trial_residuals(problem, phi)


@pytest.mark.parametrize("degree", [0, 1])
def test_hodge_split_is_pi_and_box_N_from_the_operators(degree):
    problem = trial_problems()[0]
    stack = random_stack(problem, degree)

    def split(phi):
        # pi phi, box N phi composed from P and P*, the zero piece
        harm, im_p, im_ps = hodge_split(problem, phi)
        exact, zero = (im_p, im_ps) if degree == 1 else (im_ps, im_p)
        assert zero.shape == phi.shape and problem.degree(zero) == degree
        assert not zero.any()
        n_phi = problem.apply_N(phi)
        box_n = (problem.apply_P(problem.apply_P_star(n_phi)) if degree == 1
                 else problem.apply_P_star(problem.apply_P(n_phi)))
        assert np.array_equal(exact, box_n)
        assert np.array_equal(harm, problem.apply_pi(phi))
        return n_phi, harm, exact

    stacked = split(stack)
    for t, phi in enumerate(stack):
        for got, want in zip(stacked, split(phi)):
            assert np.array_equal(got[t], want)


@pytest.mark.parametrize("trials", [0, -3])
def test_dbar_report_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials"):
        dbar_report(n_theta=16, n_r=32, trials=trials)
