"""Discrete dbar-Neumann problem on an annulus in C.

The annulus {rho0 <= |z| <= 1} carries L = span{d/dzbar}, so d_L is the
dbar-operator sending functions to (0,1)-forms, written per angular mode in
polar form: dzbar = e^{i theta}/2 (d_rho + (i/rho) d_theta).  Angular modes
decouple exactly; the radial direction uses 2nd-order finite differences
and the polar weight rho drho dtheta (trapezoid in rho, exact in theta).

A field is an array per (angular mode, radial node), or a stack of them on
leading axes.  At rank one the degree-1 Neumann condition degenerates to a
Dirichlet condition on the coefficient, so degree-1 fields, carried by
dzbar, live on the n_r - 2 interior radial nodes, and degree-0 fields on
all n_r: NeumannProblem.degree reads a field's degree from its last axis,
and _frame picks each degree's modes and nodes.  The degree-1 Laplacian is
P P*_w, with P*_w the exact discrete adjoint of P; this keeps every
operator Hermitian to machine precision and makes the Hodge identities
exact at fixed resolution, while P*_w remains a 2nd-order-consistent
discretization of the formal adjoint -d/dz.  The degree-0 kernel is the
discrete shadow of the holomorphic functions (plus the usual
centered-difference companion mode); only residual statements are asserted
about it, never a dimension count.

Per mode, P is a three-point stencil, so box_1 = P P*_w and box_0 = P*_w P
are pentadiagonal.  Operators are stored as banded arrays stacked over all
modes and applied as stencils to all modes at once, and to stacks of fields
at once; the Neumann operator is a band Cholesky solve in numpy, one step
per radial node over every mode and column (see NeumannProblem).
Eigenvalues come from numpy's dense eigvalsh of one mode's block, on
demand, by one rule (_least_over_modes): solve the first mode in Gershgorin
order, then only those others whose inertia (the band Cholesky pivots of
the shifted band) lets them lower the least.  It gives the smallest
eigenvalue above the harmonic cut over S_1, and the largest (which sets
the cut) as the least of -lambda over -S_1.  The deformation norms
||N_eps - N_0|| come from one Lanczos process per mode and eps, stepped in
lockstep until each converges.  The independent oracle for solve_dbar is
the minimal-norm solution of P u = f by a Givens QR of the band of P^T,
all modes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import check_eigen_work, check_grid_nodes, check_trials
from .sobolev import order_stats, trapezoid

__all__ = [
    "AnnulusGrid",
    "NeumannProblem",
    "solve_dbar",
    "hodge_split",
    "basic_estimate_report",
    "family_continuity",
    "dbar_report",
]


@dataclass(frozen=True)
class AnnulusGrid:
    rho0: float = 0.5
    n_theta: int = 64
    n_r: int = 64

    def __post_init__(self):
        if not 0.1 <= self.rho0 < 1.0:
            raise ValueError("inner radius must lie in [0.1, 1)")
        if self.n_r < 16:
            raise ValueError("need at least 16 radial points")
        if self.n_theta < 4 or self.n_theta % 2:
            raise ValueError("n_theta must be even and >= 4")
        check_grid_nodes("annulus", (self.n_theta, self.n_r))

    @property
    def h(self) -> float:
        return (1.0 - self.rho0) / (self.n_r - 1)

    def rho(self) -> np.ndarray:
        return self.rho0 + np.arange(self.n_r) * self.h

    def weights(self) -> np.ndarray:
        return trapezoid(self.n_r, self.h) * self.rho()

    def modes0(self) -> np.ndarray:
        m = self.n_theta // 2
        return np.arange(-m, m)

    def modes1(self) -> np.ndarray:
        return self.modes0() + 1


class NeumannProblem:
    """Banded operators of the annulus problem, stacked over all angular modes.

    P is kept as its three stencil diagonals.  The degree-1 Laplacian
    box_1 = P P*_w is kept as its sqrt(w)-symmetrisation
    S_1 = W_int^{1/2} P W^{-1} P^T W_int^{1/2}, a real pentadiagonal matrix
    per mode, in upper-banded form.  N_1 is a band Cholesky solve
    (_band_cholesky, _band_solve); degree 0 follows from N_0 = P* N_1^2 P
    and pi_0 = 1 - P* N_1 P, exact because range box_0 = range P* while the
    degree-1 harmonic space is empty (then pi_1 = 0).  Eigenvalues are
    computed on demand.
    """

    def __init__(self, grid: AnnulusGrid, eps: float = 0.0,
                 profile: Optional[Callable] = None,
                 harmonic_tol: float = 1e-8):
        self.grid = grid
        self.harmonic_tol = harmonic_tol
        rho = grid.rho()
        self.w = grid.weights()
        self.w_int = self.w[1:-1]
        scale = np.ones(grid.n_r)
        if profile is not None and eps != 0.0:
            scale = 1.0 + eps * np.asarray(profile(rho), dtype=float)
            if np.min(scale) <= 0:
                raise ValueError("ellipticity lost: 1 + eps*a touches zero")
        self.scale = scale
        self.modes0 = grid.modes0()
        self.modes1 = grid.modes1()
        # row i of P (radial node i+1) is the interior row of
        # (scale/2) (D - n/rho): p_lo u[i] + p_mid u[i+1] + p_up u[i+2];
        # p_lo and p_up do not depend on the mode, so they are (n_r - 2,) rows
        half = 0.5 * scale[1:-1]
        self.p_lo = -0.5 / grid.h * half
        self.p_mid = half * -(self.modes0[:, None] * (1.0 / rho[1:-1]))
        self.p_up = 0.5 / grid.h * half
        # S_1 in upper-banded form, axes (band row, mode, node): row 2 is the
        # diagonal, rows 1 and 0 the first and second superdiagonals, so that
        # column j holds S[j-2, j], S[j-1, j] and S[j, j]; the slots before
        # each mode's first node are zero
        v = 1.0 / self.w
        lo, mid, up = self.p_lo, self.p_mid, self.p_up
        s = np.sqrt(self.w_int)
        band = np.zeros((3, len(self.modes0), grid.n_r - 2))
        band[2] = (lo**2 * v[:-2] + mid**2 * v[1:-1] + up**2 * v[2:]) * s * s
        band[1, :, 1:] = (
            mid[:, :-1] * lo[1:] * v[1:-2] + up[:-1] * mid[:, 1:] * v[2:-1]
        ) * (s[:-1] * s[1:])
        band[0, :, 2:] = up[:-2] * lo[2:] * v[2:-2] * (s[:-2] * s[2:])
        self.S1 = band

    # -- spectrum, on demand --------------------------------------------------

    @cached_property
    def _low_spectrum(self) -> Tuple[np.ndarray, float]:
        """Per mode, the number of eigenvalues of box_1 at or below the
        harmonic cut harmonic_tol * (largest eigenvalue); and the smallest
        eigenvalue above the cut over all modes, by _least_over_modes.  A
        mode that it skips has every eigenvalue above that smallest one, so
        none at or below the cut."""
        cut = self.harmonic_tol * _largest_eigenvalue(self.S1)
        counts = np.zeros(self.S1.shape[1], dtype=int)

        def visit(i):
            # mode i's count at the cut, and its smallest eigenvalue above it
            lam = _mode_eigenvalues(self.S1, i)
            k = counts[i] = np.count_nonzero(lam <= cut)
            return lam[k] if k < len(lam) else np.inf

        return counts, float(_least_over_modes(self.S1, visit))

    def harmonic_dim(self, degree: int) -> int:
        """Degree 0 adds Ker P, two dimensions per mode, to the degree-1 count:
        box_0 = P* P and box_1 = P P* share their nonzero spectrum."""
        self._frame(degree)  # raises on a degree other than 0 or 1
        dim1 = int(self._low_spectrum[0].sum())
        return dim1 if degree == 1 else 2 * len(self.modes0) + dim1

    def smallest_positive_eigenvalue(self) -> float:
        """The smallest eigenvalue above the harmonic cut; the same at both
        degrees, which share their nonzero spectrum."""
        return self._low_spectrum[1]

    def spectrum(self, i: int) -> np.ndarray:
        """All eigenvalues of box_1 on mode modes1[i], ascending."""
        return _mode_eigenvalues(self.S1, i)

    # -- fields ---------------------------------------------------------------

    def degree(self, phi: np.ndarray) -> int:
        """The degree of a field, or of a stack of fields, read from its last
        axis: n_r radial nodes for degree 0, n_r - 2 for degree 1."""
        n_r, n_modes = self.grid.n_r, len(self.modes0)
        if phi.ndim < 2 or phi.shape[-2] != n_modes or phi.shape[-1] not in (n_r, n_r - 2):
            raise ValueError(f"a field has axes (..., {n_modes} modes, {n_r} or {n_r - 2} "
                             f"radial nodes), got shape {phi.shape}")
        return int(phi.shape[-1] == n_r - 2)

    def _frame(self, degree: int) -> Tuple[np.ndarray, slice]:
        """The angular modes and the radial nodes of a degree's fields."""
        if degree not in (0, 1):
            raise ValueError(f"fields have degree 0 or 1, got {degree}")
        return (self.modes0, slice(None)) if degree == 0 else (self.modes1, slice(1, -1))

    def _expect(self, phi: np.ndarray, degree: int, name: str) -> None:
        if self.degree(phi) != degree:
            raise ValueError(f"{name} takes a degree-{degree} field")

    def inner(self, phi: np.ndarray, psi: np.ndarray) -> complex:
        if psi.shape != phi.shape:
            raise ValueError(f"inner takes two fields of one shape, got {phi.shape} "
                             f"and {psi.shape}")
        w = self.w[self._frame(self.degree(phi))[1]]
        return complex(2.0 * math.pi * np.sum(phi * np.conj(psi) * w))

    def norm(self, phi: np.ndarray) -> float:
        return math.sqrt(max(self.inner(phi, phi).real, 0.0))

    # -- operators -----------------------------------------------------------

    # _P and _P_star hold their input, their output and one scratch stack,
    # and add the stencil's products in the order p_lo, p_mid, p_up

    def _P(self, u: np.ndarray) -> np.ndarray:
        out = np.multiply(self.p_lo, u[..., :-2])
        t = np.multiply(self.p_mid, u[..., 1:-1])
        out += t
        out += np.multiply(self.p_up, u[..., 2:], out=t)
        return out

    def _P_star(self, v: np.ndarray) -> np.ndarray:
        # the exact weighted adjoint W^{-1} P^T W_int, from y = v w_int,
        # which is taken again into the scratch stack for p_up
        t = v * self.w_int
        out = np.empty(t.shape[:-1] + (self.grid.n_r,), dtype=t.dtype)
        out[..., -2:] = 0.0
        np.multiply(self.p_lo, t, out=out[..., :-2])
        t *= self.p_mid
        out[..., 1:-1] += t
        np.multiply(v, self.w_int, out=t)
        t *= self.p_up
        out[..., 2:] += t
        out /= self.w
        return out

    @cached_property
    def _factors(self) -> np.ndarray:
        """The band Cholesky factor of S_1 over all modes; a refusal caches
        nothing."""
        if self.harmonic_dim(1) != 0:
            raise RuntimeError(
                "harmonic obstruction present at degree 1 (unexpected on an annulus)"
            )
        U = _band_cholesky(self.S1)
        if not np.all(U[2] > 0):
            raise np.linalg.LinAlgError("S_1 is not positive definite")
        return U

    def _N1(self, v: np.ndarray) -> np.ndarray:
        """W_int^{-1/2} S_1^{-1} W_int^{1/2} v for a field or a stack of
        fields, the real and imaginary parts solved as columns."""
        s = np.sqrt(self.w_int)
        cplx = np.iscomplexobj(v)
        out = np.empty(v.shape, dtype=complex if cplx else float)
        # the right-hand sides, axes (node, fields..., part, mode)
        x = np.empty(v.shape[-1:] + v.shape[:-2] + (1 + cplx, v.shape[-2]))
        for k, part in enumerate((v.real, v.imag) if cplx else (v,)):
            np.multiply(part, s, out=np.moveaxis(x[..., k, :], 0, -1))
        _band_solve(self._factors, x)
        for k, part in enumerate((out.real, out.imag) if cplx else (out,)):
            np.divide(np.moveaxis(x[..., k, :], 0, -1), s, out=part)
        return out

    def apply_P(self, phi: np.ndarray) -> np.ndarray:
        self._expect(phi, 0, "apply_P")
        return self._P(phi)

    def apply_P_star(self, phi: np.ndarray) -> np.ndarray:
        self._expect(phi, 1, "apply_P_star")
        return self._P_star(phi)

    def apply_box(self, phi: np.ndarray) -> np.ndarray:
        if self.degree(phi) == 1:
            return self._P(self._P_star(phi))
        return self._P_star(self._P(phi))

    def apply_N(self, phi: np.ndarray) -> np.ndarray:
        """Neumann operator: inverse of box on the complement of the harmonic
        space, zero on it."""
        if self.degree(phi) == 1:
            return self._N1(phi)
        return self._P_star(self._N1(self._N1(self._P(phi))))

    def apply_pi(self, phi: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the harmonic space."""
        if self.degree(phi) == 1:
            self._factors  # raises while the degree-1 harmonic space is not empty
            return np.zeros_like(phi)
        return phi - self._P_star(self._N1(self._P(phi)))

    # -- sampling ---------------------------------------------------------------

    def sample(self, degree: int, fn: Callable) -> np.ndarray:
        """Sample a smooth coefficient fn(z) (z complex) into a field."""
        modes, nodes = self._frame(degree)
        rho = self.grid.rho()[nodes]
        theta = 2.0 * math.pi * np.arange(self.grid.n_theta) / self.grid.n_theta
        z = rho[None, :] * np.exp(1j * theta[:, None])
        vals = np.asarray(fn(z), dtype=complex)
        spec = np.fft.fft(vals, axis=0) / self.grid.n_theta
        return spec[modes % self.grid.n_theta]

    def random_form(self, degree: int, rng: np.random.Generator) -> np.ndarray:
        modes, nodes = self._frame(degree)
        shape = (len(modes), len(self.w[nodes]))
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _gershgorin(S1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per mode of an upper-banded pentadiagonal stack (band row, mode,
    node), the lower and upper Gershgorin bounds of its eigenvalues."""
    a = np.abs(S1)
    # row j: S[j, j-1] and S[j, j-2] sit in column j of band rows 1 and 0,
    # S[j, j+1] and S[j, j+2] in columns j + 1 and j + 2
    off = a[1] + a[0]
    off[:, :-1] += a[1, :, 1:]
    off[:, :-2] += a[0, :, 2:]
    return (S1[2] - off).min(axis=1), (S1[2] + off).max(axis=1)


def _largest_eigenvalue(S1: np.ndarray) -> float:
    """The largest eigenvalue over all modes of an upper-banded pentadiagonal
    stack (band row, mode, node), to the bit the maximum of the per-mode
    spectra: the least of -lambda over -S_1 by _least_over_modes."""
    return -_least_over_modes(-S1, lambda i: -_mode_eigenvalues(S1, i)[-1])


def _least_over_modes(band: np.ndarray, visit: Callable[[int], float]) -> float:
    """The least of visit(i), at least mode i's smallest eigenvalue, over the
    modes i of an upper-banded pentadiagonal stack (band row, mode, node).

    The mode of the lowest Gershgorin bound is visited first.  Of the others,
    only those are visited whose block, shifted down by that first value plus
    1e-10 of the mode's Gershgorin bound on its 2-norm (far above rounding),
    has no band Cholesky factor with positive pivots: by Sylvester's law of
    inertia (the factor is backward stable), a mode skipped has every
    eigenvalue above the least, so the least is the same to the bit.
    """
    lower, upper = _gershgorin(band)
    order = np.argsort(lower, kind="stable")
    least = visit(order[0])
    rest = order[1:]
    shifted = band[:, rest]
    shifted[2] -= (least + 1e-10 * np.maximum(upper, -lower)[rest])[:, None]
    for i in rest[~np.all(_band_cholesky(shifted)[2] > 0, axis=0)]:
        least = min(least, visit(i))
    return least


def _mode_eigenvalues(S1: np.ndarray, i: int) -> np.ndarray:
    """The eigenvalues of mode i of an upper-banded pentadiagonal stack,
    ascending: eigvalsh of the mode's dense block, which reads its lower
    triangle."""
    return np.linalg.eigvalsh(
        np.diag(S1[2, i]) + np.diag(S1[1, i, 1:], -1) + np.diag(S1[0, i, 2:], -2)
    )


def _band_cholesky(S1: np.ndarray) -> np.ndarray:
    """The upper triangular U with S = U^T U for every mode of an
    upper-banded pentadiagonal stack, in the same layout: U[2] is the
    diagonal, U[1] and U[0] the first and second superdiagonals.

    One step per node over all modes (Golub & Van Loan, Matrix
    Computations, 4th ed., 4.3.5): column j of S = U^T U gives U[j-2, j],
    then U[j-1, j], then U[j, j].  Where S is not positive definite, some
    pivot U[j, j] comes out zero or NaN instead of positive.  U is returned
    as it is stored, node by node, axes (band row, node, mode): C-contiguous,
    with one node of every mode in one row.
    """
    s2, s1, d = (list(r) for r in S1.transpose(0, 2, 1))
    U = np.zeros(S1.shape[:1] + S1.shape[:0:-1])
    u0, u1, u2 = (list(u) for u in U)
    t, t2 = np.empty((2, len(d[0])))
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(len(d)):
            if j >= 2:
                np.divide(s2[j], u2[j - 2], out=u0[j])
            if j >= 1:
                np.subtract(s1[j], np.multiply(u1[j - 1], u0[j], out=t), out=t)
                np.divide(t, u2[j - 1], out=u1[j])
            np.subtract(d[j], np.multiply(u0[j], u0[j], out=t), out=t)
            t -= np.multiply(u1[j], u1[j], out=t2)
            np.sqrt(t, out=u2[j])
    return U


def _band_solve(U: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(U^T U)^{-1} x in place, for U from _band_cholesky (axes band row,
    node, mode, or several such factors joined along the mode axis) and x a
    float stack of axes (node, columns..., mode), C-contiguous within each
    node: forward through U^T, then back through U, one step per node over
    every column and mode.  The mode axis is last, so that a node's row of
    U is read along the contiguous axis of x."""
    n = x.shape[0]
    u0, u1, u2 = (list(u) for u in U)
    rows = list(x)
    t = np.empty_like(rows[0])
    for j in range(n):
        if j >= 1:
            rows[j] -= np.multiply(u1[j], rows[j - 1], out=t)
        if j >= 2:
            rows[j] -= np.multiply(u0[j], rows[j - 2], out=t)
        rows[j] /= u2[j]
    for j in range(n - 1, -1, -1):
        if j + 1 < n:
            rows[j] -= np.multiply(u1[j + 1], rows[j + 1], out=t)
        if j + 2 < n:
            rows[j] -= np.multiply(u0[j + 2], rows[j + 2], out=t)
        rows[j] /= u2[j]
    return x


# ---------------------------------------------------------------------------
# solving dbar


def solve_dbar(problem: NeumannProblem, f: np.ndarray) -> np.ndarray:
    """The canonical primitive u = P* N f of a degree-1 field.

    Every (0,1)-form is closed in complex dimension one; with an empty
    degree-1 harmonic space, u satisfies P u = f and is the minimal-norm
    solution (it lies in the range of P*, the orthogonal complement of
    Ker P).  A nonempty degree-1 harmonic space raises RuntimeError.
    """
    problem._expect(f, 1, "solve_dbar")
    return problem.apply_P_star(problem.apply_N(f))


def solve_dbar_lstsq(problem: NeumannProblem, f: np.ndarray) -> np.ndarray:
    """Independent oracle: the minimal-norm solution of P u = f per mode, by
    a Givens QR of the band of P^T on all modes at once (Golub & Van Loan,
    Matrix Computations, 5.2); it reads neither S_1 nor its factors.

    In the sqrt(w)-weighted frame B = P W^{-1/2} has full row rank; with
    B^T = QR the minimal-norm solution of B y = f is y = Q [z; 0; 0],
    R^T z = f, and u = W^{-1/2} y.  Row j of B^T (columns j - 2 .. j) is
    merged into R by rotations against its rows j - 2 and j - 1, and what
    is left becomes row j of R, which keeps two superdiagonals."""
    problem._expect(f, 1, "solve_dbar_lstsq")
    s0 = np.sqrt(problem.w)
    n_r, n_modes = problem.grid.n_r, len(problem.modes0)
    n = n_r - 2
    # row j of B^T in columns j - 2 .. j + 1, and R[r, d] = R[r, r + d]
    rows = np.zeros((n_r, 4, n_modes))
    rows[2:, 0] = (problem.p_up / s0[2:])[:, None]
    rows[1:-1, 1] = problem.p_mid.T / s0[1:-1, None]
    rows[:-2, 2] = (problem.p_lo / s0[:-2])[:, None]
    R = np.zeros((n, 3, n_modes))
    rotations = []
    for j, x in enumerate(rows):
        for d, r in ((0, j - 2), (1, j - 1)):
            if 0 <= r < n:
                rho = np.hypot(R[r, 0], x[d])
                c, s = R[r, 0] / rho, x[d] / rho
                R[r], x[d : d + 3] = c * R[r] + s * x[d : d + 3], c * x[d : d + 3] - s * R[r]
                rotations.append((r, j, c, s))
        if j < n:
            R[j, :2] = x[2:]
    # R^T z = f; the last two rows of z are still zero here, so the wrapped
    # indices at i < 2 add nothing
    z = np.zeros((n_r, n_modes), dtype=complex)
    for i, fi in enumerate(f.T):
        z[i] = (fi - R[i - 1, 1] * z[i - 1] - R[i - 2, 2] * z[i - 2]) / R[i, 0]
    # y = Q [z; 0; 0]: the transposed rotations in reverse order
    for r, j, c, s in reversed(rotations):
        z[r], z[j] = c * z[r] - s * z[j], s * z[r] + c * z[j]
    return z.T / s0


def hodge_split(problem: NeumannProblem, phi: np.ndarray):
    """Orthogonal decomposition phi = harmonic + P(...) + P*(...): pi phi,
    then box N phi in the slot of its range (P at degree 1, P* at degree 0)
    and zero in the other."""
    exact = problem.apply_box(problem.apply_N(phi))
    zero = np.zeros_like(phi)
    return (problem.apply_pi(phi),) + ((exact, zero) if problem.degree(phi) else (zero, exact))


# ---------------------------------------------------------------------------
# norms for the estimate batteries


def _d_rho(u: np.ndarray, h: float) -> np.ndarray:
    """d/drho of every mode's row: centred differences inside, one-sided of
    2nd order at the two ends."""
    return np.gradient(u, h, axis=-1, edge_order=2)


def _on_all_nodes(problem: NeumannProblem, phi: np.ndarray) -> np.ndarray:
    """The coefficients on every radial node: a degree-1 field extended by
    its zero boundary values."""
    ext = np.zeros(phi.shape[:-1] + (problem.grid.n_r,), dtype=complex)
    ext[..., problem._frame(problem.degree(phi))[1]] = phi
    return ext


def anchor_energy(problem: NeumannProblem, phi: np.ndarray) -> float:
    """||nabla^eps phi||^2: the anchor-direction derivative of the
    coefficients, for degree-1 fields in the Neumann domain."""
    grid = problem.grid
    ext = _on_all_nodes(problem, phi)
    m = problem.modes1[:, None]
    dv = problem.scale * 0.5 * (_d_rho(ext, grid.h) - m * ext / grid.rho())
    return 2.0 * math.pi * float(np.sum(np.abs(dv) ** 2 * problem.w))


def tangential_mode_norm(problem: NeumannProblem, phi: np.ndarray, s: float) -> float:
    """|| . ||_{boundary,s} on the annulus: the angular modes are the exact
    tangential frequencies."""
    modes, nodes = problem._frame(problem.degree(phi))
    return _mode_norm(phi, modes, problem.w[nodes], s)


def _mode_norm(values, modes, w, s: float) -> float:
    """The mode-weighted norm of per-mode rows of values."""
    per_mode = np.sum(np.abs(values) ** 2 * w, axis=-1)
    total = float(np.sum((1.0 + modes * modes) ** s * per_mode))
    return math.sqrt(2.0 * math.pi * total)


def d_seminorm(problem: NeumannProblem, phi: np.ndarray, s: float) -> float:
    """||D phi||_{boundary,s}^2 = ||phi||_{d,s+1}^2 + ||d_rho phi||_{d,s}^2,
    both over phi's own angular modes.  d_rho of a degree-1 field is taken
    on its extension by zero boundary values, so it lives on every node."""
    modes = problem._frame(problem.degree(phi))[0]
    a = tangential_mode_norm(problem, phi, s + 1.0)
    d_ext = _d_rho(_on_all_nodes(problem, phi), problem.grid.h)
    b = _mode_norm(d_ext, modes, problem.w, s)
    return math.sqrt(a * a + b * b)


def basic_estimate_report(
    problem: NeumannProblem, trials: int = 25, seed: int = 0
) -> Dict:
    """Empirical constants of the basic estimate and the half-norm bound.

    E(phi)^2 = ||anchor phi||^2 + ||phi||^2 + boundary term (zero on the
    Neumann domain); Q(phi)^2 = ||phi||^2 + ||P phi||^2 + ||P* phi||^2.
    Reports max E^2/Q^2 and max ||D phi||^2_{d,-1/2} / E^2 over random
    degree-1 fields in the domain.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    e_vs_q = []
    d_vs_e = []
    for _ in range(trials):
        phi = problem.random_form(1, rng)
        e2 = anchor_energy(problem, phi) + problem.norm(phi) ** 2
        ps = problem.apply_P_star(phi)
        q2 = problem.norm(phi) ** 2 + problem.norm(ps) ** 2
        e_vs_q.append(e2 / q2)
        d_vs_e.append(d_seminorm(problem, phi, -0.5) ** 2 / e2)
    return {
        "trials": trials,
        "seed": seed,
        "C_E_vs_Q": float(np.max(e_vs_q)),
        "C_D_vs_E": float(np.max(d_vs_e)),
        "median_E_vs_Q": order_stats(np.array(e_vs_q), [])[1],
        "median_D_vs_E": order_stats(np.array(d_vs_e), [])[1],
    }


# ---------------------------------------------------------------------------
# deformation family


def _norm_diffs(problems: Iterable[NeumannProblem], base: NeumannProblem) -> List[float]:
    """|| N_p - N_base ||_2 in the weighted metric for each p in problems.

    In the sqrt(w)-symmetrised frame N_1 is S_1^{-1}, block diagonal over the
    modes, so each difference D is symmetric and its norm is its largest
    absolute eigenvalue.  Each mode of each problem runs its own Lanczos
    process on its block, with full reorthogonalisation, all in lockstep:
    solving each block's vector with its problem's factor and with the
    base's is one step of every block.  Of the problems, only their factors
    are kept, so that they may be built as they are read.  A block leaves,
    with its factor columns and basis rows, once no Ritz value theta of it
    can reach (|theta| + residual) beyond its problem's largest |theta| so
    far by more than rounding, or its Krylov space fills it; a problem's
    norm is that |theta| once all its blocks have left.  Equal S_1 bands
    give exactly 0.
    """
    # the factors raise on a degree-1 harmonic obstruction, as N itself does
    factors = [p._factors for p in problems]
    if not factors:
        return []
    base_factor = base._factors
    n_modes, n = base.S1.shape[1:]
    owner = np.repeat(np.arange(len(factors)), n_modes)  # each live block's problem
    mode = np.tile(np.arange(n_modes), len(factors))  # and its mode
    # the live blocks' factor columns, the problems' then the base's, joined
    # node by node, as they are stored, axes (band, node, block), once a
    # block has left
    F: Optional[np.ndarray] = None
    top = np.zeros(len(factors))
    # the basis, one (live block, node) array per step
    V = [np.full((len(owner), n), 1.0 / math.sqrt(n))]
    alpha: List[np.ndarray] = []
    beta: List[np.ndarray] = []
    for k in range(1, n + 1):
        # the right-hand sides, the problems' blocks then the base's
        m = len(owner)
        x = np.concatenate([V[-1].T, V[-1].T], axis=1)
        if F is None:
            # every block live: each problem's factor in place on its own
            # columns, and the base's on all of theirs at once, over axes
            # (problem, mode)
            for p, factor in enumerate(factors):
                _band_solve(factor, x[:, p * n_modes:(p + 1) * n_modes])
            _band_solve(base_factor, x[:, m:].reshape(n, len(factors), n_modes, copy=False))
        else:
            _band_solve(F, x)
        w = np.subtract(x[:, :m].T, x[:, m:].T, out=np.empty((m, n)))
        del x
        alpha.append(np.einsum("mn,mn->m", V[-1], w))
        basis = np.stack(V)
        for _ in range(2):
            w -= np.einsum("km,kmn->mn", np.einsum("kmn,mn->km", basis, w), basis)
        beta.append(np.linalg.norm(w, axis=1))
        # each block's tridiagonal; eigh reads its lower triangle
        T = np.stack(alpha, axis=1)[:, :, None] * np.eye(k)
        T[:, 1:, :-1] += np.stack(beta, axis=1)[:, :-1, None] * np.eye(k - 1)
        theta, U = np.linalg.eigh(T)
        np.maximum.at(top, owner, np.abs(theta).max(axis=1))
        reach = (np.abs(theta) + beta[-1][:, None] * np.abs(U[:, -1, :])).max(axis=1)
        live = reach > top[owner] * (1.0 + 1e-14)
        if k == n or not live.any():
            return [float(t) for t in top]
        if not live.all():
            owner, mode, w = owner[live], mode[live], w[live]
            F = np.concatenate([f[:, :, mode[owner == p]] for p, f in enumerate(factors)]
                               + [base_factor[:, :, mode]], axis=2)
            V, alpha, beta = ([a[live] for a in seq] for seq in (V, alpha, beta))
        # a live block's residual is above 0, or its reach would be its |theta|
        V.append(w / beta[-1][:, None])


def family_continuity(
    base: NeumannProblem,
    profile: Callable,
    eps_list: Sequence[float],
) -> Dict:
    """||N_eps - N_0|| for a one-parameter deformation P_eps = (1+eps a) P
    of the undeformed problem ``base``, on its grid and harmonic cut.

    Returns per-eps operator norms, the fitted log-log slope, and the
    harmonic dimensions (expected empty at degree 1 for all tested eps).
    """
    grid = base.grid
    rho = grid.rho()
    amax = float(np.max(np.abs(np.asarray(profile(rho), dtype=float))))
    if any(abs(eps) * amax >= 1.0 for eps in eps_list):
        raise ValueError("|eps| * max|a| must stay below 1")
    h_dims: List[int] = []

    def deformed():
        # one problem at a time, so that only its factor outlives it
        for eps in eps_list:
            prob = NeumannProblem(grid, eps=eps, profile=profile, harmonic_tol=base.harmonic_tol)
            h_dims.append(prob.harmonic_dim(1))
            yield prob

    diffs = _norm_diffs(deformed(), base)
    eps_arr = np.abs(np.asarray(eps_list, dtype=float))
    slope = float("nan")
    good = [d > 0 and e > 0 for d, e in zip(diffs, eps_arr)]
    if sum(good) >= 2:
        x = np.log(eps_arr[good])
        y = np.log(np.asarray(diffs)[good])
        slope = float(np.polyfit(x, y, 1)[0])
    return {
        "eps": [float(e) for e in eps_list],
        "norm_diffs": [float(d) for d in diffs],
        "fitted_slope": slope,
        "harmonic_dims_deg1": h_dims,
        "max_profile": amax,
    }


# ---------------------------------------------------------------------------
# aggregate report (drives the CLI hodge command)

# the most nodes (fields times n_theta * n_r) in one stack of dbar_report's
# trial fields: each stack holds fields of one degree and is applied on its
# own, so that it bounds the memory that the trials take whatever their
# number; 8 fields at 64 x 64, 2 at 128 x 128
_TRIAL_BLOCK_NODES = 2**15


def _trial_residuals(problem: NeumannProblem, phi: np.ndarray) -> List[np.ndarray]:
    """Per field of a stack phi of one degree: the identity residual
    ||box N phi + pi phi - phi|| / ||phi||; the larger of ||N pi phi|| and
    ||pi N phi||; and the worst defect of hodge_split, the larger of its
    completeness relative to ||phi|| (the identity residual, as its nonzero
    pieces are pi phi and box N phi) and |<pi phi, box N phi>| / ||phi||^2
    (its other inner products are with its zero piece)."""
    def norms(stack):
        return np.array([problem.norm(v) for v in stack])

    # each stack is released once its norms and inner products are taken, so
    # that besides phi at most two stacks outlive an operator's call
    n_phi = problem.apply_N(phi)
    pi_n_phi = norms(problem.apply_pi(n_phi))
    exact = problem.apply_box(n_phi)
    del n_phi
    harm = problem.apply_pi(phi)
    ip = [abs(problem.inner(x, y)) for x, y in zip(harm, exact)]
    # box N phi + pi phi - phi, in place
    exact += harm
    exact -= phi
    size = norms(phi)
    identity = norms(exact) / size
    del exact
    # pi is zero at degree 1, and so is N pi phi
    n_harm = harm if problem.degree(phi) else problem.apply_N(harm)
    npi = np.maximum(norms(n_harm), pi_n_phi)
    return [identity, npi, np.maximum(identity, np.array(ip) / size**2)]


def dbar_report(
    rho0: float = 0.5,
    n_theta: int = 64,
    n_r: int = 64,
    trials: int = 50,
    seed: int = 0,
    include_spectra: bool = False,
) -> Dict:
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    grid = AnnulusGrid(rho0, n_theta, n_r)
    check_trials(trials, (n_theta, n_r))
    check_eigen_work(n_theta, n_r, include_spectra)
    problem = NeumannProblem(grid)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    # the identity, N pi and orthogonality residuals; the fields are drawn in
    # trial order and wait by degree until block fields of one degree, or
    # after the last draw all that wait, are applied as one stack
    worst = [0.0, 0.0, 0.0]
    block = max(1, _TRIAL_BLOCK_NODES // (n_theta * n_r))
    waiting: Tuple[List, List] = ([], [])
    for trial in range(trials):
        deg = int(rng.integers(0, 2))
        waiting[deg].append(problem.random_form(deg, rng))
        for d, values in enumerate(waiting):
            if values and (len(values) == block or trial == trials - 1):
                stack = np.stack(values)
                values.clear()
                per_trial = _trial_residuals(problem, stack)
                worst = [max(w, float(r.max())) for w, r in zip(worst, per_trial)]
    worst_identity, worst_npi, worst_ortho = worst
    f = problem.sample(1, np.conj)
    u = solve_dbar(problem, f)
    oracle = solve_dbar_lstsq(problem, f)
    solve_err = problem.norm(u - oracle) / problem.norm(oracle)
    pu_err = problem.norm(problem.apply_P(u) - f) / problem.norm(f)
    # the rest of the report needs none of the fields
    del stack, f, u, oracle
    estimates = basic_estimate_report(problem, trials=min(trials, 25), seed=seed)
    family = family_continuity(
        problem, lambda r: np.ones_like(r), [1e-1, 1e-2, 1e-3]
    )
    out = {
        "grid": {"rho0": rho0, "n_theta": n_theta, "n_r": n_r},
        "seed": seed,
        "trials": trials,
        "harmonic_dim_deg1": problem.harmonic_dim(1),
        "smallest_eig_deg1": problem.smallest_positive_eigenvalue(),
        "identity_residual": worst_identity,
        "n_pi_residual": worst_npi,
        "hodge_orthogonality": worst_ortho,
        "solve_dbar_vs_lstsq": solve_err,
        "solve_dbar_residual": pu_err,
        "basic_estimate": estimates,
        "family_rescaling": family,
    }
    if include_spectra:
        out["spectra_deg1"] = {
            str(int(m)): [float(x) for x in problem.spectrum(i)]
            for i, m in enumerate(problem.modes1)
        }
    return out
