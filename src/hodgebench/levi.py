"""Boundary-point classification, Levi forms and q-convexity.

Classification follows the intersection criterion: a boundary point is
elliptic exactly when rho(L_x) meets conj(rho(L_x)) in a direction that is
transverse to the boundary.  At non-elliptic points the Levi form is the
mu-valued Hermitian bracket form -i[rho(u), conj(rho(v))], computed here by
three routes that share the dr(nu)=1 normalization:

* generic       -- adapted frame, exact brackets, quotient projection;
* complex-hessian -- the Wirtinger Hessian of r restricted to the CR kernel;
* poisson-blocks  -- the three block formulas of the holomorphic Poisson case.

Classification and the generic-route Levi forms over many points share one
walk, one anchor evaluation and one SVD per point; the Levi tail, from
adapted frame to signature, is stacked over a block's non-elliptic points
and serves the one-point functions as a stack of one.  All symbolic work is
exact; numbers appear only at point evaluation.  The boundary samplers take
the normal quantile from a port of Cephes ndtri (Moshier, Cephes
Mathematical Library, 1989), bit-equal to scipy.special.ndtri on the
samplers' inputs, so the package imports numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebroids import AlgebroidSpec, sigma_contract
from .calculus import VectorFieldExpr, lie_bracket
from .scalars import PointBatch, ScalarExpr, const, eval_table

__all__ = [
    "BoundaryData",
    "Classification",
    "AdaptedFrame",
    "LeviReport",
    "ConvexityVerdict",
    "classify_point",
    "classify_points",
    "adapted_frame",
    "levi_form_generic",
    "levi_forms_generic",
    "levi_form_complex_hessian",
    "levi_form_poisson",
    "eigen_signature",
    "q_convex_set",
    "gc_ellipticity_via_bivector",
    "sphere_lattice",
    "mu_component",
    "levi_from_cr_fields",
    "cr_kernel_basis",
]


class ClassificationInconsistency(RuntimeError):
    pass


class BoundaryData:
    """A defining function r (negative inside, zero on the boundary) plus
    the tolerances used by classification and signature counting."""

    def __init__(
        self,
        r: ScalarExpr,
        rank_tol: float = 1e-8,
        eig_zero_tol: float = 1e-8,
        boundary_tol: float = 1e-8,
    ):
        self.r = r
        self.chart = r.chart
        self.rank_tol = rank_tol
        self.eig_zero_tol = eig_zero_tol
        self.boundary_tol = boundary_tol
        self.grad = [r.diff(i) for i in range(self.chart.dim)]
        self.hess = [
            [self.grad[i].diff(j) for j in range(self.chart.dim)]
            for i in range(self.chart.dim)
        ]

    def grad_at(self, point) -> np.ndarray:
        g = self.grad_values([point])[0]
        if np.linalg.norm(g) <= self.rank_tol:
            raise ValueError(_DEGENERATE)
        return g

    def grad_values(self, points) -> np.ndarray:
        """(N, m) gradient of r over a batch of points."""
        return eval_table(self.grad, points)

    def check_on_boundary(self, point):
        val = self.r.eval(point)
        if not abs(val) <= self.boundary_tol:
            raise _off_boundary(val)


_NOT_ELLIPTIC = "algebroid is not elliptic at the point"
_DEGENERATE = "defining function is degenerate at the point (|dr| ~ 0)"

# Points are evaluated in blocks of this many, which bounds the memory of the
# stacked per-point arrays (anchors, jacobians) whatever the sample count.
_BLOCK = 256


def _off_boundary(val) -> ValueError:
    return ValueError(f"point is not on the boundary (r = {complex(val)})")


@dataclass(frozen=True)
class Classification:
    elliptic: bool
    margin: float

    @property
    def label(self) -> str:
        return "Elliptic" if self.elliptic else "NonElliptic"


@dataclass(frozen=True)
class AdaptedFrame:
    """Constant-coefficient data of the frame change at a point.

    Rows are with respect to the original frame: row i of cr_rows gives the
    section whose tangency-corrected field realizes the i-th CR direction;
    pivot is the index of the transverse section.
    """

    pivot: int
    cr_rows: np.ndarray  # (l-1, l) complex
    transverse_scale: complex  # w_l tilde = scale * w_pivot, dr(rho) = 1 at x


@dataclass(frozen=True)
class LeviReport:
    point: tuple
    classification: Classification
    levi: Optional[np.ndarray]
    signature: Optional[Tuple[int, int, int]]
    route: str
    hermitian_defect: float = 0.0


@dataclass(frozen=True)
class ConvexityVerdict:
    q_set: frozenset
    rank: int
    reports: tuple
    witnesses: dict  # q -> index of a sampled point witnessing failure
    sample_note: str = "certified on the sample only"

    def passes(self, q: int) -> bool:
        return q in self.q_set


# ---------------------------------------------------------------------------
# classification, and the one walk over boundary samples


def _anchor_svd(A: np.ndarray, rel_tol: float):
    """Ellipticity flags and orthonormal bases of col(A_i) cap col(conj(A_i))
    in C^m for an (N, m, l) stack of anchor matrices.

    Both come from one stacked SVD of [A, -conj(A)]: it is [A, conj(A)]
    times the unitary diag(1, -1), so its m-th relative singular value is
    the margin of is_elliptic_at.  The bases take a second SVD per group of
    equal null-space size; LAPACK sees the same matrices as it would one by
    one.
    """
    n, m, l = A.shape
    _, s, vh = np.linalg.svd(np.concatenate([A, -A.conj()], axis=2))
    flags = np.zeros(n, dtype=bool)
    if s.shape[1] >= m:
        with np.errstate(invalid="ignore", divide="ignore"):
            flags = (s[:, m - 1] / s[:, 0] >= rel_tol) & (s[:, 0] != 0)
    bases = [np.zeros((m, 0))] * n
    null = np.ones((n, vh.shape[1]), dtype=bool)
    null[:, : s.shape[1]] = s <= rel_tol * s[:, :1]
    groups: Dict[int, list] = {}
    for i in range(n):
        if s[i, 0] == 0 or not null[i].any():
            continue
        vecs = A[i] @ vh[i].conj().T[:, np.flatnonzero(null[i])][:l]
        groups.setdefault(vecs.shape[1], []).append((i, vecs))
    for members in groups.values():
        q, s2, _ = np.linalg.svd(np.stack([v for _, v in members]), full_matrices=False)
        for g, (i, _) in enumerate(members):
            bases[i] = q[g][:, s2[g] > rel_tol * max(s2[g, 0], 1e-300)]
    return flags, bases


def _walk(alg: AlgebroidSpec, bd: BoundaryData, points, levi=False, cr_rows=None):
    """Each point's Classification, in order; with ``levi``, each point's
    LeviReport instead (generic route at non-elliptic points, no form at
    elliptic ones).

    Per block of points, r, the anchors and dr are evaluated once and the
    stacked anchors take one SVD; the Levi forms are computed as one stack
    over the block's non-elliptic points.  Each point is checked for its
    boundary residual, ellipticity, |dr| degeneracy, then its Levi form; the
    first failing point's error is raised after the points before it are
    yielded.  Past an off-boundary point only r is evaluated.
    """
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        X = X.reshape(0, alg.chart.dim)
    if X.ndim != 2 or X.shape[1] != alg.chart.dim:
        raise ValueError("point dimension mismatch")
    route = None
    for start in range(0, len(X), _BLOCK):
        batch = PointBatch(X[start : start + _BLOCK])
        r_vals = bd.r.eval_many(batch)
        off = np.flatnonzero(~(np.abs(r_vals) <= bd.boundary_tol))
        error = _off_boundary(r_vals[off[0]]) if off.size else None
        classes: List[Classification] = []
        if off.size:
            batch = PointBatch(batch.points[: off[0]])
        if len(batch):
            A = alg.anchor_matrices(batch)
            G = bd.grad_values(batch)
            flags, bases = _anchor_svd(A, bd.rank_tol)
            for i in range(len(batch)):
                g_norm = np.linalg.norm(G[i])
                if not flags[i] or g_norm <= bd.rank_tol:
                    error = ValueError(_DEGENERATE if flags[i] else _NOT_ELLIPTIC)
                    break
                if bases[i].shape[1] == 0:
                    classes.append(Classification(False, 0.0))
                    continue
                # max over unit v in the intersection of |dr(v)| / |dr|
                pairing = bases[i].conj().T @ G[i].conj()
                margin = float(np.linalg.norm(pairing) / g_norm)
                classes.append(Classification(margin >= bd.rank_tol, margin))
        idx = [i for i, c in enumerate(classes) if levi and not c.elliptic]
        if idx:
            route = route or _GenericRoute(alg, bd)
            dA, P, dP = route.values(PointBatch(batch.points[idx]))
            B, form_error = route.forms(A.transpose(0, 2, 1)[idx], dA, P, dP, cr_rows)
            at, cls_at = [tuple(points[start + i]) for i in idx], [classes[i] for i in idx]
            reports, finish_error = _finish(at, cls_at, B, bd.eig_zero_tol)
            levi_error = finish_error or form_error
        j = 0
        for i, cls in enumerate(classes):
            if not levi:
                yield cls
            elif cls.elliptic:
                yield LeviReport(tuple(points[start + i]), cls, None, None, "none")
            elif j < len(reports):
                yield reports[j]
                j += 1
            else:
                raise levi_error
        if error is not None:
            raise error


def classify_point(
    alg: AlgebroidSpec, bd: BoundaryData, point
) -> Classification:
    """Elliptic iff rho(L) cap conj(rho(L)) carries a direction with a
    nonzero dr-pairing; the margin is the best normalized pairing."""
    return classify_points(alg, bd, [point])[0]


def classify_points(
    alg: AlgebroidSpec, bd: BoundaryData, points
) -> List[Classification]:
    """classify_point at each point, evaluating the anchors once per point.

    Raises what classify_point raises at the first point that fails a check.
    """
    return list(_walk(alg, bd, points))


# ---------------------------------------------------------------------------
# adapted frames


def adapted_frame(alg: AlgebroidSpec, bd: BoundaryData, point) -> AdaptedFrame:
    bd.check_on_boundary(point)
    batch = PointBatch([point])
    P = eval_table([dr_pairing_expr(alg, bd, j) for j in range(alg.rank)], batch)
    A = alg.anchor_matrices(batch).transpose(0, 2, 1)
    pivots, rows, _, error = _adapted_frames(P, A, bd.rank_tol)
    if error:
        raise error
    return AdaptedFrame(int(pivots[0]), rows[0], 1.0 / P[0, pivots[0]])


def _adapted_frames(P: np.ndarray, A: np.ndarray, rank_tol: float, cr_rows=None):
    """Pivots (N,) and CR rows (N, k, l) of the adapted frames at N points
    with pairings P (N, l) = dr(rho(w_j)) and anchor rows A (N, l, m): the
    pivot has the largest pairing, the CR rows are the other unit rows or
    cr_rows.  Also the number of points before the first whose anchors are
    all tangent, and that point's error (None if there is none)."""
    n, l = P.shape
    pivots = np.argmax(np.abs(P), axis=1)
    top = np.abs(P[np.arange(n), pivots])
    ok = _leading(top <= rank_tol * np.maximum(np.linalg.norm(A, axis=(1, 2)), 1.0))
    error = None if ok == n else ValueError(
        "all frame anchors are tangent at the point (ellipticity violated)"
    )
    if cr_rows is None:
        others = np.arange(l) != pivots[:, None]
        rows = np.broadcast_to(np.eye(l, dtype=complex), (n, l, l))[others]
        return pivots, rows.reshape(n, l - 1, l), ok, error
    rows = np.asarray(cr_rows, dtype=complex)
    return pivots, np.broadcast_to(rows, (n, *rows.shape)), ok, error


def _leading(bad: np.ndarray) -> int:
    """The number of stacked points before the first flagged one."""
    return int(np.argmax(bad)) if bad.any() else len(bad)


def dr_pairing_expr(alg: AlgebroidSpec, bd: BoundaryData, j: int) -> ScalarExpr:
    """dr(rho(w_j)) as an exact expression."""
    total = const(alg.chart, 0)
    for t in range(alg.chart.dim):
        c = alg.anchors[j].components[t]
        if not c.is_zero:
            total = total + bd.grad[t] * c
    return total


def adapted_sections(alg: AlgebroidSpec, bd: BoundaryData, frame: AdaptedFrame):
    """Symbolic tangency-corrected CR fields and the transverse field.

    Used by the exact (slow) route and by independence tests; the i-th CR
    section is sum_j row[i][j] w_j minus the pivot correction, so its anchor
    annihilates dr identically.
    """
    chart = alg.chart
    P = [dr_pairing_expr(alg, bd, j) for j in range(alg.rank)]
    piv = frame.pivot
    cr_fields = []
    for row in frame.cr_rows:
        vec = VectorFieldExpr.zero(chart)
        pair = const(chart, 0)
        for j, cj in enumerate(row):
            if cj == 0:
                continue
            vec = vec + alg.anchors[j].scale(const(chart, complex(cj)))
            pair = pair + const(chart, complex(cj)) * P[j]
        corrected = vec - alg.anchors[piv].scale(pair / P[piv])
        cr_fields.append(corrected)
    transverse = alg.anchors[piv].scale(const(chart, complex(frame.transverse_scale)))
    return cr_fields, transverse


# ---------------------------------------------------------------------------
# the mu-projection


def mu_component(
    span: np.ndarray, g: np.ndarray, value: np.ndarray, rel_tol: float = 1e-8
) -> complex:
    """Coefficient of g in value modulo span, via orthogonal projection."""
    u, u_g, _, error = _mu_functionals(span[None], g[None], rel_tol)
    if error:
        raise error
    return complex(np.vdot(u[0], value) / u_g[0])


def _mu_functionals(span: np.ndarray, g: np.ndarray, rel_tol: float):
    """u (N, m) and vdot(u, g) (N,), mu_component(span, g, value) being
    vdot(u, value) / vdot(u, g), for spans (N, m, s) and generators g (N, m);
    also the points before the first g in its span, and that one's error."""
    u = g
    if span.shape[2]:
        q, s, _ = np.linalg.svd(span, full_matrices=False)
        # a zero span keeps every column, as its rank is unknown
        q = q * ((s > rel_tol * s[:, :1]) | (s[:, :1] <= 0))[:, None, :]
        u = g - (q @ (q.conj().transpose(0, 2, 1) @ g[..., None]))[..., 0]
    ok = _leading(np.linalg.norm(u, axis=1) <= rel_tol * np.linalg.norm(g, axis=1))
    error = None if ok == len(g) else ClassificationInconsistency(
        "mu generator lies in the CR span; the point classifies as elliptic"
    )
    return u, np.einsum("nm,nm->n", u.conj(), g), ok, error


def levi_from_cr_fields(
    bd: BoundaryData,
    cr_fields: Sequence[VectorFieldExpr],
    transverse: VectorFieldExpr,
    point,
    projector: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact-bracket Levi matrix from explicit CR fields.

    The fields must be tangent along the boundary near the point and the
    transverse field must satisfy dr(rho) = 1 at the point.  A custom
    projection functional (complex m-vector psi with psi . span = 0) may be
    supplied to exercise quotient-independence.
    """
    k = len(cr_fields)
    vals = [np.array(f.eval(point)) for f in cr_fields]
    t_val = np.array(transverse.eval(point))
    g = 1j * (t_val.conj() - t_val)
    span = (
        np.array(vals + [v.conj() for v in vals]).T
        if k
        else np.zeros((len(t_val), 0))
    )
    B = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            br = lie_bracket(cr_fields[i], cr_fields[j].conj())
            cval = -1j * np.array(br.eval(point))
            if projector is not None:
                B[i, j] = complex(
                    np.dot(projector, cval) / np.dot(projector, g)
                )
            else:
                B[i, j] = mu_component(span, g, cval, bd.rank_tol)
    return B


# ---------------------------------------------------------------------------
# generic route (cached symbolic jacobians, exact chain rule at the point)


def _jacobian(exprs: Sequence[ScalarExpr], chart) -> List[List[ScalarExpr]]:
    """[[d e / d x_t for each t] for each e]; the vanishing entries, nearly all
    of an anchor jacobian, are one shared zero."""
    zero = const(chart, 0)
    return [
        [zero if (d := e.diff(t)).is_zero else d for t in range(chart.dim)] for e in exprs
    ]


class _GenericRoute:
    def __init__(self, alg: AlgebroidSpec, bd: BoundaryData):
        self.bd = bd
        self.P = [dr_pairing_expr(alg, bd, j) for j in range(alg.rank)]
        self.dP = _jacobian(self.P, alg.chart)
        self.dA = [_jacobian(a.components, alg.chart) for a in alg.anchors]

    def values(self, batch: PointBatch):
        """forms' dA, P and dP at every point of a batch, stacked."""
        return (
            eval_table(self.dA, batch),
            eval_table(self.P, batch),
            eval_table(self.dP, batch),
        )

    def forms(self, A, dA, P, dP, cr_rows=None):
        """Levi matrices (N', k, k) from the anchor rows A (N, l, m), their
        jacobians dA (N, l, m_comp, m_dir), P (N, l) and dP (N, l, m) at N
        points, N' counting those before the first with a flat frame or mu
        generator in the CR span; that point's error (or None) comes too."""
        pivots, rows, n, error = _adapted_frames(P, A, self.bd.rank_tol, cr_rows)
        rows = rows[:n]
        piv = (np.arange(n), pivots[:n])
        P_piv = P[piv][:, None, None]
        # tangency-corrected section values v (n, k, m) and jacobians dv
        num, dnum = rows @ P[:n, :, None], rows @ dP[:n]
        q = num / P_piv
        # np.power, not ** 2: an array's ** 2 is numpy's vectorised square, which
        # rounds differently
        dq = (dnum * P_piv - num * dP[piv][:, None]) / np.power(P_piv, 2)
        v = rows @ A[:n] - q * A[piv][:, None]
        dv = np.einsum("nkl,nlab->nkab", rows, dA[:n]) - q[..., None] * dA[piv][:, None]
        dv -= A[piv][:, None, :, None] * dq[:, :, None]
        t = (1.0 / P[piv])[:, None] * A[piv]
        g = 1j * (t.conj() - t)
        span = np.concatenate([v, v.conj()], axis=1).transpose(0, 2, 1)
        # span holds the points before the first flat frame: a mu failure comes first
        u, u_g, n, mu_error = _mu_functionals(span, g, self.bd.rank_tol)
        # [v_i, conj(v_j)] = conj(S_ij) - S_ji, S_ij^a = sum_b conj(v_i^b) d_b v_j^a
        S = np.einsum("nib,njab->nija", v[:n].conj(), dv[:n])
        br = S.conj() - S.transpose(0, 2, 1, 3)
        B = -1j * np.einsum("na,nija->nij", u[:n].conj(), br)
        return B / u_g[:n, None, None], mu_error or error


def levi_form_generic(
    alg: AlgebroidSpec,
    bd: BoundaryData,
    point,
    cr_rows: Optional[np.ndarray] = None,
    exact: bool = False,
) -> LeviReport:
    """Levi form by the adapted-frame route.

    With ``exact=True`` the brackets are computed fully symbolically before
    evaluation (slow; used for cross-validation).  ``cr_rows`` overrides the
    CR basis (constant coefficients against the original frame) so different
    routes can share a basis.
    """
    if not exact:
        rep = next(_walk(alg, bd, [point], levi=True, cr_rows=cr_rows))
        _require_non_elliptic(rep.classification)
        return rep
    cls = classify_point(alg, bd, point)
    _require_non_elliptic(cls)
    frame = adapted_frame(alg, bd, point)
    if cr_rows is not None:
        frame = replace(frame, cr_rows=np.asarray(cr_rows, dtype=complex))
    fields, transverse = adapted_sections(alg, bd, frame)
    B = levi_from_cr_fields(bd, fields, transverse, point)
    reports, error = _finish([tuple(point)], [cls], B[None], bd.eig_zero_tol)
    if error:
        raise error
    return reports[0]


def levi_forms_generic(
    alg: AlgebroidSpec, bd: BoundaryData, points
) -> List[LeviReport]:
    """levi_form_generic (fast route) at each point, from one walk.

    Raises what the per-point loop raises at the first point that fails.
    """
    reports = []
    for rep in _walk(alg, bd, points, levi=True):
        _require_non_elliptic(rep.classification)
        reports.append(rep)
    return reports


def _require_non_elliptic(cls: Classification):
    if cls.elliptic:
        raise ValueError(
            "levi_form_generic requires a non-elliptic point "
            f"(margin {cls.margin:.3e})"
        )


def _finish(points, classes, B: np.ndarray, eig_zero_tol: float):
    """Generic-route LeviReports (Hermitian part, relative Hermitian defect,
    signature) from Levi matrices B (N, k, k), up to the first whose defect
    exceeds 1e-6, and that point's error (None if there is none)."""
    scale = np.linalg.norm(B, axis=(1, 2))
    defect = np.linalg.norm(B - B.conj().transpose(0, 2, 1), axis=(1, 2))
    defect = np.divide(defect, scale, out=np.zeros_like(scale), where=scale > 0)
    n = _leading(defect > 1e-6)
    error = None if n == len(B) else ClassificationInconsistency(
        f"Levi matrix is not Hermitian (relative defect {defect[n]:.3e})"
    )
    H = 0.5 * (B[:n] + B[:n].conj().transpose(0, 2, 1))
    done = zip(points, classes, H, _signatures(H, eig_zero_tol), defect[:n].tolist())
    return [LeviReport(p, c, h, sig, "generic", d) for p, c, h, sig, d in done], error


# ---------------------------------------------------------------------------
# complex-Hessian route


def wirtinger_hessian(bd: BoundaryData, point) -> np.ndarray:
    """H_ij = d^2 r / dz^i dzbar^j at the point (chart must be paired)."""
    chart = bd.chart
    n = chart.n_complex
    H = np.zeros((n, n), dtype=complex)
    for i in range(n):
        ri, ii = chart.complex_pairs[i]
        for j in range(n):
            rj, ij = chart.complex_pairs[j]
            # d/dz^i = (d_ri - i d_ii)/2 applied to d r/dzbar^j = (d_rj + i d_ij) r /2
            h = 0.25 * (
                bd.hess[ri][rj].eval(point)
                + 1j * bd.hess[ri][ij].eval(point)
                - 1j * bd.hess[ii][rj].eval(point)
                + bd.hess[ii][ij].eval(point)
            )
            H[i, j] = h
    return H


def antiholomorphic_gradient(bd: BoundaryData, point) -> np.ndarray:
    """(dr/dzbar^1 .. dr/dzbar^n) at the point."""
    chart = bd.chart
    out = []
    for k in range(chart.n_complex):
        ri, ii = chart.complex_pairs[k]
        out.append(0.5 * (bd.grad[ri].eval(point) + 1j * bd.grad[ii].eval(point)))
    return np.array(out)


def cr_kernel_basis(bd: BoundaryData, point) -> np.ndarray:
    """Orthonormal basis (rows) of {u in T^{0,1} : sum u^i dr/dzbar^i = 0}."""
    w = antiholomorphic_gradient(bd, point)
    _, s, vh = np.linalg.svd(w.reshape(1, -1))
    return vh.conj().T[:, 1:].T


def levi_form_complex_hessian(
    bd: BoundaryData, point, cr_basis: np.ndarray
) -> np.ndarray:
    """Hessian route for L = T^{0,1}: L(u,v) = sum H_ij conj(v^i) u^j on CR.

    Rows of cr_basis are antiholomorphic component vectors; they must lie in
    the CR kernel at the point.  The result carries the dr(nu)=1
    normalization of the given r.
    """
    bd.check_on_boundary(point)
    if not bd.chart.complex_pairs:
        raise ValueError("complex-Hessian route needs a chart with complex pairing")
    basis = np.asarray(cr_basis, dtype=complex)
    w = antiholomorphic_gradient(bd, point)
    residual = np.abs(basis @ w)
    scale = np.linalg.norm(w) * max(np.linalg.norm(basis, axis=1).max(), 1e-300)
    if residual.max() > 1e-8 * max(scale, 1e-300):
        raise ValueError("cr_basis is not contained in the CR kernel")
    return _hessian_form(wirtinger_hessian(bd, point), basis)


def _hessian_form(H: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """L(u_a, u_b) = sum H_ij conj(u_b^i) u_a^j over the rows u of basis."""
    k = basis.shape[0]
    B = np.zeros((k, k), dtype=complex)
    for a in range(k):
        for b in range(k):
            B[a, b] = np.einsum("ij,i,j->", H, basis[b].conj(), basis[a])
    return B


# ---------------------------------------------------------------------------
# holomorphic Poisson route


def _hamiltonian_of_r(bd: BoundaryData, sigma: dict):
    """X_r = sigma(dr^{1,0}), with dr^{1,0} = (d_x - i d_y) r / 2 per pair."""
    chart = bd.chart
    dr_holo = [
        const(chart, 0.5) * (bd.grad[ri] - const(chart, 1j) * bd.grad[ii])
        for (ri, ii) in chart.complex_pairs
    ]
    return sigma_contract(chart, sigma, dr_holo)


def levi_form_poisson(
    bd: BoundaryData,
    sigma: dict,
    point,
    cr_t_basis: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Block Levi matrix for L = T^{0,1} + graph(sigma) at a non-elliptic point.

    Returns (matrix, cr_t_basis); the basis ordering is (CR cap T^{0,1}
    directions, then dz^1..dz^n).  Requires X_r = sigma(dr^{1,0}) to vanish
    at the point, which is the non-ellipticity condition.
    """
    bd.check_on_boundary(point)
    chart = bd.chart
    n = chart.n_complex
    if n == 0:
        raise ValueError("poisson route needs a chart with complex pairing")
    X_r = _hamiltonian_of_r(bd, sigma)
    x_val = np.array(X_r.eval(point))
    g = bd.grad_at(point)
    if np.linalg.norm(x_val) > bd.rank_tol * max(np.linalg.norm(g), 1.0):
        raise ValueError(
            "X_r does not vanish at the point; the point is elliptic"
        )
    if cr_t_basis is None:
        cr_t_basis = cr_kernel_basis(bd, point)
    basis = np.asarray(cr_t_basis, dtype=complex)
    k = basis.shape[0]
    H = wirtinger_hessian(bd, point)
    size = k + n
    B = np.zeros((size, size), dtype=complex)
    B[:k, :k] = _hessian_form(H, basis)  # T-block
    # sigma values sig(dz^j) as holomorphic component matrices
    unit = [
        [const(chart, 1) if i == j else const(chart, 0) for i in range(n)]
        for j in range(n)
    ]
    sig_vals = np.zeros((n, n), dtype=complex)  # sig_vals[j][a] = (sigma dz^j)^{z^a}
    for j in range(n):
        vec = sigma_contract(chart, sigma, unit[j])
        for a in range(n):
            ri, ii = chart.complex_pairs[a]
            sig_vals[j, a] = (
                vec.components[ri].eval(point)
                + 1j * vec.components[ii].eval(point)
            )
    # cross block: L(alpha, u) = alpha([X_r, conj(u)]); for the constant
    # extension of conj(u), [X_r, C] = -(grad_C X_r) at a zero of X_r.
    dXr = np.zeros((n, n), dtype=complex)  # dXr[k][j] = d(X_r^{z^k})/d z^j
    for kk in range(n):
        ri, ii = chart.complex_pairs[kk]
        comp = X_r.components[ri] + const(chart, 1j) * X_r.components[ii]
        for j in range(n):
            rj, ij = chart.complex_pairs[j]
            d = 0.5 * (comp.diff(rj).eval(point) - 1j * comp.diff(ij).eval(point))
            dXr[kk, j] = d
    for a in range(k):
        ubar = basis[a].conj()  # holomorphic components of conj(u_a)
        bracket = -dXr @ ubar  # [X_r, conj(u_a)] in dz components
        for j in range(n):
            B[k + j, a] = bracket[j]
            B[a, k + j] = np.conj(bracket[j])
    # sigma-sigma block: L(alpha, beta) = H(sigma alpha, conj(sigma beta))
    for i in range(n):
        for j in range(n):
            B[k + i, k + j] = np.einsum(
                "ab,a,b->", H, sig_vals[i], sig_vals[j].conj()
            )
    return B, basis


# ---------------------------------------------------------------------------
# signatures and convexity


def eigen_signature(
    H: np.ndarray, eig_zero_tol: float = 1e-8
) -> Tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) with |lambda| <= tol * spectral radius zero."""
    return _signatures(np.asarray(H)[None], eig_zero_tol)[0]


def _signatures(H: np.ndarray, eig_zero_tol: float) -> List[Tuple[int, int, int]]:
    """eigen_signature of each matrix in an (N, k, k) Hermitian stack."""
    evals = np.linalg.eigvalsh(H)
    cut = eig_zero_tol * np.abs(evals).max(axis=1, initial=0.0)[:, None]
    n_pos, n_neg = (evals > cut).sum(axis=1), (evals < -cut).sum(axis=1)
    k = H.shape[2]
    return [(int(a), int(b), k - int(a) - int(b)) for a, b in zip(n_pos, n_neg)]


def _passes_q(signature, rank, q) -> bool:
    n_pos, n_neg, _ = signature
    return n_pos >= rank - q or n_neg >= q + 1


def q_convex_set(
    alg: AlgebroidSpec,
    bd: BoundaryData,
    samples: Sequence[Sequence[float]],
) -> ConvexityVerdict:
    """q-convexity verdict over sampled boundary points.

    q is in the q_set iff every sampled non-elliptic point has at least
    (rank - q) positive or at least (q + 1) negative Levi eigenvalues;
    elliptic samples pass unconditionally.  The verdict is certified on the
    sample only.
    """
    reports = tuple(_walk(alg, bd, samples, levi=True))
    l = alg.rank
    q_set = set()
    witnesses: Dict[int, int] = {}
    for q in range(l + 1):
        ok = True
        for idx, rep in enumerate(reports):
            if rep.signature is None:
                continue
            if not _passes_q(rep.signature, l, q):
                ok = False
                witnesses[q] = idx
                break
        if ok:
            q_set.add(q)
    return ConvexityVerdict(frozenset(q_set), l, reports, witnesses)


# ---------------------------------------------------------------------------
# generalized-complex shortcut


def gc_ellipticity_via_bivector(
    alg: AlgebroidSpec, bd: BoundaryData, point
) -> Classification:
    """Classification through pi_J: non-elliptic iff pi_J(dr) degenerates.

    Supported spec kinds: graph_two_form with invertible imaginary part
    (symplectic type, pi_J = omega^{-1}), antiholomorphic (complex type,
    pi_J = 0), and holomorphic_poisson (pi_J(dr) tracks X_r).
    """
    bd.check_on_boundary(point)
    kind = alg.meta.get("kind")
    g = bd.grad_at(point)
    gn = np.linalg.norm(g)
    if kind == "antiholomorphic" or (
        kind is None and alg.name.startswith("antiholomorphic")
    ):
        return Classification(False, 0.0)
    if kind == "graph_two_form":
        omega = alg.meta["omega"]
        m = alg.chart.dim
        W = np.zeros((m, m), dtype=complex)
        for (i, j), c in omega.table().items():
            W[i, j] = c.eval(point)
            W[j, i] = -W[i, j]
        W = W.imag  # pi_J = (Im omega)^{-1} for graph(B + i omega)
        try:
            v = np.linalg.solve(W, g.real)
        except np.linalg.LinAlgError:
            raise ValueError("two-form spec is not of generalized-complex type")
        margin = float(np.linalg.norm(v) / gn)
        return Classification(margin >= bd.rank_tol, margin)
    if kind == "holomorphic_poisson":
        xv = np.array(_hamiltonian_of_r(bd, alg.meta["sigma"]).eval(point))
        pi_dr = 2j * (xv - np.conj(xv))  # 2i X_r + conj(2i X_r), a real vector
        margin = float(np.linalg.norm(pi_dr) / gn)
        return Classification(margin >= bd.rank_tol, margin)
    raise ValueError("spec is not of generalized-complex type")


# ---------------------------------------------------------------------------
# deterministic boundary samplers


def _kronecker_alpha(dim: int) -> np.ndarray:
    # generalized golden-ratio sequence (Roberts' R_d construction)
    phi = 2.0
    for _ in range(64):
        phi = (1 + phi) ** (1.0 / (dim + 1))
    return np.array([(1.0 / phi) ** (i + 1) % 1.0 for i in range(dim)])


# Cephes ndtri.c: the rational approximations of the normal quantile on
# |y - 1/2| <= 1/2 - exp(-2) (P0/Q0) and on the tail 2 <= sqrt(-2 log y) < 8
# (P1/Q1); Q0 and Q1 omit their leading coefficient 1
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _polevl(x: np.ndarray, coef: Tuple[float, ...], monic: bool = False) -> np.ndarray:
    """Horner's rule as Cephes polevl (monic=False) and p1evl (monic=True)."""
    ans = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    # math.log is the C library's log, as in Cephes; numpy's vectorised log
    # differs from it in the last bit on some inputs
    return np.array(list(map(math.log, x.tolist())))


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """The standard normal quantile of y0 in [1e-12, 1 - 1e-12], bit for bit
    Cephes ndtri.  Cephes' third branch, sqrt(-2 log y) >= 8, needs
    y < exp(-32) ~ 1.3e-14 and so cannot run on this range; it is left out."""
    upper = y0 > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.empty_like(y)
    mid = y > _EXPM2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, monic=True))) * _S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x = (x - _libm_log(x) / x) - z * _polevl(z, _P1) / _polevl(z, _Q1, monic=True)
    out[tail] = np.where(upper[tail], x, -x)
    return out


def sphere_lattice(dim: int, count: int, radius: float = 1.0) -> np.ndarray:
    """Deterministic Fibonacci-type lattice on the sphere |x| = radius in R^dim:
    a Kronecker sequence in the unit cube, mapped to Gaussian coordinates by
    the Cephes ndtri port and normalised."""
    if dim < 2:
        raise ValueError("sphere needs dim >= 2")
    if dim == 2:
        ks = np.arange(count)
        theta = 2 * math.pi * ((ks * 0.6180339887498949) % 1.0)
        return radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    alpha = _kronecker_alpha(dim)
    ks = np.arange(1, count + 1).reshape(-1, 1)
    u = (0.5 + ks * alpha.reshape(1, -1)) % 1.0
    u = np.clip(u, 1e-12, 1 - 1e-12)
    z = _ndtri(u)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return radius * z
