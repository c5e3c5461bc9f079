"""Boundary-point classification, Levi forms and q-convexity.

Classification follows the intersection criterion: a boundary point is
elliptic exactly when rho(L_x) meets conj(rho(L_x)) in a direction that is
transverse to the boundary.  It runs in real arithmetic: for anchors A
(m x l) and the unitary U = [[I, iI], [-I, iI]] / sqrt(2),

    [A, -conj(A)] U = sqrt(2) [Re A, -Im A],

so ellipticity is read off the real m x 2l stack [Re A, -Im A], and its real
null vectors (a, b) give the real vectors Im A a + Re A b, which span
W = rho(L) cap R^m; W's complexification is rho(L) cap conj(rho(L)).  At
non-elliptic points the Levi form is the mu-valued Hermitian bracket form
-i[rho(u), conj(rho(v))], computed here by three routes that share the
dr(nu)=1 normalization:

* generic       -- adapted frame, exact brackets, quotient projection;
* complex-hessian -- the Wirtinger Hessian of r restricted to the CR kernel;
* poisson-blocks  -- the three block formulas of the holomorphic Poisson case.

Classification and the generic-route Levi forms over many points share one
walk and one anchor evaluation per point.  The classification, from anchors
to margins, and the Levi tail, from adapted frame to signature, are stacked
over a block of points; the one-point functions call them with a stack of
one.  The Hessian, Poisson-block and GC oracles take (N, m) stacks of points.
Every route checks points by one rule (|r| <= _BOUNDARY_TOL, then |dr| >
rank_tol).  All symbolic work is exact; numbers appear only at point evaluation.
The boundary samplers take the normal quantile from a port of Cephes ndtri
(Moshier, Cephes Mathematical Library, 1989), bit-equal to
scipy.special.ndtri on the samplers' inputs, so the package imports numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

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
    "levi_from_cr_fields",
    "cr_kernel_basis",
]


class ClassificationInconsistency(RuntimeError):
    pass


class BoundaryData:
    """A defining function r (negative inside, zero on the boundary) plus
    the tolerances used by classification and signature counting."""

    def __init__(self, r: ScalarExpr, rank_tol: float = 1e-8, eig_zero_tol: float = 1e-8):
        self.r = r
        self.chart = r.chart
        self.rank_tol = rank_tol
        self.eig_zero_tol = eig_zero_tol
        self.grad = [r.diff(i) for i in range(self.chart.dim)]

    @cached_property
    def hess(self) -> List[List[ScalarExpr]]:
        """The second derivatives of r, built on first read: only the
        Hessian and Poisson routes read them."""
        return [[g.diff(j) for j in range(self.chart.dim)] for g in self.grad]

    def grad_values(self, points) -> np.ndarray:
        """(N, m) gradient of r over a batch of points."""
        return eval_table(self.grad, points)


_NOT_ELLIPTIC = "algebroid is not elliptic at the point"
_DEGENERATE = "defining function is degenerate at the point (|dr| ~ 0)"

# Points are evaluated in blocks of at most this many, which bounds the memory
# of the stacked per-point arrays (anchors, jacobians) whatever the sample
# count.  The anchor jacobians grow as dim^3 per point, so a block holds
# min(_BLOCK, 2^20 // dim^3) points: 256 through dim 16, 32 at dim 32.
_BLOCK = 256

# A point is on the boundary when |r| is at most this.
_BOUNDARY_TOL = 1e-8


def _on_boundary(bd: BoundaryData, batch: PointBatch):
    """The points of a batch before the first off the boundary, dr at them
    (n, m), the mask of those with |dr| <= rank_tol, and the error of the
    point off the boundary (None if there is none)."""
    r_vals = bd.r.eval_many(batch)
    n = _leading(~(np.abs(r_vals) <= _BOUNDARY_TOL))
    error = None
    if n < len(batch):
        error = ValueError(f"point is not on the boundary (r = {complex(r_vals[n])})")
        batch = PointBatch(batch.points[:n])
    G = bd.grad_values(batch)
    return batch, G, np.linalg.norm(G, axis=1) <= bd.rank_tol, error


def _boundary_batch(bd: BoundaryData, points):
    """The points as a PointBatch and dr at them (N, m); raises the first
    failing point's error, off the boundary or |dr| degenerate."""
    batch, G, degenerate, error = _on_boundary(bd, PointBatch(points))
    if degenerate.any():
        raise ValueError(_DEGENERATE)
    if error:
        raise error
    return batch, G


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
    sample_note: ClassVar[str] = "certified on the sample only"


# ---------------------------------------------------------------------------
# classification, and the one walk over boundary samples


def _anchor_svd(A: np.ndarray, rel_tol: float):
    """Ellipticity flags (N,), orthogonal Q (N, m, m) and masks keep (N, m)
    for an (N, m, l) stack of anchors A: Q's kept columns are an orthonormal
    basis of W = rho(L) cap R^m, the others one of its complement.

    M = [Re A, -Im A] is [A, conj(A)] times a unitary over sqrt(2) (see the
    module docstring), so its rank at the cut rel_tol times its largest
    singular value, the anchors' scale, is m where is_elliptic_at passes, up
    to rounding at the cut.  One SVD of the vectors Im A a + Re A b over the
    null rows (a, b) of M's V gives Q, keeping a direction above the same
    cut: the vectors' own largest singular value is rounding noise where
    W = 0 but ker A is not.
    """
    n, m, l = A.shape
    _, s, vh = np.linalg.svd(np.concatenate([A.real, -A.imag], axis=2))
    cut = rel_tol * s[:, :1]
    rank = (s > cut).sum(axis=1)
    # s descends, so the null rows of each V are those past its rank; the
    # stack of them starts at the least rank
    V = (vh * (np.arange(2 * l) >= rank[:, None])[..., None])[:, rank.min() :]
    q, s2, _ = np.linalg.svd(np.concatenate([A.imag, A.real], axis=2) @ V.transpose(0, 2, 1))
    return rank >= m, q, np.pad(s2 > cut, ((0, 0), (0, m - s2.shape[1])))


def _walk(alg: AlgebroidSpec, bd: BoundaryData, points, levi=False, cr_rows=None):
    """Each point's Classification, in order; with ``levi``, each point's
    LeviReport instead (generic route at non-elliptic points, no form at
    elliptic ones).

    Per block of points, r, the anchors and dr are evaluated once, the
    stacked anchors give the flags and bases of _anchor_svd, and one
    contraction gives every margin; the Levi forms are computed as one stack
    over the block's non-elliptic points.  Each point is checked for its
    boundary residual, ellipticity, |dr| degeneracy, then its Levi form; the
    first failing point's error is raised after the points before it are
    yielded.  Past an off-boundary point only r is evaluated.  A report's
    point is its row of the points, as a tuple of Python floats.
    """
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        X = X.reshape(0, alg.chart.dim)
    if X.ndim != 2 or X.shape[1] != alg.chart.dim:
        raise ValueError("point dimension mismatch")
    route = None
    block = max(1, min(_BLOCK, 2**20 // alg.chart.dim**3))
    for start in range(0, len(X), block):
        batch, G, degenerate, error = _on_boundary(bd, PointBatch(X[start : start + block]))
        margins = np.zeros(0)
        if len(batch):
            A = alg.anchor_matrices(batch)
            flags, Q, keep = _anchor_svd(A, bd.rank_tol)
            n = _leading(~flags | degenerate)
            if n < len(batch):
                error = ValueError(_DEGENERATE if flags[n] else _NOT_ELLIPTIC)
            # max over unit v in W of |dr(v)| / |dr|, as |Q^T dr| is |dr|; the
            # sums over an outer axis add elementwise, whatever the alignment
            pairing = (Q[:n] * G[:n, :, None].conj()).sum(axis=1)
            margins = np.linalg.norm(pairing * keep[:n], axis=1) / np.linalg.norm(pairing, axis=1)
        classes = [Classification(m >= bd.rank_tol, m) for m in margins.tolist()]
        rows = X[start : start + len(classes)].tolist()
        idx = np.flatnonzero(margins < bd.rank_tol) if levi else []
        if len(idx):
            route = route or _GenericRoute(alg, bd)
            dA, P, dP = route.values(PointBatch(batch.points[idx]))
            B, form_error = route.forms(A.transpose(0, 2, 1)[idx], dA, P, dP, cr_rows)
            at, cls_at = [tuple(rows[i]) for i in idx], [classes[i] for i in idx]
            reports, finish_error = _finish(at, cls_at, B, bd.eig_zero_tol)
            levi_error = finish_error or form_error
        j = 0
        for i, cls in enumerate(classes):
            if not levi:
                yield cls
            elif cls.elliptic:
                yield LeviReport(tuple(rows[i]), cls, None, None, "none")
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
    batch, _ = _boundary_batch(bd, [point])
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
    """Symbolic CR fields, tangent to every level set of r, and the
    transverse field; used by the exact (slow) route and by independence tests.

    With P_j = dr(rho(w_j)), the i-th CR field is P_piv sum_j row[i][j] w_j -
    (sum_j row[i][j] P_j) w_piv, polynomial for polynomial anchors and r.  It
    is P_piv times the tangency-corrected section, so its Levi form is
    |P_piv|^2 theirs: the other bracket terms lie in the CR span.
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
            c = const(chart, complex(cj))
            vec = vec + alg.anchors[j].scale(c)
            pair = pair + c * P[j]
        cr_fields.append(vec.scale(P[piv]) - alg.anchors[piv].scale(pair))
    transverse = alg.anchors[piv].scale(const(chart, complex(frame.transverse_scale)))
    return cr_fields, transverse


# ---------------------------------------------------------------------------
# the mu-projection


def _mu_functionals(span: np.ndarray, g: np.ndarray, rel_tol: float):
    """u (N, m) and vdot(u, g) (N,) for spans (N, m, s) and generators g
    (N, m): the coefficient of g in a value modulo the span, by orthogonal
    projection, is vdot(u, value) / vdot(u, g).  Also the points before the
    first g in its span, and that one's error."""
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
    brackets = [lie_bracket(f, h.conj()).components for f in cr_fields for h in cr_fields]
    table = [f.components for f in cr_fields] + [transverse.components] + brackets
    V = eval_table(table, [point])[0]
    t_val = V[k]
    g = 1j * (t_val.conj() - t_val)
    if projector is None:
        span = np.concatenate([V[:k], V[:k].conj()]).T
        u, _, _, error = _mu_functionals(span[None], g[None], bd.rank_tol)
        if error:
            raise error
        projector = u[0].conj()
    cval = -1j * V[k + 1 :].reshape(k, k, len(t_val))
    return (cval @ projector) / (projector @ g)


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
    # the fields are P_piv = 1 / transverse_scale times the CR sections
    B = abs(frame.transverse_scale) ** 2 * levi_from_cr_fields(bd, fields, transverse, point)
    at = tuple(np.asarray(point, dtype=float).tolist())
    reports, error = _finish([at], [cls], B[None], bd.eig_zero_tol)
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


def _pair_indices(chart):
    """The real and the imaginary index of each complex coordinate, as arrays."""
    return np.array(chart.complex_pairs, dtype=int).reshape(-1, 2).T


def _dbar(bd: BoundaryData, G: np.ndarray) -> np.ndarray:
    """dr/dzbar^j (N, n) from the real gradients G (N, m)."""
    re, im = _pair_indices(bd.chart)
    return 0.5 * (G[:, re] + 1j * G[:, im])


def wirtinger_hessian(bd: BoundaryData, points) -> np.ndarray:
    """H_ij = d^2 r / dz^i dzbar^j (N, n, n) at N points of a paired chart."""
    re, im = _pair_indices(bd.chart)
    D = eval_table(bd.hess, points)
    rr, ri, ir, ii = (D[:, a[:, None], b] for a in (re, im) for b in (re, im))
    # d/dz^i = (d_re - i d_im)/2 applied to dr/dzbar^j = (d_re + i d_im) r / 2
    return 0.25 * (rr + 1j * ri - 1j * ir + ii)


def cr_kernel_basis(bd: BoundaryData, points) -> np.ndarray:
    """Orthonormal bases (N, n-1, n), as rows, of {u in T^{0,1} : sum u^i
    dr/dzbar^i = 0} at each point, from one stacked SVD."""
    vh = np.linalg.svd(_dbar(bd, bd.grad_values(points))[:, None, :])[2]
    return vh[:, 1:].conj()


def levi_form_complex_hessian(bd: BoundaryData, points, cr_basis: np.ndarray) -> np.ndarray:
    """Hessian route for L = T^{0,1}: L(u,v) = sum H_ij conj(v^i) u^j on CR,
    (N, k, k) at N boundary points.

    The rows of cr_basis (N, k, n), or of one (k, n) basis for every point,
    are antiholomorphic component vectors; they must lie in the CR kernel at
    their point.  The result carries the dr(nu)=1 normalization of the given r.
    """
    batch, G = _boundary_batch(bd, points)
    if not bd.chart.complex_pairs:
        raise ValueError("complex-Hessian route needs a chart with complex pairing")
    basis = np.asarray(cr_basis, dtype=complex)
    w = _dbar(bd, G)
    residual = np.abs(basis @ w[..., None])[..., 0].max(axis=-1, initial=0.0)
    scale = np.linalg.norm(w, axis=1) * np.linalg.norm(basis, axis=-1).max(axis=-1, initial=1e-300)
    if np.any(residual > 1e-8 * np.maximum(scale, 1e-300)):
        raise ValueError("cr_basis is not contained in the CR kernel")
    return _hessian_form(wirtinger_hessian(bd, batch), basis)


def _hessian_form(H: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """L(u_a, u_b) = sum H_ij conj(u_b^i) u_a^j over the rows u of basis."""
    return basis @ H.swapaxes(-1, -2) @ basis.conj().swapaxes(-1, -2)


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
    bd: BoundaryData, sigma: dict, points, cr_t_basis: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Block Levi matrices (N, K, K) for L = T^{0,1} + graph(sigma) at N
    non-elliptic points, and the cr_t_basis used (cr_kernel_basis if None).

    The basis ordering is (CR cap T^{0,1} directions, then dz^1..dz^n).
    Requires X_r = sigma(dr^{1,0}) to vanish at each point, which is the
    non-ellipticity condition.
    """
    batch, G = _boundary_batch(bd, points)
    chart = bd.chart
    n = chart.n_complex
    if n == 0:
        raise ValueError("poisson route needs a chart with complex pairing")
    X_r = _hamiltonian_of_r(bd, sigma)
    unit = [[const(chart, int(i == j)) for i in range(n)] for j in range(n)]
    # X_r, then the sigma(dz^j), as real-chart components
    fields = [X_r] + [sigma_contract(chart, sigma, alpha) for alpha in unit]
    V = eval_table([f.components for f in fields], batch)
    x_norm = np.linalg.norm(V[:, 0], axis=1)
    if np.any(x_norm > bd.rank_tol * np.maximum(np.linalg.norm(G, axis=1), 1.0)):
        raise ValueError("X_r does not vanish at the point; the point is elliptic")
    if cr_t_basis is None:
        cr_t_basis = cr_kernel_basis(bd, batch)
    basis = np.asarray(cr_t_basis, dtype=complex)
    H = wirtinger_hessian(bd, batch)
    re, im = _pair_indices(chart)
    S = V[:, 1:, re] + 1j * V[:, 1:, im]  # S[:, j, a] = (sigma dz^j)^{z^a}
    # dXr[:, a, j] = d(X_r^{z^a}) / dz^j from the real jacobian of X_r
    J = eval_table(_jacobian(X_r.components, chart), batch)
    J = J[:, re] + 1j * J[:, im]
    dXr = 0.5 * (J[:, :, re] - 1j * J[:, :, im])
    # cross block: L(alpha, u) = alpha([X_r, conj(u)]); for the constant
    # extension of conj(u), [X_r, C] = -(grad_C X_r) at a zero of X_r
    cross = -dXr @ basis.conj().swapaxes(-1, -2)
    B = np.block([
        [_hessian_form(H, basis), cross.conj().swapaxes(-1, -2)],  # T-block
        # sigma-sigma block: L(alpha, beta) = H(sigma alpha, conj(sigma beta))
        [cross, S @ H @ S.conj().swapaxes(-1, -2)],
    ])
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
    alg: AlgebroidSpec, bd: BoundaryData, points
) -> List[Classification]:
    """Classification through pi_J at each point: non-elliptic iff pi_J(dr)
    degenerates.

    Supported spec kinds: graph_two_form with invertible imaginary part
    (symplectic type, pi_J = omega^{-1}), antiholomorphic (complex type,
    pi_J = 0), and holomorphic_poisson (pi_J(dr) tracks X_r).
    """
    batch, G = _boundary_batch(bd, points)
    kind = alg.meta.get("kind")
    if kind == "antiholomorphic":
        return [Classification(False, 0.0)] * len(batch)
    if kind == "graph_two_form":
        omega = alg.meta["omega"]
        m = range(alg.chart.dim)
        W = eval_table([[omega.coeff((i, j)) for j in m] for i in m], batch)
        W = (W - W.swapaxes(1, 2)).imag  # pi_J = (Im omega)^{-1} for graph(B + i omega)
        try:
            pi_dr = np.linalg.solve(W, G.real[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise ValueError("two-form spec is not of generalized-complex type")
    elif kind == "holomorphic_poisson":
        xv = eval_table(_hamiltonian_of_r(bd, alg.meta["sigma"]).components, batch)
        pi_dr = 2j * (xv - np.conj(xv))  # 2i X_r + conj(2i X_r), a real vector
    else:
        raise ValueError("spec is not of generalized-complex type")
    margins = np.linalg.norm(pi_dr, axis=1) / np.linalg.norm(G, axis=1)
    return [Classification(m >= bd.rank_tol, m) for m in margins.tolist()]


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
