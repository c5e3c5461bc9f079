"""Pre-Lie algebroid specifications over a chart.

An AlgebroidSpec packages a frame's worth of anchor fields plus optional
structure functions c^k_ij with [w_i, w_j] = sum_k c^k_ij w_k.  Constructors
cover the tangent algebroid, the antiholomorphic bundle of a complex chart,
Dirac graphs of two-forms and bivectors, and holomorphic Poisson structures.
The structure functions of the bivector graphs and holomorphic Poisson
structures are the Koszul bracket of exact forms in closed form (Courant,
Dirac manifolds, Trans. AMS 319, 1990); the frame expansion of the Courant
bracket is their test oracle.  The Chevalley-Eilenberg differential and the
d^2 residual probe are exact; the differential reads only the stored
structure rows, and AlgebroidForm shares FormExpr's coefficient table and
sign rule: calculus.CoeffTable and calculus.insertion_sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .calculus import (
    CoeffTable,
    FormExpr,
    VectorFieldExpr,
    coordinate_field,
    insertion_sign,
    interior,
    normalized_coeffs,
    wirtinger,
)
from .scalars import Chart, ScalarExpr, const, eval_table

__all__ = [
    "AlgebroidSpec",
    "AlgebroidForm",
    "make_tangent",
    "make_antiholomorphic",
    "make_graph_two_form",
    "make_graph_bivector",
    "make_holomorphic_poisson",
    "ce_differential",
    "d_squared_residual",
    "is_elliptic_at",
    "ellipticity_margins",
    "jacobiator",
    "bivector_contract",
]


@dataclass(frozen=True)
class AlgebroidSpec:
    """A pre-Lie algebroid presented in a global frame over one chart."""

    chart: Chart
    rank: int
    anchors: tuple  # rank VectorFieldExpr entries, rho(w_1)..rho(w_l)
    structure: Optional[dict] = None  # {(i, j): list of rank ScalarExpr}, i < j
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.rank < 1 or len(self.anchors) != self.rank:
            raise ValueError("anchor tuple must have length rank >= 1")
        for a in self.anchors:
            if a.chart != self.chart:
                raise ValueError("anchor chart mismatch")

    def anchor_matrices(self, points) -> np.ndarray:
        """(N, m, l) stack of anchor matrices over an (N, m) batch of points.

        A transposed view of an (N, l, m) array, so each matrix has the
        memory layout the per-point numeric code has always seen.
        """
        return eval_table([a.components for a in self.anchors], points).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# constructors


def make_tangent(chart: Chart) -> AlgebroidSpec:
    anchors = tuple(coordinate_field(chart, i) for i in range(chart.dim))
    return AlgebroidSpec(chart, chart.dim, anchors, {})


def make_antiholomorphic(n: int) -> AlgebroidSpec:
    chart = Chart.complex_chart(n)
    anchors = tuple(wirtinger(chart, k + 1, anti=True) for k in range(n))
    return AlgebroidSpec(chart, n, anchors, {}, meta={"kind": "antiholomorphic"})


def make_graph_two_form(omega: FormExpr) -> AlgebroidSpec:
    """The Dirac graph of a complex two-form, with complement T*M.

    In the frame w_i = d_i + omega(d_i) the anchors are the coordinate
    fields, and the bracket projected along T*M is the Lie bracket of the
    coordinate frame, so the structure functions vanish and d_L = d.
    """
    if omega.degree != 2:
        raise ValueError("omega must be a two-form")
    chart = omega.chart
    anchors = tuple(coordinate_field(chart, i) for i in range(chart.dim))
    meta = {"kind": "graph_two_form", "omega": omega}
    return AlgebroidSpec(chart, chart.dim, anchors, {}, meta=meta)


def _contract(chart: Chart, table: dict, covector, size: int, base: int) -> list:
    """out^j = sum_i a_i t^{ij}, t antisymmetric, from its i<j entries keyed from base."""
    out = [const(chart, 0) for _ in range(size)]
    for (i, j), c in table.items():
        i, j = i - base, j - base
        out[j] = out[j] + covector[i] * c
        out[i] = out[i] - covector[j] * c
    return out


def _unit(chart: Chart, size: int, i: int) -> list:
    """The i-th unit covector of length size, as constants."""
    return [const(chart, 1) if k == i else const(chart, 0) for k in range(size)]


def bivector_contract(chart: Chart, pi: dict, covector: Sequence[ScalarExpr]):
    """pi(xi) for a bivector table {(i,j): ScalarExpr, i<j}: sum rule
    pi(xi)^j = sum_i xi_i pi^{ij} with the full antisymmetric table."""
    return VectorFieldExpr(chart, tuple(_contract(chart, pi, covector, chart.dim, 0)))


def make_graph_bivector(chart: Chart, pi: dict, H: Optional[FormExpr] = None) -> AlgebroidSpec:
    """The Dirac graph of a bivector, with complement TM.

    Frame sections are w_i = dx^i + pi(dx^i).  The structure functions are
    the Koszul bracket of exact forms in closed form, twisted by H:
    c^k_ij = d_k pi^{ij} - H(pi(dx^i), pi(dx^j), d_k).  The frame expansion
    of the Courant bracket along the complement TM is the test oracle.
    """
    for (i, j) in pi:
        if not 0 <= i < j < chart.dim:
            raise ValueError("bivector table must be indexed by i < j")
    if H is not None and H.degree != 3:
        raise ValueError("twisting form must have degree 3")
    m = chart.dim
    anchors = tuple(bivector_contract(chart, pi, _unit(chart, m, i)) for i in range(m))
    structure = {}
    for i, j in combinations(range(m), 2):
        row = [anchors[i].components[j].diff(k) for k in range(m)]
        if H is not None and not H.is_zero:
            twist = interior(anchors[j], interior(anchors[i], H))
            row = [c - twist.coeff((k,)) for k, c in enumerate(row)]
        structure[(i, j)] = row
    meta = {"kind": "graph_bivector", "pi": pi, "H": H}
    return AlgebroidSpec(chart, m, anchors, structure, meta=meta)


def sigma_contract(chart: Chart, sigma: dict, alpha: Sequence[ScalarExpr]):
    """sigma(alpha) in T^{1,0} for a holomorphic bivector table
    {(i,j): ScalarExpr, 1-based i<j} and alpha given by dz-components."""
    n = chart.n_complex
    out_z = _contract(chart, sigma, alpha, n, 1)
    total = VectorFieldExpr.zero(chart)
    for k in range(n):
        if not out_z[k].is_zero:
            total = total + wirtinger(chart, k + 1, anti=False).scale(out_z[k])
    return total


def make_holomorphic_poisson(n: int, sigma: dict) -> AlgebroidSpec:
    """L = T^{0,1} + graph(sigma) for a holomorphic bivector sigma.

    Frame: u_i = d/dzbar^i for i <= n, then s_k = sigma(dz^k) + dz^k for
    k <= n.  The only nonzero brackets are [s_i, s_j] = d sigma^{ij} =
    sum_a (d sigma^{ij}/dz^a) s_a, the Koszul bracket of dz^i and dz^j in
    closed form; the table holds one row per sigma entry, and missing pairs
    read as zero.  The frame expansion of the untwisted Courant bracket
    along the conjugate complement is the test oracle.
    """
    chart = Chart.complex_chart(n)
    for (i, j), c in sigma.items():
        if not 1 <= i < j <= n:
            raise ValueError("sigma table must be indexed by 1 <= i < j <= n")
        for k in range(n):
            anti = wirtinger(chart, k + 1, anti=True).apply(c)
            if not anti.is_zero:
                raise ValueError(
                    f"sigma entry ({i},{j}) is not holomorphic (dzbar^{k + 1} fails)"
                )
    anchors = tuple(wirtinger(chart, i + 1, anti=True) for i in range(n)) + tuple(
        sigma_contract(chart, sigma, _unit(chart, n, k)) for k in range(n)
    )
    zeros = [const(chart, 0)] * n
    structure = {
        (n + i - 1, n + j - 1): zeros
        + [wirtinger(chart, a + 1, anti=False).apply(c) for a in range(n)]
        for (i, j), c in sigma.items()
    }
    meta = {"kind": "holomorphic_poisson", "sigma": sigma, "n": n}
    return AlgebroidSpec(chart, 2 * n, anchors, structure, meta=meta)


# ---------------------------------------------------------------------------
# forms over the algebroid frame and the CE differential


@dataclass(frozen=True)
class AlgebroidForm(CoeffTable):
    alg: AlgebroidSpec
    degree: int
    coeffs: tuple  # ((increasing frame-index tuple, ScalarExpr), ...)

    _base, _base_name = "alg", "algebroid"

    def __post_init__(self):
        if not 0 <= self.degree <= self.alg.rank:
            raise ValueError("degree out of range for the algebroid rank")
        object.__setattr__(
            self,
            "coeffs",
            normalized_coeffs(self.coeffs, self.degree, self.alg.rank, "frame"),
        )

    @property
    def chart(self) -> Chart:
        return self.alg.chart

    @staticmethod
    def from_function(alg: AlgebroidSpec, f: ScalarExpr) -> "AlgebroidForm":
        return AlgebroidForm(alg, 0, (((), f),))

    @staticmethod
    def dual_frame(alg: AlgebroidSpec, i: int) -> "AlgebroidForm":
        return AlgebroidForm(alg, 1, (((i,), const(alg.chart, 1)),))


def _is_constant(c: ScalarExpr) -> bool:
    # a constant numerator over a non-unit denominator, as 1/(1 + x1^2), is not
    return c.is_polynomial and not any(any(mono) for mono in c.num)


def _reachable(alg: AlgebroidSpec, phi_table: dict, varying: dict) -> list:
    """The increasing K that some term of d phi can reach, in sorted order.

    An anchor term reaches S + {x} for a non-constant entry S of phi and any
    x outside S; a structure term of row (i, j) and c^k_ij != 0 reaches
    (S - {k}) + {i, j} for an entry S that holds k and meets {i, j} at most
    in k.
    """
    rank = alg.rank
    out = set()
    for S in varying:
        out.update(tuple(sorted(S + (x,))) for x in range(rank) if x not in S)
    for (i, j), row in alg.structure.items():
        for k, sc in enumerate(row):
            if sc.is_zero:
                continue
            for S in phi_table:
                rest = tuple(s for s in S if s != k)
                if len(rest) < len(S) and i not in rest and j not in rest:
                    out.add(tuple(sorted(rest + (i, j))))
    return sorted(out)


def ce_differential(alg: AlgebroidSpec, phi: AlgebroidForm) -> AlgebroidForm:
    """Chevalley-Eilenberg differential in the frame presentation.

    (d phi)(w_{k0},..,w_{kq}) = sum_a (-1)^a rho(w_{ka}).phi(..hat a..)
                              + sum_{a<b} (-1)^{a+b} phi([w_{ka},w_{kb}], ..)

    K is increasing, so the pair (K[a], K[b]) is a key of the structure
    table as stored; a pair without a row brackets to zero and is skipped.
    Only the K that a term can reach are visited (_reachable), not all
    C(rank, q + 1): every other K sums no term, or only anchor terms of
    constant entries, which are zero.  Sorted order is combinations order,
    and each K sums the same terms in the same order as a visit of every K
    would, so each coefficient has the same terms in the same dict order.
    The anchor term of a constant entry (a polynomial whose one monomial is
    the unit) is skipped: rho(w).c is the zero expression, and adding it
    leaves the sum as it is.
    """
    if alg.structure is None:
        raise ValueError("structure functions are required for ce_differential")
    if phi.alg is not alg and (
        phi.alg.rank != alg.rank or phi.alg.chart != alg.chart
    ):
        raise ValueError("form does not belong to this algebroid")
    if phi.degree >= alg.rank:
        raise ValueError("degree overflow for this rank")
    q = phi.degree
    table: Dict[tuple, ScalarExpr] = {}
    phi_table = phi.table()
    varying = {S: c for S, c in phi_table.items() if not _is_constant(c)}
    zero = const(alg.chart, 0)
    for K in _reachable(alg, phi_table, varying):
        acc = zero
        for a in range(q + 1):
            c = varying.get(K[:a] + K[a + 1 :])
            if c is not None:
                term = alg.anchors[K[a]].apply(c)
                acc = acc - term if a % 2 else acc + term
        for a in range(q + 1):
            for b in range(a + 1, q + 1):
                row = alg.structure.get((K[a], K[b]))
                if row is None:
                    continue
                rest = K[:a] + K[a + 1 : b] + K[b + 1 :]
                sign_ab = (-1) ** (a + b)
                for k, sc in enumerate(row):
                    if sc.is_zero:
                        continue
                    ins, merged = insertion_sign(k, rest)
                    if ins == 0:
                        continue
                    c = phi_table.get(merged)
                    if c is None:
                        continue
                    acc = acc + sc * c if sign_ab * ins > 0 else acc - sc * c
        if not acc.is_zero:
            table[K] = acc
    return AlgebroidForm(alg, q + 1, tuple(table.items()))


def d_squared_residual(
    alg: AlgebroidSpec, sample_points: Sequence[Sequence[complex]]
) -> float:
    """Max |coefficient| of d_L(d_L probe) over probes and sample points.

    The probes are the coordinate functions, plus the dual frame one-forms
    when the rank allows a degree-3 result.
    """
    probes = [
        AlgebroidForm.from_function(alg, ScalarExpr.variable(alg.chart, i))
        for i in range(alg.chart.dim)
    ]
    if alg.rank >= 3:
        probes += [AlgebroidForm.dual_frame(alg, i) for i in range(alg.rank)]
    worst = 0.0
    for probe in probes:
        dd = ce_differential(alg, ce_differential(alg, probe))
        if not dd.is_zero:
            values = eval_table([c for _, c in dd.coeffs], sample_points)
            worst = max(worst, float(np.abs(values).max(initial=0.0)))
    return worst


def jacobiator(chart: Chart, pi: dict, f: ScalarExpr, g: ScalarExpr, h: ScalarExpr):
    """{f,{g,h}} + {h,{f,g}} + {g,{h,f}} for the bracket {a,b} = pi(da, db).

    Independent of the Dirac-graph machinery; used to cross-validate
    d_squared_residual for bivector graphs (with H = 0).
    """

    def poisson(a, b):
        out = const(chart, 0)
        for (i, j), c in pi.items():
            out = out + c * (a.diff(i) * b.diff(j) - a.diff(j) * b.diff(i))
        return out

    return (
        poisson(f, poisson(g, h))
        + poisson(h, poisson(f, g))
        + poisson(g, poisson(h, f))
    )


def is_elliptic_at(
    alg: AlgebroidSpec, point, rank_tol: float = 1e-8
) -> Tuple[bool, float]:
    """Ellipticity rho(L) + conj(rho(L)) = TM_C at a point.

    Returns (flag, margin) where the margin is the m-th singular value of
    the stacked m x 2l matrix of anchors and conjugated anchors, relative
    to the largest one (so a unitary-anchor frame scores 1).
    """
    flags, margins = ellipticity_margins(alg.anchor_matrices([point]), rank_tol)
    return bool(flags[0]), float(margins[0])


def ellipticity_margins(A: np.ndarray, rank_tol: float = 1e-8):
    """is_elliptic_at over an (N, m, l) stack of anchor matrices.

    Returns boolean flags and float margins, each of shape (N,), from one
    stacked SVD.
    """
    n, m, _ = A.shape
    svals = np.linalg.svd(np.concatenate([A, A.conj()], axis=2), compute_uv=False)
    if svals.shape[1] < m:
        return np.zeros(n, dtype=bool), np.zeros(n)
    top = svals[:, 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        margins = np.where(top == 0, 0.0, svals[:, m - 1] / top)
    return (margins >= rank_tol) & (top != 0), margins
