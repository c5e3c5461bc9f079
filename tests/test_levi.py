import io
import math
import time
import warnings
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgebench.algebroids import (
    AlgebroidSpec,
    ellipticity_margins,
    is_elliptic_at,
    make_antiholomorphic,
    make_graph_bivector,
    make_graph_two_form,
    make_holomorphic_poisson,
    make_tangent,
)
from hodgebench.calculus import FormExpr, VectorFieldExpr, wirtinger
from hodgebench.cli import main
from hodgebench import levi
from hodgebench.gallery import gallery_names, gallery_spec
from hodgebench.levi import (
    AdaptedFrame,
    BoundaryData,
    Classification,
    adapted_frame,
    adapted_sections,
    classify_point,
    classify_points,
    cr_kernel_basis,
    eigen_signature,
    gc_ellipticity_via_bivector,
    levi_form_complex_hessian,
    levi_form_generic,
    levi_forms_generic,
    levi_form_poisson,
    levi_from_cr_fields,
    q_convex_set,
    sphere_lattice,
    wirtinger_hessian,
)
from hodgebench.scalars import Chart, PointBatch, const, eval_table, parse_expr
from hodgebench.specfile import parse_specfile


def ball_boundary(chart):
    r = parse_expr(
        " + ".join(f"{n}^2" for n in chart.names) + " - 1", chart
    )
    return BoundaryData(r)


def poisson_c4():
    chart = Chart.complex_chart(4)
    sigma = {(1, 2): parse_expr("z1", chart), (3, 4): const(chart, 1)}
    return make_holomorphic_poisson(4, sigma)


def locus_points(n, count):
    # the non-elliptic locus {x = z = w = 0} of the C^{2k+2} Poisson example
    pts = []
    for k in range(count):
        theta = 2 * math.pi * ((k * 0.6180339887498949) % 1.0)
        p = [0.0] * (2 * n)
        p[2] = math.cos(theta)
        p[3] = math.sin(theta)
        pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# classification


def test_tangent_sphere_all_elliptic():
    chart = Chart.real(3)
    alg = make_tangent(chart)
    bd = ball_boundary(chart)
    for p in sphere_lattice(3, 25):
        cls = classify_point(alg, bd, list(p))
        assert cls.elliptic and cls.margin > 0.5


def test_dbar_ball_all_nonelliptic():
    alg = make_antiholomorphic(2)
    bd = ball_boundary(alg.chart)
    for p in sphere_lattice(4, 25):
        cls = classify_point(alg, bd, list(p))
        assert not cls.elliptic


def test_poisson_classification_split():
    alg = poisson_c4()
    bd = ball_boundary(alg.chart)
    on_locus = classify_point(alg, bd, locus_points(4, 3)[0])
    assert not on_locus.elliptic
    off_locus = classify_point(alg, bd, [1.0] + [0.0] * 7)
    assert off_locus.elliptic


def test_classify_requires_boundary_point():
    alg = make_tangent(Chart.real(2))
    bd = ball_boundary(alg.chart)
    with pytest.raises(ValueError):
        classify_point(alg, bd, [0.2, 0.2])


def test_classify_requires_elliptic_algebroid():
    from hodgebench.algebroids import make_graph_bivector

    chart = Chart.real(2)
    alg = make_graph_bivector(chart, {})  # zero anchors: nowhere elliptic
    bd = ball_boundary(chart)
    with pytest.raises(ValueError, match="not elliptic"):
        classify_point(alg, bd, [1.0, 0.0])


# ---------------------------------------------------------------------------
# batched classification and Levi route against a per-point reference
#
# The reference is the per-point classification and generic-route Levi tail
# on ScalarExpr.eval, as they were before batching and stacking: one frame,
# one bracket and one mu-projection per point and entry.  The batched routes
# must reproduce the labels and signatures exactly.  The margins come from
# real arithmetic in the batched classification, from complex arithmetic in
# the reference, and agree within 1e-15.  The Levi matrices are bit-equal on
# the Poisson specs; elsewhere the stacked contractions round differently,
# within 1e-14 relative.

EXACT_LEVI = ("poisson_c4", "poisson_c6")


def reference_intersection_basis(A, rel_tol):
    stacked = np.hstack([A, -A.conj()])
    _, s, vh = np.linalg.svd(stacked)
    if s.size == 0 or s[0] == 0:
        return np.zeros((A.shape[0], 0))
    null_cols = [
        k for k in range(vh.shape[0]) if k >= s.size or s[k] <= rel_tol * s[0]
    ]
    null_vecs = vh.conj().T[:, null_cols]
    if null_vecs.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    vecs = A @ null_vecs[: A.shape[1]]
    q, s2, _ = np.linalg.svd(vecs, full_matrices=False)
    keep = s2 > rel_tol * max(s2[0], 1e-300) if s2.size else []
    return q[:, keep] if s2.size else np.zeros((A.shape[0], 0))


def reference_classify(alg, bd, point):
    val = bd.r.eval(point)
    if abs(val) > levi._BOUNDARY_TOL:
        raise ValueError(f"point is not on the boundary (r = {val})")
    A = np.array([a.eval(point) for a in alg.anchors], dtype=complex).T
    svals = np.linalg.svd(np.hstack([A, A.conj()]), compute_uv=False)
    m = alg.chart.dim
    if len(svals) < m or svals[0] == 0 or not float(svals[m - 1] / svals[0]) >= bd.rank_tol:
        raise ValueError("algebroid is not elliptic at the point")
    basis = reference_intersection_basis(A, bd.rank_tol)
    g = np.array([gi.eval(point) for gi in bd.grad])
    if np.linalg.norm(g) <= bd.rank_tol:
        raise ValueError("defining function is degenerate at the point (|dr| ~ 0)")
    if basis.shape[1] == 0:
        return Classification(False, 0.0)
    pairing = basis.conj().T @ g.conj()
    margin = float(np.linalg.norm(pairing) / np.linalg.norm(g))
    return Classification(margin >= bd.rank_tol, margin)


def reference_frame(pairings, A, rank_tol):
    l = len(pairings)
    pivot = int(np.argmax(np.abs(pairings)))
    if abs(pairings[pivot]) <= rank_tol * max(float(np.linalg.norm(A)), 1.0):
        raise ValueError("all frame anchors are tangent at the point (ellipticity violated)")
    rows = np.array([np.eye(l, dtype=complex)[i] for i in range(l) if i != pivot])
    return AdaptedFrame(pivot, rows, 1.0 / pairings[pivot])


def reference_mu_functional(span, g, rel_tol):
    q, s, _ = np.linalg.svd(span, full_matrices=False)
    if s.size and s[0] > 0:
        q = q[:, s > rel_tol * s[0]]
    u = g - q @ (q.conj().T @ g)
    if np.linalg.norm(u) <= rel_tol * np.linalg.norm(g):
        raise levi.ClassificationInconsistency(
            "mu generator lies in the CR span; the point classifies as elliptic"
        )
    u_g = np.vdot(u, g)
    return lambda value: complex(np.vdot(u, value) / u_g)


def reference_evaluate(frame, A, dA, P, dP, rank_tol):
    """The Levi matrix at a point from the anchors A (l, m), their jacobians
    dA (l, m_comp, m_dir), P (l,) and dP (l, m), one entry at a time."""
    m, piv, rows = A.shape[1], frame.pivot, frame.cr_rows
    k = rows.shape[0]
    v = np.zeros((k, m), dtype=complex)
    dv = np.zeros((k, m, m), dtype=complex)
    for i in range(k):
        num = rows[i] @ P
        dnum = rows[i] @ dP
        q = num / P[piv]
        dq = (dnum * P[piv] - num * dP[piv]) / P[piv] ** 2
        v[i] = rows[i] @ A - q * A[piv]
        dv[i] = np.tensordot(rows[i], dA, axes=(0, 0)) - q * dA[piv]
        dv[i] -= np.outer(A[piv], dq)
    t_val = complex(frame.transverse_scale) * A[piv]
    g = 1j * (t_val.conj() - t_val)
    B = np.zeros((k, k), dtype=complex)
    mu = reference_mu_functional(np.vstack([v, v.conj()]).T, g, rank_tol)
    for i in range(k):
        for j in range(k):
            br = v[i] @ dv[j].conj().T - v[j].conj() @ dv[i].T
            B[i, j] = mu(-1j * br)
    return B


def reference_finish(B, eig_zero_tol):
    """(Hermitian part, signature, relative Hermitian defect) of B."""
    scale = np.linalg.norm(B)
    defect = float(np.linalg.norm(B - B.conj().T) / scale) if scale > 0 else 0.0
    if defect > 1e-6:
        raise levi.ClassificationInconsistency(
            f"Levi matrix is not Hermitian (relative defect {defect:.3e})"
        )
    H = 0.5 * (B + B.conj().T)
    evals = np.linalg.eigvalsh(H)
    cut = eig_zero_tol * max(np.abs(evals).max(), 0.0)
    n_pos, n_neg = int(np.sum(evals > cut)), int(np.sum(evals < -cut))
    return H, (n_pos, n_neg, len(evals) - n_pos - n_neg), defect


def reference_levi(alg, bd, point):
    """reference_finish of the generic-route Levi matrix at a point."""
    l, m = alg.rank, alg.chart.dim
    pairings = []
    for j in range(l):
        total = 0j
        for t in range(m):
            c = alg.anchors[j].components[t]
            if not c.is_zero:
                total += bd.grad[t].eval(point) * c.eval(point)
        pairings.append(total)
    A = np.array([[c.eval(point) for c in a.components] for a in alg.anchors])
    frame = reference_frame(np.array(pairings), A.T, bd.rank_tol)
    route = levi._GenericRoute(alg, bd)
    dA = np.array([[[d.eval(point) for d in row] for row in dj] for dj in route.dA])
    P = np.array([p.eval(point) for p in route.P])
    dP = np.array([[d.eval(point) for d in row] for row in route.dP])
    B = reference_evaluate(frame, A, dA, P, dP, bd.rank_tol)
    return reference_finish(B, bd.eig_zero_tol)


def assert_classes_match(got, want, name=None):
    assert [c.elliptic for c in got] == [c.elliptic for c in want], name
    assert all(abs(a.margin - b.margin) <= 1e-15 for a, b in zip(got, want)), name


def assert_levi_matches_reference(rep, ref, name):
    H, signature, _ = ref
    assert rep.signature == signature, name
    if name in EXACT_LEVI:
        assert np.array_equal(rep.levi, H), name
    else:
        assert np.abs(rep.levi - H).max() <= 1e-14 * np.abs(H).max(), name


def test_batched_routes_match_per_point_reference(monkeypatch):
    # small blocks, so that block boundaries fall inside every sample
    monkeypatch.setattr(levi, "_BLOCK", 7)
    names = ("tangent_sphere", "symplectic_gc", "ball_c2_dbar", "annulus_c3_dbar")
    for name in names + EXACT_LEVI:
        spec = replace(gallery_spec(name), samples=24)
        alg, bd = spec.build_algebroid(), spec.build_boundary()
        points = spec.sample_points()
        want = [reference_classify(alg, bd, p) for p in points]
        assert_classes_match(classify_points(alg, bd, points), want, name)
        assert_classes_match([classify_point(alg, bd, points[-1])], want[-1:], name)
        non_elliptic = [p for p, c in zip(points, want) if not c.elliptic]
        refs = {tuple(p): reference_levi(alg, bd, p) for p in non_elliptic}
        assert refs or name in ("tangent_sphere", "symplectic_gc"), name
        for rep, p in zip(levi_forms_generic(alg, bd, non_elliptic[:9]), non_elliptic):
            assert_levi_matches_reference(rep, refs[tuple(p)], name)
        verdict = q_convex_set(alg, bd, points)
        assert_classes_match([rep.classification for rep in verdict.reports], want, name)
        for rep, p, c in zip(verdict.reports, points, want):
            if not c.elliptic:
                assert_levi_matches_reference(rep, refs[tuple(p)], name)


def test_levi_forms_do_not_depend_on_the_block_size(monkeypatch):
    for name in ("annulus_c3_dbar", "ball_c2_dbar", "ball_c3_dbar") + EXACT_LEVI:
        spec = replace(gallery_spec(name), samples=200)
        alg, bd = spec.build_algebroid(), spec.build_boundary()
        points = spec.sample_points()
        runs = []
        for block in (7, 256):
            monkeypatch.setattr(levi, "_BLOCK", block)
            runs.append(q_convex_set(alg, bd, points).reports)
        assert sum(rep.levi is not None for rep in runs[0]) >= 20, name
        for small, large in zip(*runs):
            assert small.signature == large.signature, name
            assert small.hermitian_defect == large.hermitian_defect, name
            assert (small.levi is None and large.levi is None) or np.array_equal(
                small.levi, large.levi
            ), name


def test_one_point_levi_form_is_the_same_point_inside_a_walk():
    for name in ("annulus_c3_dbar", "ball_c3_dbar") + EXACT_LEVI:
        spec = gallery_spec(name)
        alg, bd = spec.build_algebroid(), spec.build_boundary()
        points = spec.sample_points()
        reports = q_convex_set(alg, bd, points).reports
        inside = [(p, rep) for p, rep in zip(points, reports) if rep.levi is not None]
        for p, rep in inside[:: max(1, len(inside) // 40)]:
            one = levi_form_generic(alg, bd, p)
            assert one.point == rep.point and one.classification == rep.classification
            assert one.signature == rep.signature, name
            assert one.hermitian_defect == rep.hermitian_defect, name
            assert np.array_equal(one.levi, rep.levi), name


def assert_python_float_point(point, row):
    assert type(point) is tuple and all(type(x) is float for x in point)
    assert np.array(point).tobytes() == np.asarray(row, dtype=float).tobytes()


def test_report_points_are_tuples_of_python_floats_for_any_input():
    # ball_c2_dbar's reports carry Levi forms, tangent_sphere's are elliptic
    for name in ("ball_c2_dbar", "tangent_sphere"):
        spec = replace(gallery_spec(name), samples=12)
        alg, bd = spec.build_algebroid(), spec.build_boundary()
        array = spec.sample_points()
        for points in (array, array.tolist()):
            reports = q_convex_set(alg, bd, points).reports
            assert len(reports) == len(array)
            for rep, row in zip(reports, array):
                assert_python_float_point(rep.point, row)
    alg, bd = gallery_build("ball_c2_dbar")
    array = gallery_spec("ball_c2_dbar").sample_points()[:3]
    for points in (array, array.tolist()):
        for rep, row in zip(levi_forms_generic(alg, bd, points), array, strict=True):
            assert_python_float_point(rep.point, row)
        for exact in (False, True):
            rep = levi_form_generic(alg, bd, points[0], exact=exact)
            assert_python_float_point(rep.point, array[0])


def walk_until_error(alg, bd, points, cr_rows=None):
    """The reports a Levi walk yields before it raises, and what it raises."""
    yielded = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            for rep in levi._walk(alg, bd, points, levi=True, cr_rows=cr_rows):
                yielded.append(rep)
        except (ValueError, RuntimeError) as err:
            return yielded, err
    raise AssertionError("the walk raised nothing")


def ball_point(t, a):
    # |z1| = cos a, |z2| = sin a on the unit sphere of C^2
    return [
        math.cos(a) * math.cos(t), math.cos(a) * math.sin(t),
        math.sin(a) * math.cos(2 * t), math.sin(a) * math.sin(2 * t),
    ]


def test_a_failing_point_mid_block_raises_after_the_points_before_it(monkeypatch):
    alg = make_antiholomorphic(2)
    ball = ball_boundary(alg.chart)
    # dr = 2 * 6e-9 * x at (1, 0, 0, 0): above rank_tol, but every pairing
    # dr(rho(w_j)) is below it, so the adapted frame is flat there
    pinched = BoundaryData(
        parse_expr("(x1^2 + x2^2 + x3^2 + x4^2 - 1)*((x1 - 1)^2 + 0.000000006)", alg.chart)
    )
    good = [ball_point(t, a) for t, a in ((0.3, 1.2), (1.0, 1.0), (2.5, 1.3), (2.9, 1.1))]
    # with the CR row w_1, the CR section vanishes wherever w_1 is the pivot
    # (|z1| > |z2|): its span is zero and holds the mu generator
    cases = [
        (pinched, good[:2] + [[1.0, 0.0, 0.0, 0.0]] + good[2:], None, ValueError),
        (ball, good[:2] + [ball_point(2.0, 0.3)] + good[2:], np.array([[1.0, 0.0]]),
         levi.ClassificationInconsistency),
    ]
    for bd, points, cr_rows, kind in cases:
        want = [levi_form_generic(alg, bd, p, cr_rows=cr_rows) for p in points[:2]]
        with pytest.raises(kind) as first:
            levi_form_generic(alg, bd, points[2], cr_rows=cr_rows)
        for block in (3, 256):
            monkeypatch.setattr(levi, "_BLOCK", block)
            yielded, err = walk_until_error(alg, bd, points, cr_rows)
            assert type(err) is kind and str(err) == str(first.value)
            assert [rep.point for rep in yielded] == [tuple(p) for p in points[:2]]
            for rep, one in zip(yielded, want):
                assert np.array_equal(rep.levi, one.levi) and rep.signature == one.signature


def test_finish_stops_before_the_first_non_hermitian_matrix():
    B = np.array([np.eye(2), [[1.0, 1.0], [0.0, 1.0]], np.zeros((2, 2))], dtype=complex)
    cls = Classification(False, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports, error = levi._finish([(0.0,), (1.0,), (2.0,)], [cls] * 3, B, 1e-8)
    assert [rep.signature for rep in reports] == [(2, 0, 0)]
    with pytest.raises(levi.ClassificationInconsistency) as want:
        reference_finish(B[1], 1e-8)
    assert type(error) is want.type and str(error) == str(want.value)
    assert "relative defect 8.165e-01" in str(error)  # |B - B^H| / |B| = sqrt(2/3)
    reports, error = levi._finish([(0.0,)], [cls], B[2:], 1e-8)
    assert error is None and reports[0].signature == (0, 0, 2)
    assert reports[0].hermitian_defect == 0.0


def first_error(fn, points):
    for p in points:
        try:
            fn(p)
        except ValueError as err:
            return str(err)
    raise AssertionError("no point fails")


def failing_walks():
    """(algebroid, boundary, points) whose walks stop at a bad point."""
    chart = Chart.real(2)
    circle = [[math.cos(t), math.sin(t)] for t in np.linspace(0.1, 6.0, 8)]
    off = [0.2, 0.3]
    tangent, zero_anchors = make_tangent(chart), make_graph_bivector(chart, {})
    round_r, flat_r = ball_boundary(chart), BoundaryData(
        parse_expr("(x1^2 + x2^2 - 1)^2", chart)  # dr vanishes on the circle
    )
    return [
        (tangent, round_r, circle[:5] + [off] + circle[5:]),
        (zero_anchors, round_r, circle[:4] + [off]),
        (zero_anchors, round_r, [off] + circle),
        (tangent, flat_r, circle[:2] + [off]),
        (tangent, flat_r, [off] + circle),
        (zero_anchors, flat_r, circle),
    ]


def test_batched_errors_are_those_of_the_first_bad_point(monkeypatch):
    monkeypatch.setattr(levi, "_BLOCK", 3)
    for alg, bd, points in failing_walks():
        message = first_error(lambda p: reference_classify(alg, bd, p), points)
        for batched in (classify_points, q_convex_set):
            with pytest.raises(ValueError) as err:
                batched(alg, bd, points)
            assert str(err.value) == message
        message = first_error(lambda p: levi_form_generic(alg, bd, p), points)
        with pytest.raises(ValueError) as err:
            levi_forms_generic(alg, bd, points)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# the one walk: one anchor evaluation and one real classification per point
#
# The oracle is the walk's classification as it was in complex arithmetic:
# one stacked SVD of [A, -conj A], a second SVD per group of points with equal
# null-space size, cut at its own largest singular value, and a loop over the
# points.


def reference_anchor_svd(A, rel_tol):
    """Ellipticity flags, bases of col(A_i) cap col(conj(A_i)) and the scale
    of each second SVD (its largest singular value, 0 where it has none)."""
    n, m, l = A.shape
    _, s, vh = np.linalg.svd(np.concatenate([A, -A.conj()], axis=2))
    flags = np.zeros(n, dtype=bool)
    if s.shape[1] >= m:
        with np.errstate(invalid="ignore", divide="ignore"):
            flags = (s[:, m - 1] / s[:, 0] >= rel_tol) & (s[:, 0] != 0)
    bases, scales = [np.zeros((m, 0))] * n, np.zeros(n)
    null = np.ones((n, vh.shape[1]), dtype=bool)
    null[:, : s.shape[1]] = s <= rel_tol * s[:, :1]
    groups = {}
    for i in range(n):
        if s[i, 0] == 0 or not null[i].any():
            continue
        vecs = A[i] @ vh[i].conj().T[:, np.flatnonzero(null[i])][:l]
        groups.setdefault(vecs.shape[1], []).append((i, vecs))
    for members in groups.values():
        q, s2, _ = np.linalg.svd(np.stack([v for _, v in members]), full_matrices=False)
        for g, (i, _) in enumerate(members):
            bases[i] = q[g][:, s2[g] > rel_tol * max(s2[g, 0], 1e-300)]
            scales[i] = s2[g, 0]
    return flags, bases, scales


def reference_walk_classes(alg, bd, points):
    """The Classifications before the first failing point, block by block as
    the walk takes them, and that point's error (None if there is none)."""
    X = np.asarray(points, dtype=float)
    classes = []
    for start in range(0, len(X), levi._BLOCK):
        batch = PointBatch(X[start : start + levi._BLOCK])
        r_vals = bd.r.eval_many(batch)
        off = np.flatnonzero(~(np.abs(r_vals) <= levi._BOUNDARY_TOL))
        if off.size:
            error = ValueError(f"point is not on the boundary (r = {complex(r_vals[off[0]])})")
            batch = PointBatch(batch.points[: off[0]])
        A, G = alg.anchor_matrices(batch), bd.grad_values(batch)
        flags, bases, _ = reference_anchor_svd(A, bd.rank_tol) if len(batch) else ([], [], [])
        for i in range(len(batch)):
            g_norm = np.linalg.norm(G[i])
            if not flags[i] or g_norm <= bd.rank_tol:
                return classes, ValueError(
                    levi._DEGENERATE if flags[i] else levi._NOT_ELLIPTIC
                )
            if bases[i].shape[1] == 0:
                classes.append(Classification(False, 0.0))
                continue
            pairing = bases[i].conj().T @ G[i].conj()
            margin = float(np.linalg.norm(pairing) / g_norm)
            classes.append(Classification(margin >= bd.rank_tol, margin))
        if off.size:
            return classes, error
    return classes, None


def walk_classes(alg, bd, points):
    """The walk's Classifications before it raises, and what it raises."""
    classes = []
    try:
        for cls in levi._walk(alg, bd, points):
            classes.append(cls)
    except ValueError as err:
        return classes, err
    return classes, None


def gallery_build(name):
    spec = gallery_spec(name)
    return spec.build_algebroid(), spec.build_boundary()


def test_real_classification_matches_the_complex_oracle(monkeypatch):
    walks = [(*gallery_build(name), gallery_spec(name).sample_points()) for name in gallery_names()]
    for block in (7, 256):
        monkeypatch.setattr(levi, "_BLOCK", block)
        for alg, bd, points in walks + failing_walks():
            got, error = walk_classes(alg, bd, points)
            want, want_error = reference_walk_classes(alg, bd, points)
            assert [c.label for c in got] == [c.label for c in want]
            assert_classes_match(got, want)
            assert str(error) == str(want_error) and type(error) is type(want_error)
        for alg, bd, points in walks:
            A = alg.anchor_matrices(points)
            flags, _, _ = levi._anchor_svd(A, bd.rank_tol)
            assert np.array_equal(flags, reference_anchor_svd(A, bd.rank_tol)[0])


def test_walk_ellipticity_flags_match_margins_on_gallery_samples():
    for name in gallery_names():
        alg, bd = gallery_build(name)
        points = gallery_spec(name).sample_points()
        A = alg.anchor_matrices(points)
        flags, _, _ = levi._anchor_svd(A, bd.rank_tol)
        assert np.array_equal(flags, ellipticity_margins(A, bd.rank_tol)[0]), name
        for i in (0, len(points) // 2, len(points) - 1):
            assert flags[i] == is_elliptic_at(alg, points[i], bd.rank_tol)[0], name


def intersection_dims(A):
    """dim rho(L) cap conj(rho(L)) = 2 rank A - rank [A, conj A], stacked."""
    rank = np.linalg.matrix_rank
    return 2 * rank(A) - rank(np.concatenate([A, A.conj()], axis=2))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_walk_ellipticity_flags_match_margins_on_drawn_anchor_stacks(data):
    # Gaussian-integer entries of modulus <= 3*sqrt(2) (repeats are scaled by
    # units) keep the m-th relative singular value of a full-rank 4 x 8
    # [A, conj A] above 24^-4, as det(M M^H) is a positive integer, and put
    # that of a rank-deficient one at rounding level: both decades from 1e-8
    n = data.draw(st.integers(1, 4), label="points")
    m = data.draw(st.integers(1, 4), label="m")
    l = data.draw(st.integers(1, 4), label="l")  # 2l < m for l = 1, m >= 3
    parts = st.lists(st.integers(-3, 3), min_size=n * m * l, max_size=n * m * l)
    A = np.array(data.draw(parts), dtype=float) + 1j * np.array(data.draw(parts))
    A = A.reshape(n, m, l)
    for i in range(n):
        for j in range(l):
            edit = data.draw(st.sampled_from(["keep", "zero", "repeat"]))
            if edit == "zero":
                A[i, :, j] = 0
            elif edit == "repeat":
                A[i, :, j] = data.draw(st.sampled_from([1, -1, 1j])) * A[i, :, j - 1]
    flags, Q, keep = levi._anchor_svd(A, 1e-8)
    assert np.array_equal(flags, ellipticity_margins(A, 1e-8)[0])
    assert Q.shape == (n, m, m) and keep.shape == (n, m)
    assert np.abs(Q.transpose(0, 2, 1) @ Q - np.eye(m)).max() <= 1e-14
    dims = keep.sum(axis=1)
    assert np.array_equal(dims, intersection_dims(A))
    # where the oracle's own cut sits above the anchors' rounding level, the
    # dimensions agree; below it the oracle keeps noise as a basis
    _, bases, scales = reference_anchor_svd(A, 1e-8)
    top = np.linalg.svd(A, compute_uv=False)[:, 0]
    real = scales > 1e-8 * top
    assert np.array_equal(dims[real], np.array([b.shape[1] for b in bases])[real])


def offset_copy(a, shift):
    """a's values in a C-ordered array that starts shift float64s into its
    buffer, as a view in a's axis order; a is real or complex."""
    order = np.argsort(a.strides)[::-1]
    t = a.transpose(order)
    words = t.size * t.itemsize // 8
    buf = np.zeros(words + shift)[shift:].view(a.dtype)
    out = buf.reshape(t.shape)
    out[...] = t
    return out.transpose(np.argsort(order))


def test_classification_does_not_depend_on_operand_alignment(monkeypatch):
    anchor_matrices, grad_values = AlgebroidSpec.anchor_matrices, BoundaryData.grad_values
    for name in ("poisson_c4", "poisson_c6", "ball_c2_dbar", "tangent_sphere"):
        alg, bd = gallery_build(name)
        points = gallery_spec(name).sample_points()[:300]
        want = classify_points(alg, bd, points)
        assert want
        for shift in range(1, 8):  # 8-byte steps through a 64-byte line
            monkeypatch.setattr(
                AlgebroidSpec, "anchor_matrices",
                lambda self, batch: offset_copy(anchor_matrices(self, batch), shift),
            )
            monkeypatch.setattr(
                BoundaryData, "grad_values",
                lambda self, batch: offset_copy(grad_values(self, batch), shift),
            )
            got = classify_points(alg, bd, points)
            assert [(c.elliptic, c.margin) for c in got] == [
                (c.elliptic, c.margin) for c in want
            ], (name, shift)
        monkeypatch.undo()


def command_bytes(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def test_levi_reports_do_not_depend_on_the_alignment_of_the_tail(monkeypatch):
    # every array the SVDs of _anchor_svd and _mu_functionals return, and
    # _mu_functionals' inputs, where q @ (q^H g) is a complex matmul, at 8-56
    # byte offsets into their buffers
    svd, mu_functionals = np.linalg.svd, levi._mu_functionals

    def offset_svd(shift):
        def svd_at(a, *args, **kwargs):
            result = svd(a, *args, **kwargs)
            if isinstance(result, np.ndarray):
                return offset_copy(result, shift)
            return tuple(offset_copy(x, shift) for x in result)
        return svd_at

    argvs = [[cmd, "--spec", name] + (["--samples", "300"] if cmd == "convexity" else [])
             for name in ("ball_c2_dbar", "ball_c3_dbar", "annulus_c3_dbar",
                          "tangent_sphere", "poisson_c6")
             for cmd in ("convexity", "levi")]
    want = [command_bytes(argv) for argv in argvs]
    for shift in range(1, 8):
        monkeypatch.setattr(np.linalg, "svd", offset_svd(shift))
        monkeypatch.setattr(levi, "_mu_functionals", lambda span, g, rel_tol: mu_functionals(
            offset_copy(span, shift), offset_copy(g, shift), rel_tol))
        for argv, report in zip(argvs, want):
            assert command_bytes(argv) == report, (argv, shift)
        monkeypatch.undo()


def test_classification_of_a_poisson_structure_vanishing_on_a_hyperplane():
    # sigma = z1 d/dz1 ^ d/dz2 vanishes on {z1 = 0}: there rho(L) = T^{0,1}
    # meets its conjugate in 0, although ker A is not 0
    text = (Path(__file__).parent / "specs" / "holomorphic_poisson_vanishing_on_z1_zero.spec")
    spec = parse_specfile(text.read_text())
    alg, bd = spec.build_algebroid(), spec.build_boundary()
    circle = [[0.0, 0.0, math.cos(t), math.sin(t)] for t in np.linspace(0.0, 6.2, 40)]
    for points in (circle, spec.sample_points()):
        classes = classify_points(alg, bd, points)
        oracle = gc_ellipticity_via_bivector(alg, bd, points)
        assert [c.elliptic for c in classes] == [c.elliptic for c in oracle]
    assert all(c.label == "NonElliptic" and c.margin == 0.0 for c in classify_points(alg, bd, circle))
    A = alg.anchor_matrices(circle)
    _, _, keep = levi._anchor_svd(A, bd.rank_tol)
    assert np.array_equal(keep.sum(axis=1), intersection_dims(A))
    assert not keep.any()


def test_walk_evaluates_anchors_once_and_classifies_without_complex_svds(monkeypatch):
    spec = gallery_spec("annulus_c3_dbar")
    alg, bd = spec.build_algebroid(), spec.build_boundary()
    points = spec.sample_points()
    stacked = (alg.chart.dim, 2 * alg.rank)  # [A, +-conj A] at a point
    counts = {"anchor rows": 0, "complex svds": 0, "complex stacked svds": 0}
    anchor_matrices, svd = AlgebroidSpec.anchor_matrices, np.linalg.svd

    def counted_anchor_matrices(self, batch):
        counts["anchor rows"] += len(batch)
        return anchor_matrices(self, batch)

    def counted_svd(a, *args, **kwargs):
        if np.iscomplexobj(a):
            counts["complex svds"] += 1
            counts["complex stacked svds"] += np.shape(a)[-2:] == stacked
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(AlgebroidSpec, "anchor_matrices", counted_anchor_matrices)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    classify_points(alg, bd, points)
    assert counts == {"anchor rows": len(points), "complex svds": 0, "complex stacked svds": 0}
    counts.update({"anchor rows": 0, "complex svds": 0})
    verdict = q_convex_set(alg, bd, points)
    assert all(rep.signature is not None for rep in verdict.reports)
    # the Levi tail's mu-projection is the only complex SVD left
    assert counts["anchor rows"] == len(points) and counts["complex stacked svds"] == 0


# ---------------------------------------------------------------------------
# adapted frames


def test_adapted_frame_tangency_is_exact():
    alg = make_antiholomorphic(2)
    bd = ball_boundary(alg.chart)
    point = [1.0, 0.0, 0.0, 0.0]
    frame = adapted_frame(alg, bd, point)
    fields, transverse = adapted_sections(alg, bd, frame)
    from hodgebench.levi import dr_pairing_expr

    for f in fields:
        pairing = const(alg.chart, 0)
        for t in range(alg.chart.dim):
            pairing = pairing + bd.grad[t] * f.components[t]
        assert pairing.is_zero  # tangent to every level set, not just dM
    tv = sum(
        bd.grad[t].eval(point) * transverse.components[t].eval(point)
        for t in range(alg.chart.dim)
    )
    assert tv == pytest.approx(1.0)


def test_adapted_frame_tangent_sphere_normal_direction():
    chart = Chart.real(3)
    alg = make_tangent(chart)
    bd = ball_boundary(chart)
    point = [0.0, 0.0, 1.0]
    frame = adapted_frame(alg, bd, point)
    _, transverse = adapted_sections(alg, bd, frame)
    val = np.array(transverse.eval(point))
    # grad r = 2 e3, so the transverse anchor is e3 / 2 = grad r / |grad r|^2
    assert np.allclose(val, [0, 0, 0.5])


# ---------------------------------------------------------------------------
# Levi form routes


def test_ball_c2_generic_matches_identity():
    alg = make_antiholomorphic(2)
    bd = ball_boundary(alg.chart)
    point = [1.0, 0.0, 0.0, 0.0]
    rep = levi_form_generic(alg, bd, point)
    assert rep.signature == (1, 0, 0)
    assert np.allclose(rep.levi, np.array([[1.0]]), atol=1e-10)


def test_ball_hessian_route_identity_and_flat_boundary():
    alg = make_antiholomorphic(3)
    bd = ball_boundary(alg.chart)
    point = list(sphere_lattice(6, 7)[3])
    basis = cr_kernel_basis(bd, [point])
    B = levi_form_complex_hessian(bd, [point], basis)[0]
    assert np.allclose(B, np.eye(2), atol=1e-10)
    # flat boundary Re(z_n) = 0: zero Hessian
    chart = alg.chart
    flat = BoundaryData(parse_expr("x5", chart))
    q = [0.3, -0.2, 0.7, 0.1, 0.0, 0.4]
    basis2 = cr_kernel_basis(flat, [q])
    B2 = levi_form_complex_hessian(flat, [q], basis2)[0]
    assert np.allclose(B2, 0.0, atol=1e-12)


def test_hessian_route_rejects_bad_basis():
    alg = make_antiholomorphic(2)
    bd = ball_boundary(alg.chart)
    point = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        levi_form_complex_hessian(bd, [point], np.array([[1.0, 0.0]]))


def test_generic_vs_hessian_route_agree():
    alg = make_antiholomorphic(2)
    # a non-round boundary keeps this honest
    chart = alg.chart
    r = parse_expr(
        "x1^2 + x2^2 + x3^2 + x4^2 + 0.5*x1*x3 + 0.25*x2 - 1", chart
    )
    bd = BoundaryData(r)
    # find a boundary point by scaling a direction
    direction = np.array([0.4, 0.7, 0.2, 0.5])

    def r_of(t):
        return r.eval(list(t * direction)).real

    lo, hi = 0.5, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if r_of(mid) < 0 else (lo, mid)
    point = list(0.5 * (lo + hi) * direction)
    basis = cr_kernel_basis(bd, [point])[0]
    B_h = levi_form_complex_hessian(bd, [point], basis)[0]
    # generic route with matching CR rows: section coefficients = basis
    rep = levi_form_generic(alg, bd, point, cr_rows=basis)
    assert np.allclose(rep.levi, B_h, atol=1e-8)
    assert rep.signature == eigen_signature(B_h)


def test_hessian_route_on_a_chart_with_non_consecutive_pairs():
    # z1 = x1 + i x3, z2 = x2 + i x4: the routes index by the pairing
    chart = Chart(4, complex_pairs=((0, 2), (1, 3)))
    anchors = tuple(wirtinger(chart, k, anti=True) for k in (1, 2))
    alg = AlgebroidSpec(chart, 2, anchors, {})
    bd = ball_boundary(chart)
    for p in sphere_lattice(4, 5):
        p = list(p)
        basis = cr_kernel_basis(bd, [p])[0]
        B_h = levi_form_complex_hessian(bd, [p], basis)[0]
        rep = levi_form_generic(alg, bd, p, cr_rows=basis)
        assert np.linalg.norm(rep.levi - B_h) <= 1e-8 * max(np.linalg.norm(B_h), 1.0)
        assert rep.signature == eigen_signature(B_h, bd.eig_zero_tol)
    # a Hessian that is not the identity in any pairing
    mixed = BoundaryData(parse_expr("z1*zb2 + zb1*z2 + 2*z2*zb2", chart))
    H = wirtinger_hessian(mixed, [[0.3, -0.1, 0.7, 0.2]])[0]
    assert np.allclose(H, [[0.0, 1.0], [1.0, 2.0]], atol=1e-14)


def test_generic_fast_path_agrees_with_exact_brackets():
    alg = poisson_c4()
    bd = ball_boundary(alg.chart)
    point = locus_points(4, 5)[2]
    fast = levi_form_generic(alg, bd, point)
    slow = levi_form_generic(alg, bd, point, exact=True)
    assert np.allclose(fast.levi, slow.levi, atol=1e-10)


def test_poisson_route_blocks_and_signature():
    alg = poisson_c4()
    bd = ball_boundary(alg.chart)
    point = locus_points(4, 1)[0]  # y = 1
    B, basis = (a[0] for a in levi_form_poisson(bd, alg.meta["sigma"], [point]))
    assert B.shape == (7, 7)
    assert np.allclose(B, B.conj().T, atol=1e-12)
    assert eigen_signature(B, bd.eig_zero_tol) == (5, 1, 0 + 1)
    # the x/dx pair carries the [[1, ybar], [y, 0]] eigenvalues (1 +- sqrt5)/2
    evals = np.linalg.eigvalsh(B)
    golden = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 0.0]]))
    for lam in golden:
        assert np.min(np.abs(evals - lam)) < 1e-10


def test_poisson_route_rejects_elliptic_point():
    alg = poisson_c4()
    bd = ball_boundary(alg.chart)
    with pytest.raises(ValueError):
        levi_form_poisson(bd, alg.meta["sigma"], [[1.0] + [0.0] * 7])


def test_poisson_route_sigma_zero_is_hessian_plus_zero():
    n = 2
    alg = make_holomorphic_poisson(n, {})
    bd = ball_boundary(alg.chart)
    point = [1.0, 0.0, 0.0, 0.0]
    B, basis = (a[0] for a in levi_form_poisson(bd, {}, [point]))
    H = levi_form_complex_hessian(bd, [point], basis)[0]
    k = basis.shape[0]
    assert np.allclose(B[:k, :k], H, atol=1e-12)
    assert np.allclose(B[k:, :], 0.0, atol=1e-12)
    assert np.allclose(B[:, k:], 0.0, atol=1e-12)


def test_generic_vs_poisson_route_agree_entrywise():
    alg = poisson_c4()
    bd = ball_boundary(alg.chart)
    n = 4
    for point in locus_points(n, 3):
        B_p, basis = (a[0] for a in levi_form_poisson(bd, alg.meta["sigma"], [point]))
        rows = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        k = basis.shape[0]
        rows[:k, :n] = basis
        for j in range(n):
            rows[k + j, n + j] = 1.0
        rep = levi_form_generic(alg, bd, point, cr_rows=rows)
        assert np.allclose(rep.levi, B_p, atol=1e-8)
        assert rep.signature == eigen_signature(B_p, bd.eig_zero_tol)


def adapted_cr_rows(alg, bd, points):
    """The generic route's own CR rows at each point, (N, l - 1, l): the unit
    rows but the pivot's, pivot = argmax |dr(rho(w_j))|, tangency-corrected."""
    P = eval_table([levi.dr_pairing_expr(alg, bd, j) for j in range(alg.rank)], points)
    n, l = P.shape
    at = np.arange(n)
    pivots = np.argmax(np.abs(P), axis=1)
    rows = np.broadcast_to(np.eye(l, dtype=complex), (n, l, l)).copy()
    rows[at, :, pivots] = -P / P[at, pivots][:, None]
    return rows[np.arange(l) != pivots[:, None]].reshape(n, l - 1, l)


@pytest.mark.parametrize(
    "name", ["ball_c2_dbar", "ball_c3_dbar", "annulus_c3_dbar", "poisson_c4", "poisson_c6"]
)
def test_generic_forms_match_the_stacked_oracles_on_every_non_elliptic_sample(name):
    # the CLI's own Levi forms, from q_convex_set, against the Hessian route
    # (dbar specs) or the Poisson blocks, all in the generic route's CR basis,
    # at criterion 5's tolerance
    alg, bd = gallery_build(name)
    reports = [r for r in q_convex_set(alg, bd, gallery_spec(name).sample_points()).reports
               if r.levi is not None]
    points = np.array([r.point for r in reports])
    rows = adapted_cr_rows(alg, bd, points)
    if alg.meta["kind"] == "holomorphic_poisson":
        n = alg.chart.n_complex
        # the pivot is a T^{0,1} section, as the sigma pairings vanish here
        B, _ = levi_form_poisson(bd, alg.meta["sigma"], points, rows[:, : n - 1, :n])
    else:
        B = levi_form_complex_hessian(bd, points, rows)
    generic = np.array([r.levi for r in reports])
    scale = np.maximum(np.linalg.norm(B, axis=(1, 2)), 1.0)
    assert np.all(np.linalg.norm(generic - B, axis=(1, 2)) <= 1e-8 * scale)
    assert [r.signature for r in reports] == [eigen_signature(b, bd.eig_zero_tol) for b in B]
    assert len(reports) == {"poisson_c4": 20, "poisson_c6": 20}.get(name, 1000)


def test_stacked_oracles_raise_the_first_failing_points_error():
    alg = make_antiholomorphic(2)
    # r = |x|^2 vanishes only at the origin, where dr = 0 too
    bd = BoundaryData(parse_expr("x1^2 + x2^2 + x3^2 + x4^2", alg.chart))
    origin, off = [0.0] * 4, [1.0, 0.0, 0.0, 0.0]
    basis = np.array([[1.0, 0.0]])
    for oracle in (
        lambda pts: levi_form_complex_hessian(bd, pts, basis),
        lambda pts: levi_form_poisson(bd, {}, pts),
        lambda pts: gc_ellipticity_via_bivector(alg, bd, pts),
    ):
        with pytest.raises(ValueError, match="degenerate"):
            oracle([origin, off])
        with pytest.raises(ValueError, match="not on the boundary"):
            oracle([off, origin])


def test_exact_route_brackets_polynomial_fields_on_the_annulus():
    alg, bd = gallery_build("annulus_c3_dbar")
    for p in sphere_lattice(6, 6)[:3]:
        start = time.perf_counter()
        exact = levi_form_generic(alg, bd, p, exact=True)
        assert time.perf_counter() - start < 10.0
        fast = levi_form_generic(alg, bd, p)
        scale = max(np.linalg.norm(fast.levi), 1.0)
        assert np.linalg.norm(exact.levi - fast.levi) <= 1e-8 * scale
        assert exact.signature == fast.signature


# ---------------------------------------------------------------------------
# independence and conformal properties


def test_projection_independence():
    alg = make_antiholomorphic(2)
    bd = ball_boundary(alg.chart)
    point = [0.0, 1.0, 0.0, 0.0]
    frame = adapted_frame(alg, bd, point)
    fields, transverse = adapted_sections(alg, bd, frame)
    base = levi_from_cr_fields(bd, fields, transverse, point)
    vals = [np.array(f.eval(point)) for f in fields]
    span = np.array(vals + [v.conj() for v in vals]).T
    t_val = np.array(transverse.eval(point))
    g = 1j * (t_val.conj() - t_val)
    q, _, _ = np.linalg.svd(span, full_matrices=False)
    psi0 = g - q @ (q.conj().T @ g)
    psi0 = psi0.conj() / np.vdot(psi0, g)
    rng = np.random.default_rng(42)
    for _ in range(10):
        # random functional vanishing on the span, normalized on g
        w = rng.normal(size=span.shape[0]) + 1j * rng.normal(size=span.shape[0])
        w = w - (q @ (q.conj().T @ w.conj())).conj()
        psi = psi0 + 0.5 * (w - (np.dot(w, g) / np.dot(psi0 * 0 + psi0, g)) * psi0 * 0)
        # enforce psi(span)=0 and psi(g)=1 exactly
        psi = psi - (q.conj() @ (q.T @ psi))
        psi = psi / np.dot(psi, g)
        B = levi_from_cr_fields(bd, fields, transverse, point, projector=psi)
        assert np.allclose(B, base, atol=1e-10)


def test_extension_independence():
    alg = make_antiholomorphic(2)
    chart = alg.chart
    bd = ball_boundary(chart)
    point = [0.0, 0.0, 1.0, 0.0]  # here dr(rho(w_2)) = z2 = 1 exactly
    from hodgebench.levi import dr_pairing_expr

    P1 = dr_pairing_expr(alg, bd, 0)
    P2 = dr_pairing_expr(alg, bd, 1)
    # polynomial CR field P2 w1 - P1 w2: tangent to every level set and equal
    # to the adapted section at the point, so the same Levi value applies
    cr = alg.anchors[0].scale(P2) - alg.anchors[1].scale(P1)
    transverse = alg.anchors[1]
    base = levi_from_cr_fields(bd, [cr], transverse, point)
    rep = levi_form_generic(alg, bd, point)
    assert np.allclose(base, rep.levi, atol=1e-10)
    rng = np.random.default_rng(7)
    r2 = bd.r * bd.r
    for _ in range(10):
        noise = VectorFieldExpr(
            chart,
            tuple(
                const(chart, complex(rng.normal(), rng.normal())) * r2
                for _ in range(chart.dim)
            ),
        )
        B = levi_from_cr_fields(bd, [cr + noise], transverse, point)
        assert np.allclose(B, base, atol=1e-8)


def test_conformal_rescire_of_r():
    # r -> c r keeps classification and signature; the dr(nu)=1-normalized
    # matrix scales by c, identically across routes
    alg = make_antiholomorphic(2)
    chart = alg.chart
    bd1 = ball_boundary(chart)
    c = 3.5
    bd2 = BoundaryData(const(chart, c) * bd1.r)
    point = [0.0, 1.0, 0.0, 0.0]
    rep1 = levi_form_generic(alg, bd1, point)
    rep2 = levi_form_generic(alg, bd2, point)
    assert rep1.signature == rep2.signature
    assert np.allclose(rep2.levi, c * rep1.levi, atol=1e-10)
    basis = cr_kernel_basis(bd1, [point])
    H1 = levi_form_complex_hessian(bd1, [point], basis)[0]
    H2 = levi_form_complex_hessian(bd2, [point], basis)[0]
    assert np.allclose(H2, c * H1, atol=1e-12)


def test_frame_rescaling_leaves_normalized_matrix():
    # rescaling the pivot section is absorbed by the dr(nu)=1 normalization
    # (rescaling a CR section scales the form quadratically instead)
    alg = make_antiholomorphic(2)
    from hodgebench.algebroids import AlgebroidSpec

    scaled = AlgebroidSpec(
        alg.chart,
        2,
        (alg.anchors[0].scale(const(alg.chart, 2.0 + 1.0j)), alg.anchors[1]),
        {},
        "scaled",
    )
    bd = ball_boundary(alg.chart)
    point = [1.0, 0.0, 0.0, 0.0]  # pivot is the z1-direction here
    rep1 = levi_form_generic(alg, bd, point)
    rep2 = levi_form_generic(scaled, bd, point)
    assert np.allclose(rep1.levi, rep2.levi, atol=1e-10)


# ---------------------------------------------------------------------------
# signatures, convexity, gc shortcut


def test_eigen_signature_basics():
    assert eigen_signature(np.eye(3)) == (3, 0, 0)
    assert eigen_signature(np.diag([1.0, -1.0, 0.0])) == (1, 1, 1)
    assert eigen_signature(np.zeros((2, 2))) == (0, 0, 2)
    assert eigen_signature(np.zeros((0, 0))) == (0, 0, 0)


def test_q_convex_ball():
    for n in (2, 3):
        alg = make_antiholomorphic(n)
        bd = ball_boundary(alg.chart)
        pts = [list(p) for p in sphere_lattice(2 * n, 40)]
        verdict = q_convex_set(alg, bd, pts)
        assert verdict.q_set == frozenset(range(1, n + 1))
        assert 0 in verdict.witnesses


def test_q_convex_annulus_c3():
    alg = make_antiholomorphic(3)
    chart = alg.chart
    rho0 = 0.5
    sq = " + ".join(f"{nm}^2" for nm in chart.names)
    r = parse_expr(f"({sq} - 1)*({sq} - {rho0 * rho0})", chart)
    bd = BoundaryData(r)
    pts = [list(p) for p in sphere_lattice(6, 30)]
    pts += [list(p) for p in sphere_lattice(6, 30, radius=rho0)]
    verdict = q_convex_set(alg, bd, pts)
    assert verdict.q_set & {0, 1, 2} == {1}
    assert 3 in verdict.q_set  # top degree always passes


def test_q_convex_poisson_c4():
    alg = poisson_c4()
    bd = ball_boundary(alg.chart)
    pts = [list(p) for p in sphere_lattice(8, 30)] + locus_points(4, 6)
    verdict = q_convex_set(alg, bd, pts)
    assert verdict.q_set == frozenset({0}) | frozenset(range(3, 9))
    assert 1 in verdict.witnesses and 2 in verdict.witnesses


def test_gc_routes():
    # symplectic: elliptic everywhere
    chart = Chart.real(2)
    omega = FormExpr.from_table(chart, 2, {(0, 1): const(chart, 1j)})
    alg = make_graph_two_form(omega)
    bd = ball_boundary(chart)
    assert all(c.elliptic for c in gc_ellipticity_via_bivector(alg, bd, sphere_lattice(2, 10)))
    # complex type: pi_J = 0, non-elliptic everywhere
    anti = make_antiholomorphic(2)
    cls = gc_ellipticity_via_bivector(anti, ball_boundary(anti.chart), [[1.0, 0, 0, 0]])
    assert cls == [Classification(False, 0.0)]
    # holomorphic Poisson: agrees with classify_point on random samples
    alg_p = poisson_c4()
    bd8 = ball_boundary(alg_p.chart)
    points = sphere_lattice(8, 50)
    a = [c.elliptic for c in gc_ellipticity_via_bivector(alg_p, bd8, points)]
    assert a == [c.elliptic for c in classify_points(alg_p, bd8, points)]
    with pytest.raises(ValueError):
        gc_ellipticity_via_bivector(make_tangent(Chart.real(2)), bd, [[1.0, 0.0]])


def test_poisson_c6_signature():
    chart = Chart.complex_chart(6)
    sigma = {
        (1, 2): parse_expr("z1", chart),
        (3, 4): const(chart, 1),
        (5, 6): const(chart, 1),
    }
    alg = make_holomorphic_poisson(6, sigma)
    bd = ball_boundary(chart)
    point = locus_points(6, 1)[0]
    B = levi_form_poisson(bd, sigma, [point])[0][0]
    assert B.shape == (11, 11)
    assert eigen_signature(B, bd.eig_zero_tol) == (9, 1, 1)
    rep = levi_form_generic(alg, bd, point)
    assert rep.signature == (9, 1, 1)


def test_hermitian_defect_small_across_examples():
    # pre-symmetrization defect stays below 1e-6 relative on the built-ins
    cases = []
    alg2 = make_antiholomorphic(2)
    cases.append((alg2, ball_boundary(alg2.chart), [0.0, 1.0, 0.0, 0.0]))
    algp = poisson_c4()
    cases.append((algp, ball_boundary(algp.chart), locus_points(4, 1)[0]))
    for alg, bd, point in cases:
        rep = levi_form_generic(alg, bd, point)
        assert rep.hermitian_defect <= 1e-6


def test_positive_definite_monotone_sanity():
    # full positive Levi form: q-pass for all q >= 1, q-fail at q = 0
    alg = make_antiholomorphic(2)
    bd = ball_boundary(alg.chart)
    pts = [list(p) for p in sphere_lattice(4, 10)]
    verdict = q_convex_set(alg, bd, pts)
    assert all(q in verdict.q_set for q in range(1, 3))
    assert 0 not in verdict.q_set


def test_sphere_lattice_determinism_and_radius():
    a = sphere_lattice(5, 17)
    b = sphere_lattice(5, 17)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    c = sphere_lattice(3, 9, radius=0.5)
    assert np.allclose(np.linalg.norm(c, axis=1), 0.5)
