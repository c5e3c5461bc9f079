import math
import warnings

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
from hodgebench.calculus import FormExpr, VectorFieldExpr
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
)
from hodgebench.scalars import Chart, const, parse_expr


def ball_boundary(chart):
    r = parse_expr(
        " + ".join(f"{n}^2" for n in chart.names) + " - 1", chart
    )
    return BoundaryData(r)


def poisson_c4():
    chart = Chart.complex_chart(4)
    sigma = {(1, 2): parse_expr("z1", chart), (3, 4): const(chart, 1)}
    return make_holomorphic_poisson(4, sigma, name="poisson_c4")


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
# must reproduce the classifications and signatures exactly.  The Levi
# matrices are bit-equal on the Poisson specs; elsewhere the stacked
# contractions round differently, within 1e-14 relative.

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
    if abs(val) > bd.boundary_tol:
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
        spec = gallery_spec(name)
        spec.samples = 24
        alg, bd = spec.build_algebroid(), spec.build_boundary()
        points = spec.sample_points()
        want = [reference_classify(alg, bd, p) for p in points]
        got = classify_points(alg, bd, points)
        assert [(c.elliptic, c.margin) for c in got] == [(c.elliptic, c.margin) for c in want]
        assert classify_point(alg, bd, points[-1]) == want[-1]
        non_elliptic = [p for p, c in zip(points, want) if not c.elliptic]
        refs = {tuple(p): reference_levi(alg, bd, p) for p in non_elliptic}
        assert refs or name in ("tangent_sphere", "symplectic_gc"), name
        for rep, p in zip(levi_forms_generic(alg, bd, non_elliptic[:9]), non_elliptic):
            assert_levi_matches_reference(rep, refs[tuple(p)], name)
        verdict = q_convex_set(alg, bd, points)
        for rep, p, c in zip(verdict.reports, points, want):
            assert rep.classification == c
            if not c.elliptic:
                assert_levi_matches_reference(rep, refs[tuple(p)], name)


def test_levi_forms_do_not_depend_on_the_block_size(monkeypatch):
    for name in ("annulus_c3_dbar", "ball_c2_dbar", "ball_c3_dbar") + EXACT_LEVI:
        spec = gallery_spec(name)
        spec.samples = 200
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


def test_batched_errors_are_those_of_the_first_bad_point(monkeypatch):
    monkeypatch.setattr(levi, "_BLOCK", 3)
    chart = Chart.real(2)
    circle = [[math.cos(t), math.sin(t)] for t in np.linspace(0.1, 6.0, 8)]
    off = [0.2, 0.3]
    tangent, zero_anchors = make_tangent(chart), make_graph_bivector(chart, {})
    round_r, flat_r = ball_boundary(chart), BoundaryData(
        parse_expr("(x1^2 + x2^2 - 1)^2", chart)  # dr vanishes on the circle
    )
    cases = [
        (tangent, round_r, circle[:5] + [off] + circle[5:]),
        (zero_anchors, round_r, circle[:4] + [off]),
        (zero_anchors, round_r, [off] + circle),
        (tangent, flat_r, circle[:2] + [off]),
        (tangent, flat_r, [off] + circle),
        (zero_anchors, flat_r, circle),
    ]
    for alg, bd, points in cases:
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
# the one walk: one anchor evaluation and one stacked SVD per point


def test_walk_ellipticity_flags_match_margins_on_gallery_samples():
    for name in gallery_names():
        spec = gallery_spec(name)
        alg, bd = spec.build_algebroid(), spec.build_boundary()
        points = spec.sample_points()
        A = alg.anchor_matrices(points)
        flags, _ = levi._anchor_svd(A, bd.rank_tol)
        assert np.array_equal(flags, ellipticity_margins(A, bd.rank_tol)[0]), name
        for i in (0, len(points) // 2, len(points) - 1):
            assert flags[i] == is_elliptic_at(alg, points[i], bd.rank_tol)[0], name


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
    flags, bases = levi._anchor_svd(A, 1e-8)
    assert np.array_equal(flags, ellipticity_margins(A, 1e-8)[0])
    assert [b.shape[0] for b in bases] == [m] * n


def test_walk_evaluates_anchors_once_and_takes_one_stacked_svd_per_point(monkeypatch):
    spec = gallery_spec("annulus_c3_dbar")
    alg, bd = spec.build_algebroid(), spec.build_boundary()
    points = spec.sample_points()
    stacked = (alg.chart.dim, 2 * alg.rank)  # [A, +-conj A] at a point
    counts = {"anchor rows": 0, "stacked svds": 0}
    anchor_matrices, svd = AlgebroidSpec.anchor_matrices, np.linalg.svd

    def counted_anchor_matrices(self, batch):
        counts["anchor rows"] += len(batch)
        return anchor_matrices(self, batch)

    def counted_svd(a, *args, **kwargs):
        if np.shape(a)[-2:] == stacked:
            counts["stacked svds"] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(AlgebroidSpec, "anchor_matrices", counted_anchor_matrices)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    verdict = q_convex_set(alg, bd, points)
    assert all(rep.signature is not None for rep in verdict.reports)
    assert counts == {"anchor rows": len(points), "stacked svds": len(points)}
    counts.update({"anchor rows": 0, "stacked svds": 0})
    classify_points(alg, bd, points)
    assert counts == {"anchor rows": len(points), "stacked svds": len(points)}


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
    basis = cr_kernel_basis(bd, point)
    B = levi_form_complex_hessian(bd, point, basis)
    assert np.allclose(B, np.eye(2), atol=1e-10)
    # flat boundary Re(z_n) = 0: zero Hessian
    chart = alg.chart
    flat = BoundaryData(parse_expr("x5", chart))
    q = [0.3, -0.2, 0.7, 0.1, 0.0, 0.4]
    basis2 = cr_kernel_basis(flat, q)
    B2 = levi_form_complex_hessian(flat, q, basis2)
    assert np.allclose(B2, 0.0, atol=1e-12)


def test_hessian_route_rejects_bad_basis():
    alg = make_antiholomorphic(2)
    bd = ball_boundary(alg.chart)
    point = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        levi_form_complex_hessian(bd, point, np.array([[1.0, 0.0]]))


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
    basis = cr_kernel_basis(bd, point)
    B_h = levi_form_complex_hessian(bd, point, basis)
    # generic route with matching CR rows: section coefficients = basis
    rep = levi_form_generic(alg, bd, point, cr_rows=basis)
    assert np.allclose(rep.levi, B_h, atol=1e-8)
    assert rep.signature == eigen_signature(B_h)


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
    B, basis = levi_form_poisson(bd, alg.meta["sigma"], point)
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
        levi_form_poisson(bd, alg.meta["sigma"], [1.0] + [0.0] * 7)


def test_poisson_route_sigma_zero_is_hessian_plus_zero():
    n = 2
    alg = make_holomorphic_poisson(n, {})
    bd = ball_boundary(alg.chart)
    point = [1.0, 0.0, 0.0, 0.0]
    B, basis = levi_form_poisson(bd, {}, point)
    H = levi_form_complex_hessian(bd, point, basis)
    k = basis.shape[0]
    assert np.allclose(B[:k, :k], H, atol=1e-12)
    assert np.allclose(B[k:, :], 0.0, atol=1e-12)
    assert np.allclose(B[:, k:], 0.0, atol=1e-12)


def test_generic_vs_poisson_route_agree_entrywise():
    alg = poisson_c4()
    bd = ball_boundary(alg.chart)
    n = 4
    for point in locus_points(n, 3):
        B_p, basis = levi_form_poisson(bd, alg.meta["sigma"], point)
        rows = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        k = basis.shape[0]
        rows[:k, :n] = basis
        for j in range(n):
            rows[k + j, n + j] = 1.0
        rep = levi_form_generic(alg, bd, point, cr_rows=rows)
        assert np.allclose(rep.levi, B_p, atol=1e-8)
        assert rep.signature == eigen_signature(B_p, bd.eig_zero_tol)


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
    basis = cr_kernel_basis(bd1, point)
    H1 = levi_form_complex_hessian(bd1, point, basis)
    H2 = levi_form_complex_hessian(bd2, point, basis)
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
    alg = make_graph_two_form(omega, name="symplectic")
    bd = ball_boundary(chart)
    for p in sphere_lattice(2, 10):
        assert gc_ellipticity_via_bivector(alg, bd, list(p)).elliptic
    # complex type: pi_J = 0, non-elliptic everywhere
    anti = make_antiholomorphic(2)
    bd4 = ball_boundary(anti.chart)
    assert not gc_ellipticity_via_bivector(anti, bd4, [1.0, 0, 0, 0]).elliptic
    # holomorphic Poisson: agrees with classify_point on random samples
    alg_p = poisson_c4()
    bd8 = ball_boundary(alg_p.chart)
    for p in sphere_lattice(8, 50):
        point = list(p)
        a = gc_ellipticity_via_bivector(alg_p, bd8, point).elliptic
        b = classify_point(alg_p, bd8, point).elliptic
        assert a == b
    with pytest.raises(ValueError):
        gc_ellipticity_via_bivector(make_tangent(Chart.real(2)), bd, [1.0, 0.0])


def test_poisson_c6_signature():
    chart = Chart.complex_chart(6)
    sigma = {
        (1, 2): parse_expr("z1", chart),
        (3, 4): const(chart, 1),
        (5, 6): const(chart, 1),
    }
    alg = make_holomorphic_poisson(6, sigma, name="poisson_c6")
    bd = ball_boundary(chart)
    point = locus_points(6, 1)[0]
    B, _ = levi_form_poisson(bd, sigma, point)
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
