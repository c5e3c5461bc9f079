"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) and asserts the criterion, so the module doubles as the
exit gate and as a human-readable checklist.
"""

import json
import math
import random
import time
from functools import lru_cache

import numpy as np
import pytest

from hodgebench.algebroids import (
    d_squared_residual,
    jacobiator,
    make_antiholomorphic,
    make_graph_bivector,
    make_holomorphic_poisson,
    make_tangent,
)
from hodgebench.calculus import (
    FormExpr,
    GeneralizedSection,
    VectorFieldExpr,
    courant_bracket,
    exterior_derivative,
    interior,
    lie_bracket,
)
from hodgebench.cli import dumps, main
from hodgebench.gallery import gallery_spec
from hodgebench.levi import (
    BoundaryData,
    adapted_frame,
    adapted_sections,
    cr_kernel_basis,
    eigen_signature,
    levi_form_complex_hessian,
    levi_form_generic,
    levi_form_poisson,
    levi_from_cr_fields,
    q_convex_set,
    sphere_lattice,
)
from hodgebench.neumann import (
    AnnulusGrid,
    NeumannProblem,
    basic_estimate_report,
    family_continuity,
    hodge_split,
    solve_dbar,
    solve_dbar_lstsq,
)
from hodgebench.scalars import Chart, const, parse_expr, var
from hodgebench.sobolev import (
    HalfGrid,
    INEQUALITY_IDS,
    TorusGrid,
    commutator,
    double_commutator,
    kernel_lemma_check,
    leibniz_battery,
    nested_commutator,
    random_torus_field,
    sobolev_norm,
)


def report(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def locus_points(n, count):
    pts = []
    for k in range(count):
        theta = 2 * math.pi * ((k * 0.6180339887498949) % 1.0)
        p = [0.0] * (2 * n)
        p[2], p[3] = math.cos(theta), math.sin(theta)
        pts.append(p)
    return pts


@lru_cache(maxsize=None)
def built(name):
    """(algebroid, boundary) of a gallery entry, built once per test run."""
    spec = gallery_spec(name)
    return spec.build_algebroid(), spec.build_boundary()


def run_command(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------


def test_criterion_1_poisson_levi_signature():
    t0 = time.perf_counter()
    chart4 = Chart.complex_chart(4)
    sigma4 = {(1, 2): parse_expr("z1", chart4), (3, 4): const(chart4, 1)}
    alg = make_holomorphic_poisson(4, sigma4)
    bd = BoundaryData(
        parse_expr(" + ".join(f"x{i + 1}^2" for i in range(8)) + " - 1", chart4)
    )
    ok = True
    for p in locus_points(4, 20):
        rep = levi_form_generic(alg, bd, p)
        B = levi_form_poisson(bd, sigma4, [p])[0][0]
        sig_p = eigen_signature(B, bd.eig_zero_tol)
        ok &= rep.signature == (5, 1, 1) and sig_p == (5, 1, 1)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    # repeat for k = 2 on C^6
    chart6 = Chart.complex_chart(6)
    sigma6 = {
        (1, 2): parse_expr("z1", chart6),
        (3, 4): const(chart6, 1),
        (5, 6): const(chart6, 1),
    }
    alg6 = make_holomorphic_poisson(6, sigma6)
    bd6 = BoundaryData(
        parse_expr(" + ".join(f"x{i + 1}^2" for i in range(12)) + " - 1", chart6)
    )
    for p in locus_points(6, 20):
        rep = levi_form_generic(alg6, bd6, p)
        B = levi_form_poisson(bd6, sigma6, [p])[0][0]
        ok &= rep.signature == (9, 1, 1)
        ok &= eigen_signature(B, bd6.eig_zero_tol) == (9, 1, 1)
    report(
        1,
        ok,
        f"poisson signatures (5,1,1)/(9,1,1) on 20 locus points, k=1 block in {elapsed:.2f}s",
    )


def test_criterion_2_poisson_convexity_set(capsys):
    code, rep = run_command(capsys, "convexity", "--spec", "poisson_c4")
    expected = sorted({0} | set(range(3, 9)))
    ok = code == 0 and rep["q_set"] == expected
    ok &= "1" in rep["witnesses"] and "2" in rep["witnesses"]
    for q in ("1", "2"):
        ok &= len(rep["witnesses"][q]["point"]) == 8
    code2, _ = run_command(
        capsys, "convexity", "--spec", "poisson_c4", "--require-q", "2"
    )
    ok &= code2 == 2
    report(2, ok, f"poisson_c4 q_set = {rep['q_set']} with explicit witnesses at q=1,2")


def test_criterion_3_ball_and_annulus():
    ok = True
    for n in (2, 3):
        alg, bd = built(f"ball_c{n}_dbar")
        pts = [list(p) for p in sphere_lattice(2 * n, 150)]
        verdict = q_convex_set(alg, bd, pts)
        ok &= verdict.q_set >= set(range(1, n + 1))
        for p in pts[:25]:
            basis = cr_kernel_basis(bd, [p])
            B = levi_form_complex_hessian(bd, [p], basis)[0]
            ok &= np.linalg.norm(B - np.eye(n - 1)) <= 1e-8
    alg_a, bd_a = built("annulus_c3_dbar")
    pts = [list(p) for p in sphere_lattice(6, 75)]
    pts += [list(p) for p in sphere_lattice(6, 75, radius=0.5)]
    verdict = q_convex_set(alg_a, bd_a, pts)
    ok &= verdict.q_set & {1, 2} == {1} and 3 in verdict.q_set and 0 not in verdict.q_set
    report(3, ok, "ball q-sets contain 1..n with identity Levi; annulus passes exactly q=1")


def test_criterion_4_classification_dichotomy(capsys):
    results = {}
    ok = True
    for name, expect in (
        ("tangent_sphere", 1.0),
        ("ball_c2_dbar", 0.0),
        ("symplectic_gc", 1.0),
    ):
        code, rep = run_command(
            capsys, "classify", "--spec", name, "--samples", "1000"
        )
        ok &= code == 0 and rep["samples"] >= 1000
        ok &= rep["elliptic_fraction"] == expect
        ok &= "margin_min" in rep and "margin_max" in rep
        results[name] = rep["elliptic_fraction"]
    report(4, ok, f"elliptic fractions over 1000 samples: {results}")


def test_criterion_5_route_agreement():
    ok = True
    # Hessian route vs generic on the dbar gallery entries
    for name, n in (("ball_c2_dbar", 2), ("ball_c3_dbar", 3), ("annulus_c3_dbar", 3)):
        alg, bd = built(name)
        pts = [list(p) for p in sphere_lattice(2 * n, 6)]
        if name.startswith("annulus"):
            pts += [list(p) for p in sphere_lattice(2 * n, 6, radius=0.5)]
        for p in pts:
            basis = cr_kernel_basis(bd, [p])[0]
            B_h = levi_form_complex_hessian(bd, [p], basis)[0]
            rep = levi_form_generic(alg, bd, p, cr_rows=basis)
            ok &= np.linalg.norm(rep.levi - B_h) <= 1e-8 * max(
                np.linalg.norm(B_h), 1.0
            )
            ok &= rep.signature == eigen_signature(B_h, bd.eig_zero_tol)
    # Poisson blocks vs generic on the poisson entries
    for name, n in (("poisson_c4", 4), ("poisson_c6", 6)):
        alg, bd = built(name)
        sigma = alg.meta["sigma"]
        for p in locus_points(n, 5):
            B_p, basis = (a[0] for a in levi_form_poisson(bd, sigma, [p]))
            rows = np.zeros((2 * n - 1, 2 * n), dtype=complex)
            k = basis.shape[0]
            rows[:k, :n] = basis
            for j in range(n):
                rows[k + j, n + j] = 1.0
            rep = levi_form_generic(alg, bd, p, cr_rows=rows)
            ok &= np.linalg.norm(rep.levi - B_p) <= 1e-8 * np.linalg.norm(B_p)
            ok &= rep.signature == eigen_signature(B_p, bd.eig_zero_tol)
    # projection independence: random quotient functionals
    alg, bd = built("ball_c2_dbar")
    point = [0.0, 1.0, 0.0, 0.0]
    frame = adapted_frame(alg, bd, point)
    fields, transverse = adapted_sections(alg, bd, frame)
    base = levi_from_cr_fields(bd, fields, transverse, point)
    vals = [np.array(f.eval(point)) for f in fields]
    span = np.array(vals + [v.conj() for v in vals]).T
    t_val = np.array(transverse.eval(point))
    g = 1j * (t_val.conj() - t_val)
    q, s, _ = np.linalg.svd(span, full_matrices=False)
    q = q[:, s > 1e-10 * s[0]]
    rng = np.random.default_rng(2024)
    for _ in range(10):
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = w - (q.conj() @ (q.T @ w))
        if abs(np.dot(psi, g)) < 1e-6:
            continue
        psi = psi / np.dot(psi, g)
        B = levi_from_cr_fields(bd, fields, transverse, point, projector=psi)
        ok &= np.allclose(B, base, atol=1e-10)
    # extension independence: r^2-perturbed CR fields
    from hodgebench.levi import dr_pairing_expr

    chart = alg.chart
    point2 = [0.0, 0.0, 1.0, 0.0]
    P1 = dr_pairing_expr(alg, bd, 0)
    P2 = dr_pairing_expr(alg, bd, 1)
    cr = alg.anchors[0].scale(P2) - alg.anchors[1].scale(P1)
    transverse2 = alg.anchors[1]
    base2 = levi_from_cr_fields(bd, [cr], transverse2, point2)
    r2 = bd.r * bd.r
    for _ in range(10):
        noise = VectorFieldExpr(
            chart,
            tuple(
                const(chart, complex(rng.normal(), rng.normal())) * r2
                for _ in range(chart.dim)
            ),
        )
        B = levi_from_cr_fields(bd, [cr + noise], transverse2, point2)
        ok &= np.allclose(B, base2, atol=1e-8)
    report(5, ok, "route agreement to 1e-8 plus projection/extension independence")


def test_criterion_6_courant_ce_symbolic_suite():
    ok = True
    chart = Chart.real(3)
    rng = random.Random(20260810)

    def rand_poly(degree=2):
        e = const(chart, 0)
        for _ in range(3):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            term = const(chart, c)
            for _ in range(rng.randrange(0, degree + 1)):
                term = term * var(chart, rng.randrange(3))
            e = e + term
        return e

    def rand_field():
        return VectorFieldExpr(chart, tuple(rand_poly() for _ in range(3)))

    def rand_form(degree):
        from itertools import combinations

        return FormExpr.from_table(
            chart, degree, {idx: rand_poly() for idx in combinations(range(3), degree)}
        )

    for _ in range(25):
        omega, H = rand_form(2), rand_form(3)
        X, Y = rand_field(), rand_field()
        u = GeneralizedSection(X, interior(X, omega))
        v = GeneralizedSection(Y, interior(Y, omega))
        lhs = courant_bracket(u, v, H)
        br = lie_bracket(X, Y)
        rhs = GeneralizedSection(
            br,
            interior(br, omega)
            + interior(Y, interior(X, exterior_derivative(omega) - H)),
        )
        ok &= (lhs - rhs).is_zero
    pts = [list(p) for p in sphere_lattice(3, 5)]
    pts8 = [list(p) for p in sphere_lattice(8, 5)]
    ok &= d_squared_residual(make_tangent(chart), pts) == 0.0
    ok &= d_squared_residual(make_antiholomorphic(2), [list(p) for p in sphere_lattice(4, 5)]) == 0.0
    alg_p, _ = built("poisson_c4")
    ok &= d_squared_residual(alg_p, pts8) == 0.0
    pi = {(0, 1): var(chart, 1), (1, 2): var(chart, 0)}
    alg_bad = make_graph_bivector(chart, pi)
    res = d_squared_residual(alg_bad, pts)
    ok &= res > 1e-6
    jac = jacobiator(chart, pi, var(chart, 0), var(chart, 1), var(chart, 2))
    ok &= not jac.is_zero  # independent Jacobiator cross-check
    pi_good = {(0, 1): var(chart, 2), (0, 2): -var(chart, 1), (1, 2): var(chart, 0)}
    ok &= d_squared_residual(make_graph_bivector(chart, pi_good), pts) == 0.0
    ok &= all(
        jacobiator(chart, pi_good, var(chart, a), var(chart, b), var(chart, c)).is_zero
        for a in range(3)
        for b in range(3)
        for c in range(3)
    )
    report(6, ok, "graph-of-omega identity (25 random cases) and d^2 residuals, cross-validated")


def test_criterion_7_kernel_lemmas():
    worst = {}
    ok = True
    for part in ("i", "ii", "iii"):
        out = kernel_lemma_check(part)
        worst[part] = out["max_violation"]
        ok &= out["max_violation"] <= 1e-12
    report(7, ok, f"kernel lemma max relative violations: {worst}")


def test_criterion_8_leibniz_batteries():
    ok = True
    maxima = {}
    for ineq in INEQUALITY_IDS:
        if ineq.startswith("A"):
            coarse, fine = TorusGrid(2, 64), TorusGrid(2, 128)
        else:
            coarse, fine = HalfGrid(2, 64, 33), HalfGrid(2, 128, 65)
        rep1 = leibniz_battery(ineq, coarse, trials=6, seed=11)
        rep1b = leibniz_battery(ineq, coarse, trials=6, seed=11)
        ok &= dumps(rep1) == dumps(rep1b)  # byte-identical under the seed
        rep2 = leibniz_battery(ineq, fine, trials=6, seed=11)
        m1, m2 = rep1["max_ratio"], rep2["max_ratio"]
        ok &= math.isfinite(m1) and m1 > 0
        drift = abs(m2 - m1) / m1
        ok &= drift <= 0.2
        maxima[ineq] = (round(m1, 6), round(drift, 4))
    # homogeneity: LHS and RHS scale together under f -> lam f
    grid = TorusGrid(2, 64)
    rng = np.random.default_rng(17)
    f = random_torus_field(grid, rng)
    phi = random_torus_field(grid, rng)
    g = random_torus_field(grid, rng)
    lam = 5.0
    pairs = [
        (commutator(grid, 1.0, f, phi), commutator(grid, 1.0, lam * f, phi)),
        (
            double_commutator(grid, 1.0, f, phi),
            double_commutator(grid, 1.0, lam * f, phi),
        ),
        (
            nested_commutator(grid, 2.0, f, g, phi),
            nested_commutator(grid, 2.0, lam * f, g, phi),
        ),
        (f * phi, (lam * f) * phi),
    ]
    for base_field, scaled_field in pairs:
        a = sobolev_norm(grid, base_field, 0.5)
        b = sobolev_norm(grid, scaled_field, 0.5)
        ok &= abs(b - lam * a) <= 1e-10 * max(b, 1.0)
    report(8, ok, f"battery max ratios and refinement drift: {maxima}")


def test_criterion_9_hodge_identities():
    problem = NeumannProblem(AnnulusGrid(0.5, 64, 64))
    rng = np.random.default_rng(np.random.SeedSequence([2026, 9]))
    worst_id = worst_npi = worst_orth = 0.0
    for i in range(50):
        deg = int(i % 2)
        phi = problem.random_form(deg, rng)
        box_n = problem.apply_box(problem.apply_N(phi))
        pi = problem.apply_pi(phi)
        resid = box_n + pi - phi
        worst_id = max(worst_id, problem.norm(resid) / problem.norm(phi))
        worst_npi = max(
            worst_npi,
            problem.norm(problem.apply_N(pi)) / max(problem.norm(phi), 1e-300),
            problem.norm(problem.apply_pi(problem.apply_N(phi)))
            / max(problem.norm(phi), 1e-300),
        )
        harm, im_p, im_ps = hodge_split(problem, phi)
        pieces = [harm, im_p, im_ps]
        total = harm + im_p + im_ps
        worst_orth = max(worst_orth, problem.norm(total - phi) / problem.norm(phi))
        for a in range(3):
            for b in range(a + 1, 3):
                worst_orth = max(
                    worst_orth,
                    abs(problem.inner(pieces[a], pieces[b])) / problem.norm(phi) ** 2,
                )
    ok = worst_id <= 1e-8 and worst_npi <= 1e-10 and worst_orth <= 1e-8
    report(
        9,
        ok,
        f"identity {worst_id:.2e}, Npi/piN {worst_npi:.2e}, orthogonality {worst_orth:.2e}",
    )


def test_criterion_10_dbar_primitive():
    problem = NeumannProblem(AnnulusGrid(0.5, 32, 64))
    f = problem.sample(1, np.conj)
    u = solve_dbar(problem, f)
    oracle = solve_dbar_lstsq(problem, f)
    agree = problem.norm(u - oracle) / problem.norm(oracle)
    ok = agree <= 1e-8
    errs = []
    sizes = (24, 48, 96)
    for n_r in sizes:
        prob = NeumannProblem(AnnulusGrid(0.5, 16, n_r))
        ok &= prob.harmonic_dim(1) == 0
        ff = prob.sample(1, np.conj)
        uu = solve_dbar(prob, ff)
        ref = prob.sample(
            0, lambda z: 0.5 * np.conj(z) ** 2 - 0.5 * 0.25 * z ** (-2.0)
        )
        errs.append(prob.norm(uu - ref) / prob.norm(ref))
    slope = math.log(errs[1] / errs[2]) / math.log(sizes[2] / sizes[1])
    ok &= 1.6 <= slope <= 2.4
    report(10, ok, f"lstsq agreement {agree:.2e}, convergence slope {slope:.2f}")


def test_criterion_11_basic_estimate_and_family():
    reports = []
    for n_r in (48, 96):
        prob = NeumannProblem(AnnulusGrid(0.5, 16, n_r))
        reports.append(basic_estimate_report(prob, trials=20, seed=3))
    ok = True
    for key in ("C_E_vs_Q", "C_D_vs_E"):
        a, b = reports[0][key], reports[1][key]
        ok &= math.isfinite(a) and a > 0
        ok &= abs(a - b) / a <= 0.2
    grid = AnnulusGrid(0.5, 16, 48)
    base = NeumannProblem(grid)
    for eps in (0.1, 0.01, 0.001):
        prob = NeumannProblem(grid, eps=eps, profile=lambda r: np.ones_like(r))
        rng = np.random.default_rng(4)
        phi = prob.random_form(1, rng)
        lhs = prob.apply_N(phi)
        expected = base.apply_N(phi) / (1.0 + eps) ** 2
        err = prob.norm(lhs - expected) / prob.norm(expected)
        ok &= err <= 1e-8

    def bump(r):
        mid, width = 0.75, 0.125
        u = (r - mid) / width
        out = np.zeros_like(r)
        inside = np.abs(u) < 1
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    fam = family_continuity(NeumannProblem(grid), bump, [1e-1, 1e-2, 1e-3])
    ok &= fam["harmonic_dims_deg1"] == [0, 0, 0]
    d = fam["norm_diffs"]
    ok &= d[0] > d[1] > d[2] > 0
    ok &= 0.8 <= fam["fitted_slope"] <= 1.2
    report(
        11,
        ok,
        f"estimate constants {reports[0]['C_E_vs_Q']:.3f}/{reports[0]['C_D_vs_E']:.3f}, "
        f"family slope {fam['fitted_slope']:.3f}",
    )
