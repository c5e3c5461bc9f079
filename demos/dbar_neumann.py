#!/usr/bin/env python3
"""The discrete dbar-Neumann problem on the annulus 0.5 <= |z| <= 1.

Exhibits the Hodge decomposition at desk scale: the Neumann operator N
with phi = box N phi + pi phi and N pi = pi N = 0, the canonical primitive
u = P* N f of a (0,1)-form, its second-order convergence to the smooth
minimal solution, the basic-estimate constants, and the continuity of the
family eps -> N_eps.
"""

import math

import numpy as np

from hodgebench.neumann import (
    AnnulusGrid,
    NeumannProblem,
    basic_estimate_report,
    family_continuity,
    solve_dbar,
    solve_dbar_lstsq,
)

grid = AnnulusGrid(rho0=0.5, n_theta=32, n_r=64)
problem = NeumannProblem(grid)
print(f"grid: rho0 = {grid.rho0}, {grid.n_theta} angular modes, {grid.n_r} radial points")
print(f"degree-1 harmonic space dimension: {problem.harmonic_dim(1)} (annulus: expect 0)")
print(f"smallest positive eigenvalue of box_1: {problem.smallest_positive_eigenvalue():.6f}")
print(f"||N|| = 1/lambda_min = {problem.operator_norm_N():.6f}")

print("\n== Neumann identities on random fields ==")
rng = np.random.default_rng(0)
phi = problem.random_form(1, rng)
box_n = problem.apply_box(problem.apply_N(phi))
pi = problem.apply_pi(phi)
resid = problem.norm(box_n + pi - phi)
print(f"  || box N phi + pi phi - phi || / ||phi|| = {resid / problem.norm(phi):.2e}")
print(f"  || N pi phi ||                           = {problem.norm(problem.apply_N(pi)):.2e}")

print("\n== solving dbar u = zbar dzbar ==")
f = problem.sample(1, np.conj)
u = solve_dbar(problem, f)
oracle = solve_dbar_lstsq(problem, f)
print(
    "  primitive u = P* N f vs dense least-squares oracle: "
    f"{problem.norm(u - oracle) / problem.norm(oracle):.2e}"
)
print("  convergence to the smooth minimal solution zbar^2/2 - (rho0^2/2) z^-2:")
prev = None
for n_r in (24, 48, 96):
    prob = NeumannProblem(AnnulusGrid(0.5, 16, n_r))
    uu = solve_dbar(prob, prob.sample(1, np.conj))
    ref = prob.sample(0, lambda z: 0.5 * np.conj(z) ** 2 - 0.125 * z ** (-2.0))
    err = prob.norm(uu - ref) / prob.norm(ref)
    slope = "" if prev is None else f"  (order {math.log(prev / err) / math.log(2):.2f})"
    print(f"    n_r = {n_r:3d}: relative error {err:.3e}{slope}")
    prev = err

print("\n== basic estimate: E(phi) <= C Q(phi) ==")
report = basic_estimate_report(problem, trials=20, seed=1)
print(f"  max E^2/Q^2 ratio          : {report['C_E_vs_Q']:.4f}")
print(f"  max ||D.||^2_(d,-1/2)/E^2  : {report['C_D_vs_E']:.4f}")

print("\n== one-parameter family P_eps = (1 + eps a) P ==")
base = NeumannProblem(AnnulusGrid(0.5, 16, 48))
for eps in (0.1, 0.01):
    prob = NeumannProblem(AnnulusGrid(0.5, 16, 48), eps=eps, profile=lambda r: np.ones_like(r))
    phi = prob.random_form(1, np.random.default_rng(5))
    expected = base.apply_N(phi) / (1 + eps) ** 2
    err = prob.norm(prob.apply_N(phi) - expected)
    print(f"  a = 1, eps = {eps:5.2f}: ||N_eps - N_0/(1+eps)^2|| residual {err:.2e}")


def bump(r):
    u = (r - 0.75) / 0.125
    out = np.zeros_like(r)
    inside = np.abs(u) < 1
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


fam = family_continuity(base, bump, [1e-1, 1e-2, 1e-3])
print(f"  bump profile: ||N_eps - N_0|| = {['%.3e' % d for d in fam['norm_diffs']]}")
print(f"  fitted log-log slope {fam['fitted_slope']:.3f} (continuity, close to linear)")
