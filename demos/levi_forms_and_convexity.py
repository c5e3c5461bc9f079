#!/usr/bin/env python3
"""Boundary classification, Levi forms and q-convexity on the gallery.

Walks the worked examples: the unit ball (all points non-elliptic, Levi
form the identity), the annulus (opposite-definite components), the
holomorphic Poisson structure on C^4 with its (5,1,1) signature, and the
symplectic structure (all points elliptic).
"""

from dataclasses import replace

import numpy as np

from hodgebench.gallery import gallery_spec
from hodgebench.levi import (
    classify_point,
    cr_kernel_basis,
    eigen_signature,
    levi_form_complex_hessian,
    levi_form_generic,
    levi_form_poisson,
    q_convex_set,
)


def built(name):
    """(algebroid, boundary) of a gallery entry."""
    spec = gallery_spec(name)
    return spec.build_algebroid(), spec.build_boundary()


print("== classification dichotomy ==")
for name in ("tangent_sphere", "ball_c2_dbar", "symplectic_gc"):
    alg, bd = built(name)
    pts = gallery_spec(name).sample_points()[:200]
    frac = np.mean([classify_point(alg, bd, p).elliptic for p in pts])
    print(f"  {name:18s}: elliptic fraction {frac:.2f} over {len(pts)} samples")

print("\n== unit ball in C^2: Levi form on CR ==")
alg, bd = built("ball_c2_dbar")
point = [1.0, 0.0, 0.0, 0.0]
rep = levi_form_generic(alg, bd, point)
print(f"  generic route at {point}: matrix {rep.levi.real.round(10)}, signature {rep.signature}")
basis = cr_kernel_basis(bd, [point])
B = levi_form_complex_hessian(bd, [point], basis)[0]
print(f"  Hessian route agrees entrywise: {np.allclose(rep.levi, B, atol=1e-10)}")
# the oracles take whole samples: one stacked call over every sampled point
pts = gallery_spec("ball_c2_dbar").sample_points()
B_all = levi_form_complex_hessian(bd, pts, cr_kernel_basis(bd, pts))
print(f"  Hessian route over {len(pts)} samples: max |L - 1| = {np.abs(B_all - 1).max():.1e}")

print("\n== holomorphic Poisson on C^4 (sigma = x dx^dy + dz^dw) ==")
alg, bd = built("poisson_c4")
locus_point = [0, 0, 1.0, 0, 0, 0, 0, 0]  # x = z = w = 0, |y| = 1
B = levi_form_poisson(bd, alg.meta["sigma"], [locus_point])[0][0]
print(f"  block matrix is 7x7, signature {eigen_signature(B)} (expect (5,1,1))")
evals = np.linalg.eigvalsh(B)
print(f"  eigenvalues: {np.round(evals, 6)}")
print("  note the golden pair (1 +- sqrt 5)/2 from the [[1, ybar],[y, 0]] block")

print("\n== q-convexity verdicts (certified on the sample only) ==")
for name, n_pts in (("ball_c2_dbar", 60), ("annulus_c3_dbar", 60), ("poisson_c4", 0)):
    alg, bd = built(name)
    spec = gallery_spec(name)
    spec = replace(spec, samples=n_pts or spec.samples)
    pts = spec.sample_points()
    verdict = q_convex_set(alg, bd, pts)
    print(f"  {name:18s}: q_set = {sorted(verdict.q_set)} (rank {verdict.rank})")
    for q, idx in sorted(verdict.witnesses.items()):
        sig = verdict.reports[idx].signature
        print(f"      q = {q} fails at a sampled point with signature {sig}")
