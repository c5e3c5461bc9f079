#!/usr/bin/env python3
"""Tour of the exact chart calculus.

Everything below is computed symbolically over Q(i): parsing, Wirtinger
derivatives, Lie and Courant brackets, and identities that normalize to the
literal zero expression.
"""

import random

from hodgebench.calculus import (
    FormExpr,
    GeneralizedSection,
    VectorFieldExpr,
    courant_bracket,
    exterior_derivative,
    interior,
    lie_bracket,
    wirtinger,
)
from hodgebench.scalars import Chart, const, parse_expr, var

print("== parsing and evaluation ==")
chart = Chart.real(2)
e = parse_expr("x1^2 + i*x2", chart)
print(f"  x1^2 + i*x2 at (2,3)      -> {e.eval([2, 3])}")
print(f"  conj(x1 + i*x2)           -> {parse_expr('conj(x1 + i*x2)', chart)}")
print(f"  d/dx2 (x1/x2)             -> {parse_expr('x1/x2', chart).diff(1)}")

print("\n== Wirtinger calculus on C ==")
cc = Chart.complex_chart(1)
z = parse_expr("z1", cc)
dz = wirtinger(cc, 1, anti=False)
dzb = wirtinger(cc, 1, anti=True)
print(f"  dz(z)    = {dz.apply(z)}")
print(f"  dzbar(z) = {dzb.apply(z)}")
print(f"  dzbar(|z|^2) = {dzb.apply(parse_expr('z1*zb1', cc))}")

print("\n== brackets ==")
c3 = Chart.real(3)
rng = random.Random(1)


def rand_poly():
    out = const(c3, 0)
    for _ in range(3):
        t = const(c3, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for _ in range(rng.randrange(0, 3)):
            t = t * var(c3, rng.randrange(3))
        out = out + t
    return out


def rand_field():
    return VectorFieldExpr(c3, tuple(rand_poly() for _ in range(3)))


X, Y, Z = rand_field(), rand_field(), rand_field()
jac = (
    lie_bracket(lie_bracket(X, Y), Z)
    + lie_bracket(lie_bracket(Y, Z), X)
    + lie_bracket(lie_bracket(Z, X), Y)
)
print(f"  Jacobi identity residual for random polynomial fields: zero? {jac.is_zero}")

print("\n== Courant bracket and the graph of a two-form ==")
from itertools import combinations

omega = FormExpr.from_table(c3, 2, {idx: rand_poly() for idx in combinations(range(3), 2)})
H = FormExpr.from_table(c3, 3, {(0, 1, 2): rand_poly()})
u = GeneralizedSection(X, interior(X, omega))
v = GeneralizedSection(Y, interior(Y, omega))
lhs = courant_bracket(u, v, H)
b = lie_bracket(X, Y)
rhs = GeneralizedSection(
    b, interior(b, omega) + interior(Y, interior(X, exterior_derivative(omega) - H))
)
print(f"  [[X+w(X), Y+w(Y)]] - ([X,Y] + w([X,Y]) + i_Y i_X (dw - H)): zero? {(lhs - rhs).is_zero}")
