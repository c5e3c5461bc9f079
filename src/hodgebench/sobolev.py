"""Fractional Sobolev machinery on periodic grids.

Full-space operators live on a torus [0, 2pi)^m with integer frequencies;
compactly supported smooth functions sit in the central half-box so the
torus acts as a Schwartz-space proxy.  Tangential operators live on a
(torus)^{m-1} x [-R, 0] half grid; the radial direction is non-periodic and
differentiated with 4th-order finite differences.

Fields are plain complex ndarrays.  Each grid carries its geometry and the
three things that differ between the families: the axes Lambda acts on, the
sum that turns a weighted power density into a norm (plain, or trapezoid in
r) and the derivative along one axis.  No operator reads the grid type, so
lambda_tangential is lambda_full and tangential_norm is sobolev_norm.
Inequality batteries report empirical LHS/RHS ratios with C = 1; the
underlying constants are existential, so acceptance is
"finite, seed-reproducible, refinement-stable", never a fixed bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache, cached_property
from itertools import accumulate, product
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
# numpy loads these submodules on first use; importing them here keeps that
# cost (15-25 ms) in start-up rather than inside each command
from numpy.fft import fft, fftfreq, fftn, ifft, ifftn
from numpy.polynomial.chebyshev import chebval
from numpy.polynomial.legendre import leggauss
from numpy.random import Generator, SeedSequence, default_rng

from .bounds import check_grid_nodes, check_quad_order, check_trials

__all__ = [
    "TorusGrid",
    "HalfGrid",
    "lambda_full",
    "sobolev_norm",
    "lambda_tangential",
    "tangential_norm",
    "radial_derivative",
    "commutator",
    "double_commutator",
    "nested_commutator",
    "kernel_lemma_check",
    "leibniz_battery",
    "half_space_subestimate",
    "random_torus_field",
    "random_half_field",
    "ck_norms",
    "trapezoid",
    "order_stats",
    "INEQUALITY_IDS",
]

TWO_PI = 2.0 * math.pi


@cache  # read by every spectral derivative; callers do not write to it
def _wavenumbers(n: int) -> np.ndarray:
    """Angular wavenumbers of an n-point periodic axis of length 2 pi, in
    FFT order."""
    return fftfreq(n, d=1.0 / n)


def _along(v: np.ndarray, axis: int, dims: int) -> np.ndarray:
    """The 1-D array v laid along one axis of a dims-dimensional grid."""
    shape = [1] * dims
    shape[axis] = v.size
    return v.reshape(shape)


def _freq_square(n: int, dims: int) -> np.ndarray:
    """|xi|^2 on the frequency grid of a dims-torus with n points per axis."""
    square = _wavenumbers(n) ** 2
    return sum(_along(square, axis, dims) for axis in range(dims))


def _spectral_derivative(phi: np.ndarray, axis: int, n: int) -> np.ndarray:
    """d/dx along one periodic axis of n points and length 2 pi."""
    spec = fft(phi, axis=axis)
    return ifft(spec * _along(1j * _wavenumbers(n), axis, phi.ndim), axis=axis)


def trapezoid(n: int, h: float) -> np.ndarray:
    """The trapezoid rule's weights on n >= 2 nodes spaced h apart."""
    return np.r_[0.5 * h, np.full(n - 2, h), 0.5 * h]


def _check_axis(n: int) -> None:
    """The rule of a periodic axis of n points, on the torus and the half grid."""
    if n < 16 or n & (n - 1):
        raise ValueError("points per axis must be a power of two, >= 16")


@dataclass(frozen=True)
class TorusGrid:
    kind: ClassVar[str] = "torus"
    box: ClassVar[float] = TWO_PI  # the length of each axis
    dim: int
    n: int  # points per axis, power of two

    def __post_init__(self):
        _check_axis(self.n)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        check_grid_nodes(self.kind, self.shape)

    @property
    def shape(self):
        return (self.n,) * self.dim

    def axes(self):
        x = np.arange(self.n) * (self.box / self.n)
        return [x] * self.dim

    @cached_property
    def _weight(self) -> np.ndarray:
        """1 + |xi|^2, once per grid, for every _lambdas and _norms."""
        return 1.0 + _freq_square(self.n, self.dim)

    @cached_property
    def _lambda_axes(self) -> Tuple[int, ...]:
        return tuple(range(self.dim))  # every axis

    def _total(self, density: np.ndarray) -> float:
        return np.sum(density)

    def _derivative(self, phi: np.ndarray, axis: int) -> np.ndarray:
        return _spectral_derivative(phi, axis, self.n)


def lambda_full(grid, phi: np.ndarray, s: float) -> np.ndarray:
    """(1 + |xi|^2)^{s/2} as a Fourier multiplier on the grid's Lambda axes:
    full-space on a TorusGrid, tangential, per radial slice, on a HalfGrid."""
    return _lambdas(grid, phi)(s)


def sobolev_norm(grid, phi: np.ndarray, s: float = 0.0) -> float:
    return _norms(grid, phi)(s)


# the tangential family's names, for a HalfGrid
lambda_tangential, tangential_norm = lambda_full, sobolev_norm


# ---------------------------------------------------------------------------
# half grid


@dataclass(frozen=True)
class HalfGrid:
    """(m-1)-torus times the radial interval [-R, 0], boundary at r = 0."""

    kind: ClassVar[str] = "half"
    box: ClassVar[float] = TWO_PI  # the length of each tangential axis
    dim: int  # total dimension, tangential dim is dim - 1
    n_t: int  # tangential points per axis, power of two
    n_r: int  # radial points, inclusive endpoints
    depth: float = TWO_PI  # R

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("half grid needs dim >= 2")
        if self.n_r < 5:
            # the one-sided ends of radial_derivative read five nodes
            raise ValueError(f"half grid needs n_r >= 5 radial points, got {self.n_r}")
        _check_axis(self.n_t)
        check_grid_nodes(self.kind, self.shape)

    @property
    def shape(self):
        return (self.n_t,) * (self.dim - 1) + (self.n_r,)

    @property
    def h_r(self) -> float:
        return self.depth / (self.n_r - 1)

    def r_axis(self) -> np.ndarray:
        return -self.depth + np.arange(self.n_r) * self.h_r

    @cached_property
    def _weight(self) -> np.ndarray:
        """1 + |tau|^2, once per grid, for every _lambdas and _norms."""
        return 1.0 + _freq_square(self.n_t, self.dim - 1)[..., np.newaxis]

    @cached_property
    def _lambda_axes(self) -> Tuple[int, ...]:
        return tuple(range(self.dim - 1))  # the tangential axes

    @cached_property
    def _r_weights(self) -> np.ndarray:
        return trapezoid(self.n_r, self.h_r)

    @cached_property
    def _radial_profile(self) -> Tuple[np.ndarray, np.ndarray]:
        """random_half_field's Chebyshev abscissa, r mapped onto [-1, 1], and
        the window by which its radial profiles vanish near r = -R."""
        r, R = self.r_axis(), self.depth
        return 2.0 * (r + R) / R - 1.0, _smooth_step((r + R) / (0.4 * R))

    def _total(self, density: np.ndarray) -> float:
        # over the tangential axes, then by the trapezoid rule in r
        return np.sum(np.sum(density, axis=self._lambda_axes) * self._r_weights)

    def _derivative(self, phi: np.ndarray, axis: int) -> np.ndarray:
        # the 4th-order stencil on the radial (last) axis
        if axis == self.dim - 1:
            return radial_derivative(self, phi)
        return _spectral_derivative(phi, axis, self.n_t)


def _spectrum(grid, phi: np.ndarray) -> np.ndarray:
    """fftn of phi along the axes Lambda acts on."""
    return fftn(phi, axes=grid._lambda_axes)


def _lambdas(grid, phi: np.ndarray, spec: Optional[np.ndarray] = None) -> Callable:
    """s -> Lambda^s phi (lambda_full) from one spectrum of phi (``spec``,
    or taken at the first s != 0); each s is computed once."""
    axes, weight = grid._lambda_axes, grid._weight
    spectrum = cache(lambda: _spectrum(grid, phi) if spec is None else spec)
    return cache(lambda s: phi.copy() if s == 0 else ifftn(spectrum() * weight ** (s / 2.0), axes=axes))


def _norms(grid, phi: np.ndarray, spec: Optional[np.ndarray] = None) -> Callable[[float], float]:
    """s -> ||phi||_s (sobolev_norm) from one |fftn(phi) / N|^2 (``spec`` is
    phi's _spectrum, if taken already; N the points on the Lambda axes) and
    one 1 + |xi|^2; each s adds one power and the grid's weighted sum."""
    spec = _spectrum(grid, phi) if spec is None else spec
    axes = grid._lambda_axes
    power = np.abs(spec / math.prod(phi.shape[a] for a in axes)) ** 2
    box = grid.box ** len(axes)
    return cache(lambda s: float(np.sqrt(grid._total(grid._weight**s * power) * box)))


def boundary_square(grid: HalfGrid, phi: np.ndarray) -> float:
    """int_{r=0} |phi|^2 over the tangential torus."""
    cell_t = (grid.box / grid.n_t) ** (grid.dim - 1)
    return float(np.sum(np.abs(phi[..., -1]) ** 2) * cell_t)


_D4_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D4_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D4_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def radial_derivative(grid: HalfGrid, phi: np.ndarray) -> np.ndarray:
    """4th-order d/dr, one-sided at the two radial ends."""
    h = grid.h_r
    out = np.zeros_like(phi, dtype=complex)
    f = phi.astype(complex)
    out[..., 2:-2] = (
        f[..., :-4] * _D4_INTERIOR[0]
        + f[..., 1:-3] * _D4_INTERIOR[1]
        + f[..., 3:-1] * _D4_INTERIOR[3]
        + f[..., 4:] * _D4_INTERIOR[4]
    ) / h
    head = f[..., :5]
    out[..., 0] = head @ _D4_EDGE0 / h
    out[..., 1] = head @ _D4_EDGE1 / h
    tail = f[..., -5:]
    out[..., -1] = -(tail[..., ::-1] @ _D4_EDGE0) / h
    out[..., -2] = -(tail[..., ::-1] @ _D4_EDGE1) / h
    return out


# ---------------------------------------------------------------------------
# commutators (full or tangential, as the grid's Lambda is), each the field of
# one part of the Leibniz batteries (_battery_field)


def commutator(grid, k: float, f: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """[Lambda^k, f] phi."""
    return _battery_field(grid, "ii", k, f, None, phi)


def double_commutator(grid, k: float, f: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Lambda^k [Lambda^k, f] phi - [Lambda^k, f] Lambda^k phi."""
    return _battery_field(grid, "iii", k, f, None, phi)


def nested_commutator(
    grid, k: float, f: np.ndarray, g: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """[Lambda^k, f] (g phi) - g [Lambda^k, f] phi."""
    return _battery_field(grid, "iv", k, f, g, phi)


# ---------------------------------------------------------------------------
# kernel lemma checks (appendix inequalities on frequency tuples)


# part iii walks its lattice in slabs of whole xi values, at most this many
# (xi, eta1, eta2) triples per slab (at least one xi), so that its per-k
# temporaries do not grow with the lattice
_SLAB_TRIPLES = 2**14

# part iii quadrature: nodes per axis times distinct quadratic forms per column
# block (1024 forms at the default order 32), so that the (nodes, block)
# temporaries keep one size, in cache, whatever the order
_FORM_BLOCK_NODES = 2**15

# the certified skip's relative slack, against rounding: a lower bound on an
# integral is scaled by 1 - _SLACK, and a (triple, k) is certified where its
# LHS is at most 1 - _SLACK times the RHS from that bound
_SLACK = 1e-9

@cache
def _rule(quad_order: int) -> Tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights of quad_order points on [0, 1],
    built once per order (about 1 ms at order 32) and read-only, since every
    caller shares them."""
    nodes, weights = leggauss(quad_order)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _form_integrals(forms: np.ndarray, k: float, quad_order: int) -> np.ndarray:
    """Gauss-Legendre values of int_0^1 int_0^1 (1 + |xi + t a + t' b|^2)^{(k-2)/2}
    dt dt', for each column (|xi|^2, |a|^2, |b|^2, xi.a, xi.b, a.b) of forms.
    Separable in t: per node t, base is formed at all nodes t' at once, the t'
    terms taken once per block of _FORM_BLOCK_NODES // quad_order forms; the
    integrand, one np.power of base, is summed as sum_t' w_t' (sum_t w_t
    integrand), each sum row by row, so that a form's value does not depend on
    the forms beside it."""
    nodes, weights = _rule(quad_order)
    t2 = nodes[:, None]
    n = forms.shape[1]
    integrals = np.zeros(n)
    size = max(1, _FORM_BLOCK_NODES // quad_order)
    for lo in range(0, n, size):
        block = slice(lo, lo + size)
        c_xx, c_aa, c_bb, c_xa, c_xb, c_ab = forms[:, block]
        t2bb, t2xb = t2 * t2 * c_bb, 2.0 * t2 * c_xb
        base, out = np.empty((2,) + t2bb.shape)  # reused for every t
        inner = np.zeros_like(base)  # sum_t w_t integrand, per t'
        for t1, w1 in zip(nodes, weights):
            # 1 + (|xi|^2 + t^2|a|^2 + t'^2|b|^2 + 2t xi.a + 2t' xi.b + 2tt' a.b) in
            # this order: the terms cancel, so another order moves base by their ulps
            np.add(c_xx + t1 * t1 * c_aa, t2bb, out=base)
            base += 2.0 * t1 * c_xa
            base += t2xb
            base += np.multiply(2.0 * t1 * t2, c_ab, out=out)
            np.add(1.0, base, out=base)
            integrand = np.power(base, (k - 2.0) / 2.0, out=out)
            inner += np.multiply(w1, integrand, out=out)
        total = integrals[block]  # a view, summed into node by node
        for w2, row in zip(weights, inner):
            total += w2 * row
    return integrals


def _integral_lower_bound(forms: np.ndarray, k: float, quad_order: int) -> np.ndarray:
    """A lower bound on _form_integrals(forms, k, quad_order), elementwise
    over the six coefficients (|xi|^2, |a|^2, |b|^2, xi.a, xi.b, a.b), the rows
    of forms or six arrays that broadcast together, with no quadrature.

    The rule's weights are positive, so its value is S = (sum w)^2 times a
    weighted mean of f(Q) = (1 + Q)^p, p = (k - 2) / 2, over the nodes, where
    Q = |xi + t a + t' b|^2 (the discrete Jensen inequality).  Where f is convex
    (p <= 0 or p >= 1), that mean is at least f(Qbar), Qbar the rule's mean of
    Q from its moments m1 = sum w t / sum w and m2 = sum w t^2 / sum w.  Where f
    is concave (0 < p < 1), f lies above its chord from Q = 0 to Qmax, the
    largest Q on [0, 1]^2.  The bound is scaled by 1 - _SLACK."""
    nodes, weights = _rule(quad_order)
    total = weights.sum()
    m1, m2 = weights @ nodes / total, weights @ nodes**2 / total
    c_xx, c_aa, c_bb, c_xa, c_xb, c_ab = forms
    q_mean = c_xx + m2 * (c_aa + c_bb) + 2.0 * m1 * (c_xa + c_xb) + 2.0 * m1 * m1 * c_ab
    p = (k - 2.0) / 2.0
    if 0.0 < p < 1.0:
        # Q is convex in (t, t'), so its largest value on [0, 1]^2 is at a corner
        q_max = np.maximum(c_xx, c_xx + c_aa + 2.0 * c_xa)
        np.maximum(q_max, c_xx + c_bb + 2.0 * c_xb, out=q_max)
        np.maximum(q_max, c_xx + c_aa + c_bb + 2.0 * (c_xa + c_xb + c_ab), out=q_max)
        # where Qmax = 0, Q = 0 at every node and the chord is flat
        slope = np.divide((1.0 + q_max) ** p - 1.0, q_max,
                          out=np.zeros_like(q_max), where=q_max > 0)
        mean = 1.0 + q_mean * slope
    else:
        mean = (1.0 + q_mean) ** p
    return (1.0 - _SLACK) * total**2 * mean


def _excess(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """The largest relative excess (lhs - rhs) / rhs; where rhs = 0 the lemma
    forces lhs = 0 (as at xi = eta), so lhs itself is the excess there."""
    ok = rhs > 0
    excess = np.zeros_like(lhs)
    excess[ok] = (lhs[ok] - rhs[ok]) / rhs[ok]
    excess[~ok] = lhs[~ok]
    return float(np.max(excess))


def kernel_lemma_check(
    part: str,
    ks: Iterable[float] = (-2.0, -0.5, 0.0, 1.0, 2.0, 3.0),
    coords: Sequence[int] = (-4, -2, 0, 1, 3),
    quad_order: int = 32,
    stride: int = 5,
) -> Dict[str, float]:
    """Evaluate one part of the kernel lemma on a deterministic lattice.

    Returns {"max_violation": relative excess of LHS over RHS, "tuples": n}.
    The inequalities are proven, so any violation beyond 1e-12 relative
    slack indicates an implementation bug.  Part iii uses the constant
    |k| * max(1, |k-1|) from the lemma's Hessian bound and Gauss-Legendre
    quadrature (its order bounded by bounds.check_quad_order) for the double
    integral.  The integral depends on a triple (xi, eta1, eta2) only through
    the quadratic form |xi + t a + t' b|^2.  Before any quadrature, each
    (triple, k) is bounded: _integral_lower_bound gives a lower bound on the
    rule's value, by Jensen's inequality at the rule's mean of the form where
    the integrand is convex and by its chord from 0 to the form's largest
    corner value where it is concave.  Where the RHS from that bound exceeds
    the LHS by a relative 1e-9, the computed excess is negative, so it cannot
    set max_violation (which starts at 0), and the (triple, k) is certified.
    Only the triples that k leaves uncertified are integrated at k, once per
    distinct form, in blocks of forms.  k = 0 needs no integral, since
    its constant, and so its RHS, is 0; nor does k = 2, whose integrand is 1.
    The lattice is walked in slabs of xi values (_SLAB_TRIPLES), so that the
    working set does not grow with it, and each k's uncertified triples are
    joined in the lattice's order before they are integrated.
    """
    V = np.array(list(product(coords, repeat=3)), dtype=float)
    xi = V[:, None, :]  # the (xi, eta) pairs of parts i and ii
    eta = V[None, :, :]
    worst = 0.0
    count = 0
    if part == "i":
        q = (1.0 + np.sum(xi**2, -1)) / (1.0 + np.sum(eta**2, -1))
        d2 = 1.0 + np.sum((xi - eta) ** 2, -1)
        for k in ks:
            lhs = q**k
            rhs = 2.0 ** abs(k) * d2 ** abs(k)
            worst = max(worst, _excess(lhs, rhs))
            count += lhs.size
    elif part == "ii":
        s_xi = 1.0 + np.sum(xi**2, -1)
        s_eta = 1.0 + np.sum(eta**2, -1)
        dist = np.sqrt(np.sum((xi - eta) ** 2, -1))
        for k in ks:
            lhs = np.abs(s_xi ** (k / 2.0) - s_eta ** (k / 2.0))
            rhs = abs(k) * dist * (s_xi ** ((k - 1) / 2.0) + s_eta ** ((k - 1) / 2.0))
            worst = max(worst, _excess(lhs, rhs))
            count += lhs.size
    elif part == "iii":
        check_quad_order(quad_order)
        # every (xi, eta1, eta2) triple, axes (xi, eta1, eta2), with eta1 and
        # eta2 from V[::stride], walked in slabs of xi; each quantity is a sum
        # of entries of the lattice's Gram matrix, so it is an exact integer:
        # |xi + t a + t' b|^2 with a = eta1 - eta2 and b = eta2 - xi has the
        # six coefficients below.  Every step is elementwise until the open
        # triples of all slabs are joined, in the lattice's flat order
        G = V @ V.T
        e = np.arange(0, len(V), stride)
        e1e1 = np.diag(G)[e][:, None]
        e2e2 = np.diag(G)[e]
        e1e2 = G[np.ix_(e, e)]
        aa = e1e1 - 2.0 * e1e2 + e2e2
        area = _rule(quad_order)[1].sum() ** 2
        consts = {k: abs(k) * max(1.0, abs(k - 1.0)) for k in ks}
        # per k that needs quadrature, each slab's uncertified triples: their
        # LHS, their dist and the coefficients of those with dist > 0; k = 0
        # has const = 0, so rhs = 0 whatever its integral, and k = 2
        # integrates 1 to the rule's area
        waiting = {k: [] for k in ks if consts[k] != 0.0 and k != 2.0}
        slab = max(1, _SLAB_TRIPLES // len(e) ** 2)
        for lo in range(0, len(V), slab):
            xs = slice(lo, lo + slab)
            xx = np.diag(G)[xs, None, None]
            x_e1 = G[xs, e][:, :, None]
            x_e2 = G[xs, e][:, None, :]
            bb = e2e2 - 2.0 * x_e2 + xx
            shape = (len(xx), len(e), len(e))
            coeffs = [
                np.broadcast_to(c, shape)
                for c in (xx, aa, bb, x_e1 - x_e2, x_e2 - xx, e1e2 - x_e1 - e2e2 + x_e2)
            ]
            g_s = 1.0 + (xx + e1e1 + e2e2 + 2.0 * x_e1 - 2.0 * x_e2 - 2.0 * e1e2)
            # |xi - eta2| |eta1 - eta2|
            dist = np.sqrt(bb * aa).ravel()
            for k in ks:
                lhs = np.abs(
                    (1.0 + xx) ** (k / 2.0)
                    + (1.0 + e1e1) ** (k / 2.0)
                    - (1.0 + e2e2) ** (k / 2.0)
                    - g_s ** (k / 2.0)
                ).ravel()
                count += lhs.size
                if k not in waiting:
                    rhs = consts[k] * dist * (area if k == 2.0 else 0.0)
                    worst = max(worst, _excess(lhs, rhs))
                    continue
                bound = _integral_lower_bound(coeffs, k, quad_order)
                rhs_low = consts[k] * dist * np.ravel(bound)
                # the triples that no bound certifies; never empty: the
                # eta1 = eta2 triples have dist = 0, and so rhs = 0 whatever
                # their integral
                open_ = np.flatnonzero(~((rhs_low > 0) & (lhs <= (1.0 - _SLACK) * rhs_low)))
                far = open_[dist[open_] > 0]
                sub = np.stack([c[np.unravel_index(far, shape)] for c in coeffs])
                waiting[k].append((lhs[open_], dist[open_], sub))
        for k, parts in waiting.items():
            lhs, dist, sub = (np.concatenate(a, axis=-1) for a in zip(*parts))
            # the coefficients of the triples that need an integral, sorted
            # together by np.lexsort; a sorted triple starts a new form where
            # any coefficient changes (sliced, so that no triple gives no
            # form), and each form's integral is scattered back
            order = np.lexsort(sub)
            new = np.r_[True, np.any(np.diff(sub[:, order]) != 0, axis=0)][: order.size]
            which = np.empty_like(order)
            which[order] = np.cumsum(new) - 1
            integral = np.zeros(lhs.size)
            forms = sub[:, order[new]]
            integral[dist > 0] = _form_integrals(forms, k, quad_order)[which]
            rhs = consts[k] * dist * integral
            worst = max(worst, _excess(lhs, rhs))
    else:
        raise ValueError("part must be one of 'i', 'ii', 'iii'")
    return {"max_violation": worst, "tuples": count}


# ---------------------------------------------------------------------------
# random battery fields (reference-grid construction, resolution independent)

_REFERENCE_N = 64
_BAND = 3 * _REFERENCE_N // 8  # top quarter of the reference spectrum zeroed


def _bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def _smooth_step(u: np.ndarray) -> np.ndarray:
    # 0 for u <= 0, 1 for u >= 1, C^infinity monotone in between
    lo = np.clip(u, 1e-12, None)
    hi = np.clip(1.0 - u, 1e-12, None)
    a = np.exp(-1.0 / lo)
    b = np.exp(-1.0 / hi)
    out = a / (a + b)
    out[u <= 0] = 0.0
    out[u >= 1] = 1.0
    return out


@cache  # read-only, shared by every field of dim axes
def _reference_plan(dim: int) -> Tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """What _reference_coeffs needs of its dim-axis reference grid: the mask
    of the low modes that take random values and their count, the bump
    window of the central half box, and the mask of the top quarter of the
    spectrum that is cut from the result."""
    n = _REFERENCE_N
    shape = (n,) * dim
    freq = np.abs(fftfreq(n, d=1.0 / n))
    x = np.arange(n) * (TWO_PI / n)
    low = np.ones(shape, dtype=bool)
    keep = np.ones(shape, dtype=bool)
    window = np.ones(shape)
    for axis in range(dim):
        low &= _along(freq, axis, dim) <= n // 5
        keep &= _along(freq, axis, dim) < _BAND
        window = window * _along(_bump((x - math.pi) / (math.pi / 2)), axis, dim)
    cut = ~keep
    low.flags.writeable = window.flags.writeable = cut.flags.writeable = False
    return low, int(np.sum(low)), window, cut


def _reference_coeffs(rng: Generator, dim: int) -> np.ndarray:
    """Band-limited spectral coefficients of a half-box-supported field,
    produced on the reference grid so any N >= 64 synthesizes the same
    continuum function."""
    low, count, window, cut = _reference_plan(dim)
    spec = np.zeros(low.shape, dtype=complex)
    spec[low] = rng.normal(size=count) + 1j * rng.normal(size=count)
    raw = ifftn(spec)
    windowed = raw * window
    coeffs = fftn(windowed) / raw.size
    coeffs[cut] = 0.0
    peak = np.max(np.abs(windowed))
    return coeffs / max(peak, 1e-300)


@cache  # read-only, shared by every field of one (n, dim)
def _scatter(n: int, dim: int) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """The mask of the reference coefficients that an n-point grid of dim
    axes keeps (those below its Nyquist frequency) and their places on it."""
    idx = fftfreq(_REFERENCE_N, d=1.0 / _REFERENCE_N).astype(int)
    grids = np.meshgrid(*([idx] * dim), indexing="ij")
    keep = np.ones(grids[0].shape, dtype=bool)
    if n < _REFERENCE_N:
        for g in grids:
            keep &= np.abs(g) < n // 2
    places = tuple(g[keep] % n for g in grids)
    for a in (keep,) + places:
        a.flags.writeable = False
    return keep, places


def _synthesize(coeffs: np.ndarray, n: int, dim: int) -> np.ndarray:
    keep, places = _scatter(n, dim)
    big = np.zeros((n,) * dim, dtype=complex)
    big[places] = coeffs[keep]
    return ifftn(big) * (n**dim)


def random_torus_field(grid: TorusGrid, rng: Generator) -> np.ndarray:
    """Band-limited, essentially half-box-supported random field."""
    coeffs = _reference_coeffs(rng, grid.dim)
    return _synthesize(coeffs, grid.n, grid.dim)


def random_half_field(grid: HalfGrid, rng: Generator) -> np.ndarray:
    """Random half-grid field: band-limited tangential factors times smooth
    radial profiles vanishing near r = -R (Schwartz-proxy on the half space)."""
    t_dim = grid.dim - 1
    u, window = grid._radial_profile
    out = np.zeros(grid.shape, dtype=complex)
    for _ in range(3):
        coeffs = _reference_coeffs(rng, t_dim)
        tang = _synthesize(coeffs, grid.n_t, t_dim)
        poly = chebval(u, rng.normal(size=4))
        out = out + tang[..., np.newaxis] * _along(poly * window, t_dim, grid.dim)
    return out


# ---------------------------------------------------------------------------
# C^k norms


def ck_norms(grid, f: np.ndarray, order: int) -> List[float]:
    """The C^0, ..., C^order norms of f: entry j is the max over |alpha| <= j
    of sup |d^alpha f|, by the grid's derivative.

    One depth-first walk of the multi-index tree: d^alpha f is one derivative
    of its parent, alpha with its last nonzero entry lowered by one, so the
    derivatives of every alpha are taken in increasing axis order.  The walk
    keeps the maximum at each depth; the norms are their running maxima."""
    if order < 0:
        raise ValueError("order must be >= 0")
    level = [0.0] * (order + 1)

    def walk(g, first_axis, depth):
        level[depth] = max(level[depth], float(np.max(np.abs(g))))
        if depth < order:
            for axis in range(first_axis, grid.dim):
                walk(grid._derivative(g, axis), axis, depth + 1)

    walk(f, 0, 0)
    return list(accumulate(level, max))


# ---------------------------------------------------------------------------
# Leibniz batteries

INEQUALITY_IDS = ("A.i", "A.ii", "A.iii", "A.iv", "T.i", "T.ii", "T.iii", "T.iv")

_S_FIRST = (0.0, 0.5, 1.0, 2.0)
_S_SECOND = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
_K_SECOND = (0.5, 1.0, 2.0)


def _battery_cases(part: str):
    """(form, s, k) combinations per proposition part; the first forms need
    s >= 0 and k >= 1 (k >= 2 for the nested part), the second forms allow
    arbitrary real orders."""
    cases = []
    if part == "i":
        cases += [("first", s, None) for s in _S_FIRST]
        cases += [("second", s, None) for s in _S_SECOND]
    elif part in ("ii", "iii"):
        cases += [("first", s, k) for s in _S_FIRST for k in (1.0, 2.0)]
        cases += [("second", s, k) for s in _S_SECOND for k in _K_SECOND]
    elif part == "iv":
        cases += [("first", s, k) for s in _S_FIRST for k in (2.0,)]
        cases += [("second", s, k) for s in _S_SECOND for k in _K_SECOND]
    return cases


def _rhs(a, part, form, s, k, nf, ng, np_):
    """Right-hand side of one battery case.  The full-space and tangential
    forms share it: nf/ng are the H^s or C^k norms of f/g, np_ the norm of
    phi, and a = 1 + m/2 is the embedding index."""
    if part == "i":
        if form == "first":
            return nf(s + a) * np_(0) + nf(a) * np_(s)
        return nf(abs(s) + a) * np_(s)
    if part == "ii":
        if form == "first":
            return (
                nf(s + k + a) * np_(0)
                + nf(k + a) * np_(s)
                + nf(s + 1 + a) * np_(k - 1)
                + nf(1 + a) * np_(s + k - 1)
            )
        return (nf(abs(s + k - 1) + 1 + a) + nf(abs(s) + 1 + a)) * np_(s + k - 1)
    if part == "iii":
        if form == "first":
            return (
                nf(2 * k + s + a) * np_(0)
                + nf(2 * k + a) * np_(s)
                + nf(2 + a) * np_(2 * k + s - 2)
                + nf(s + 2 + a) * np_(2 * k - 2)
            )
        return (nf(abs(s + 2 * k - 2) + 2 + a) + nf(abs(s) + 2 + a)) * np_(
            s + 2 * k - 2
        )
    if part == "iv":
        if form == "first":
            return (
                (
                    nf(k - 1 + s + a) * ng(1 + a)
                    + nf(k - 1 + a) * ng(s + 1 + a)
                    + nf(s + 1 + a) * ng(k - 1 + a)
                    + nf(1 + a) * ng(k - 1 + s + a)
                )
                * np_(0)
                + (nf(k - 1 + a) * ng(1 + a) + nf(1 + a) * ng(k - 1 + a)) * np_(s)
                + (nf(s + 1 + a) * ng(1 + a) + nf(1 + a) * ng(s + 1 + a))
                * np_(k - 2)
                + nf(1 + a) * ng(1 + a) * np_(k - 2 + s)
            )
        return (
            nf(1 + abs(s) + abs(k - 2) + a) * ng(1 + a)
            + nf(1 + abs(s) + a) * ng(1 + abs(k - 2) + a)
            + nf(1 + abs(k - 2) + a) * ng(1 + abs(s) + a)
            + nf(1 + a) * ng(1 + abs(s) + abs(k - 2) + a)
        ) * np_(s + k - 2)
    raise ValueError(part)


def _coeff_order(a, part, cases) -> int:
    """The highest C^k order at which the right-hand sides of cases read the
    norms of f and g."""
    reads = [0.0]

    def probe(t_):
        reads.append(t_)
        return 1.0

    for form, s, k in cases:
        _rhs(a, part, form, s, k, probe, probe, lambda t_: 1.0)
    return math.ceil(max(reads))


def _battery_lambdas(grid, part, f, g, phi, spec=None) -> Dict[str, Callable]:
    """The _lambdas that a part-``part`` field reads, by name: "phi" (from
    its spectrum ``spec``, if taken already), "f phi" and, for part iv,
    "g phi" and "f g phi"."""
    lams = {"phi": _lambdas(grid, phi, spec)}
    if part != "i":
        lams["f phi"] = _lambdas(grid, f * phi)
    if part == "iv":
        lams["g phi"] = _lambdas(grid, g * phi)
        lams["f g phi"] = _lambdas(grid, f * (g * phi))
    return lams


def _battery_field(grid, part, k, f, g, phi, lams=None):
    """The field whose H^s norm is the left-hand side of a part-``part``
    case, f phi or a commutator at k; it depends on k but not on s.  ``lams``
    are its _battery_lambdas, taken once for every k of a trial."""
    if part == "i":
        return f * phi
    lams = lams or _battery_lambdas(grid, part, f, g, phi)
    inner = lams["f phi"](k) - f * lams["phi"](k)  # [Lambda^k, f] phi
    if part == "ii":
        return inner
    if part == "iii":
        return _lambdas(grid, inner)(k) - commutator(grid, k, f, lams["phi"](k))
    if part == "iv":
        return lams["f g phi"](k) - f * lams["g phi"](k) - g * inner
    raise ValueError(part)


def leibniz_battery(
    inequality: str,
    grid,
    trials: int = 8,
    seed: int = 0,
) -> Dict:
    """Empirical LHS/RHS ratios (C = 1) for one appendix inequality.

    ``inequality`` is one of INEQUALITY_IDS; A-parts take a TorusGrid,
    T-parts a HalfGrid.  Deterministic given the seed: trial fields come
    from per-trial child seeds so the report is scheduling-independent.
    """
    family, part = inequality.split(".")
    tangential = family == "T"
    if tangential and getattr(grid, "kind", None) != HalfGrid.kind:
        raise TypeError("tangential batteries need a HalfGrid")
    if not tangential and getattr(grid, "kind", None) != TorusGrid.kind:
        raise TypeError("full-space batteries need a TorusGrid")
    check_trials(trials, grid.shape)
    a = 1.0 + grid.dim / 2.0
    cases = _battery_cases(part)
    random_field = random_half_field if tangential else random_torus_field
    if tangential:
        order = _coeff_order(a, part, cases)  # one C^k walk per field

        def coeff_norm(h):
            levels = ck_norms(grid, h, order)
            return lambda t_: levels[math.ceil(t_)]

    else:
        coeff_norm = lambda h: _norms(grid, h)
    trial_ratios = []
    case_ratios: Dict[str, float] = {}
    ss = SeedSequence([seed, INEQUALITY_IDS.index(inequality)])
    children = ss.spawn(trials)
    for t in range(trials):
        rng = default_rng(children[t])
        f = random_field(grid, rng)
        phi = random_field(grid, rng)
        g = random_field(grid, rng) if part == "iv" else None
        nf = coeff_norm(f)
        ng = coeff_norm(g) if part == "iv" else None
        # phi, f phi (and g phi, f g phi) are transformed once for every k,
        # phi's spectrum also for its norms; each k's field has one spectrum,
        # read at every s
        spec = _spectrum(grid, phi)
        np_ = _norms(grid, phi, spec)
        lams = _battery_lambdas(grid, part, f, g, phi, spec)
        field_norms = cache(
            lambda k_: _norms(grid, _battery_field(grid, part, k_, f, g, phi, lams))
        )
        best = 0.0
        for form, s, k in cases:
            lhs = field_norms(k)(s)
            rhs = _rhs(a, part, form, s, k, nf, ng, np_)
            ratio = lhs / rhs if rhs > 0 else math.inf
            key = f"{form}:s={s}:k={k}"
            case_ratios[key] = max(case_ratios.get(key, 0.0), ratio)
            best = max(best, ratio)
        trial_ratios.append(best)
    arr = np.array(trial_ratios)
    qs = order_stats(arr, [0.0, 0.25, 0.5, 0.75, 1.0])[0]
    return {
        "inequality": inequality,
        "grid": _grid_meta(grid),
        "seed": seed,
        "trials": trials,
        "max_ratio": float(arr.max()),
        "quantiles": {
            "min": float(qs[0]),
            "q25": float(qs[1]),
            "median": float(qs[2]),
            "q75": float(qs[3]),
            "max": float(qs[4]),
        },
        "per_trial": [float(v) for v in arr],
        "worst_cases": dict(
            sorted(case_ratios.items(), key=lambda kv: -kv[1])[:5]
        ),
    }


def order_stats(values: np.ndarray, qs: Sequence[float]) -> Tuple[np.ndarray, float]:
    """np.quantile(values, qs) (method "linear") and np.median(values) of
    non-NaN values, bit for bit as numpy 2.4 computes them, from one sort:
    numpy's own routines import numpy.ma on their first call."""
    s = np.sort(values)
    n = len(s)
    v = (n - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(v)
    hi = lo + 1
    # past the last index both neighbours are the last value
    lo[v >= n - 1] = hi[v >= n - 1] = -1
    t = v - lo
    a, b = s[lo.astype(np.intp)], s[hi.astype(np.intp)]
    diff = b - a
    # numpy's _lerp: from the upper neighbour once t >= 1/2
    quantiles = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    median = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
    return quantiles, float(median)


def _grid_meta(grid) -> Dict:
    return {"kind": grid.kind, **asdict(grid), "box": grid.box}


def half_space_subestimate(
    grid: HalfGrid, trials: int = 20, seed: int = 0
) -> Dict:
    """Empirical constant for the half-space sub-estimate with v1 = dzbar:

        sum_i ||d_i f||^2_{d,-1/2} <= C ( ||v1 f||^2_{d,-1/2} + int_{dM} |f|^2 )

    on a 2-D half grid, z = t + i r.
    """
    if grid.dim != 2:
        raise ValueError("the sub-estimate battery runs on a 2-D half grid")
    check_trials(trials, grid.shape)
    ss = SeedSequence([seed, 97])
    ratios = []
    for child in ss.spawn(trials):
        rng = default_rng(child)
        f = random_half_field(grid, rng)
        df_t, df_r = grid._derivative(f, 0), grid._derivative(f, 1)
        lhs = tangential_norm(grid, df_t, -0.5) ** 2 + tangential_norm(grid, df_r, -0.5) ** 2
        v1 = 0.5 * (df_t + 1j * df_r)
        rhs = tangential_norm(grid, v1, -0.5) ** 2 + boundary_square(grid, f)
        ratios.append(lhs / rhs)
    arr = np.array(ratios)
    return {
        "inequality": "half-space-subestimate",
        "grid": _grid_meta(grid),
        "seed": seed,
        "trials": trials,
        "max_ratio": float(arr.max()),
        "quantiles": {
            "min": float(arr.min()),
            "median": order_stats(arr, [])[1],
            "max": float(arr.max()),
        },
    }
