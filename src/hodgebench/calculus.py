"""Vector fields, low-degree forms and brackets on a chart.

Vector fields are coefficient tuples against the coordinate frame, forms are
antisymmetric coefficient tables indexed by strictly increasing index tuples
(degree capped at 3, which is all the Courant bracket with a twisting 3-form
needs).  Everything is exact: coefficients are ScalarExpr values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Optional, Tuple

from .scalars import Chart, ScalarExpr, const

__all__ = [
    "VectorFieldExpr",
    "FormExpr",
    "GeneralizedSection",
    "coordinate_field",
    "wirtinger",
    "lie_bracket",
    "exterior_derivative",
    "interior",
    "lie_derivative",
    "wedge",
    "courant_bracket",
    "insertion_sign",
]

MAX_FORM_DEGREE = 3


def insertion_sign(j: int, idx: Tuple[int, ...]):
    """Sign and sorted tuple for inserting index j into the increasing tuple idx.

    Returns (0, None) when j already occurs.
    """
    if j in idx:
        return 0, None
    pos = 0
    while pos < len(idx) and idx[pos] < j:
        pos += 1
    return (-1) ** pos, idx[:pos] + (j,) + idx[pos:]


@dataclass(frozen=True)
class VectorFieldExpr:
    chart: Chart
    components: tuple  # one ScalarExpr per chart variable

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ValueError("component count must match chart dimension")

    @staticmethod
    def zero(chart: Chart) -> "VectorFieldExpr":
        z = const(chart, 0)
        return VectorFieldExpr(chart, tuple(z for _ in range(chart.dim)))

    def __add__(self, other: "VectorFieldExpr") -> "VectorFieldExpr":
        _same_chart(self, other)
        return VectorFieldExpr(
            self.chart,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "VectorFieldExpr") -> "VectorFieldExpr":
        _same_chart(self, other)
        return VectorFieldExpr(
            self.chart,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self):
        return VectorFieldExpr(self.chart, tuple(-a for a in self.components))

    def scale(self, f) -> "VectorFieldExpr":
        return VectorFieldExpr(self.chart, tuple(f * a for a in self.components))

    def conj(self) -> "VectorFieldExpr":
        return VectorFieldExpr(self.chart, tuple(a.conj() for a in self.components))

    def apply(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative X.f = sum_i X^i d_i f."""
        out = const(self.chart, 0)
        for i, xi in enumerate(self.components):
            if not xi.is_zero:
                out = out + xi * f.diff(i)
        return out

    def eval(self, point) -> "list[complex]":
        return [c.eval(point) for c in self.components]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, VectorFieldExpr):
            return NotImplemented
        return self.chart == other.chart and all(
            a == b for a, b in zip(self.components, other.components)
        )


def coordinate_field(chart: Chart, i: int) -> VectorFieldExpr:
    comps = [const(chart, 0) for _ in range(chart.dim)]
    comps[i] = const(chart, 1)
    return VectorFieldExpr(chart, tuple(comps))


def wirtinger(chart: Chart, i: int, anti: bool) -> VectorFieldExpr:
    """The Wirtinger field d/dz^i (anti=False) or d/dzbar^i (anti=True).

    Both are (1/2)(d_x -/+ i d_y) on the chart's i-th complex pair.
    """
    if not chart.complex_pairs:
        raise ValueError("chart has no complex pairing")
    if not 1 <= i <= chart.n_complex:
        raise IndexError("complex index out of range")
    re_i, im_i = chart.complex_pairs[i - 1]
    half = const(chart, 0.5)
    ihalf = const(chart, 0.5j)
    comps = [const(chart, 0) for _ in range(chart.dim)]
    comps[re_i] = half
    comps[im_i] = ihalf if anti else -ihalf
    return VectorFieldExpr(chart, tuple(comps))


def lie_bracket(X: VectorFieldExpr, Y: VectorFieldExpr) -> VectorFieldExpr:
    """[X,Y]^j = sum_i (X^i d_i Y^j - Y^i d_i X^j), exact."""
    _same_chart(X, Y)
    chart = X.chart
    comps = []
    for j in range(chart.dim):
        acc = const(chart, 0)
        for i in range(chart.dim):
            xi, yi = X.components[i], Y.components[i]
            if not xi.is_zero:
                acc = acc + xi * Y.components[j].diff(i)
            if not yi.is_zero:
                acc = acc - yi * X.components[j].diff(i)
        comps.append(acc)
    return VectorFieldExpr(chart, tuple(comps))


def normalized_coeffs(coeffs, degree: int, bound: int, what: str) -> tuple:
    """Antisymmetric coefficient table of a degree-``degree`` form: entries
    of equal strictly increasing index tuples (indices below ``bound``)
    summed, sorted by index, zeros dropped.  ``what`` names the index in
    the out-of-range error."""
    table: Dict[tuple, ScalarExpr] = {}
    for idx, c in coeffs:
        idx = tuple(idx)
        if len(idx) != degree or list(idx) != sorted(set(idx)):
            raise ValueError("indices must be strictly increasing tuples")
        if any(not 0 <= k < bound for k in idx):
            raise IndexError(f"{what} index out of range")
        table[idx] = table[idx] + c if idx in table else c
    return tuple((idx, c) for idx, c in sorted(table.items()) if not c.is_zero)


@dataclass(frozen=True)
class FormExpr:
    chart: Chart
    degree: int
    coeffs: tuple  # tuple of (increasing index tuple, ScalarExpr)

    def __post_init__(self):
        if not 0 <= self.degree <= MAX_FORM_DEGREE:
            raise ValueError(f"form degree must lie in 0..{MAX_FORM_DEGREE}")
        object.__setattr__(
            self,
            "coeffs",
            normalized_coeffs(self.coeffs, self.degree, self.chart.dim, "form"),
        )

    @staticmethod
    def zero(chart: Chart, degree: int) -> "FormExpr":
        return FormExpr(chart, degree, ())

    @staticmethod
    def from_table(chart: Chart, degree: int, table) -> "FormExpr":
        return FormExpr(chart, degree, tuple(table.items()))

    def table(self) -> Dict[tuple, ScalarExpr]:
        return dict(self.coeffs)

    def coeff(self, idx) -> ScalarExpr:
        idx = tuple(idx)
        for stored, c in self.coeffs:
            if stored == idx:
                return c
        return const(self.chart, 0)

    def __add__(self, other: "FormExpr") -> "FormExpr":
        _same_chart(self, other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return FormExpr(self.chart, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "FormExpr") -> "FormExpr":
        return self + (-other)

    def __neg__(self):
        return FormExpr(
            self.chart, self.degree, tuple((i, -c) for i, c in self.coeffs)
        )

    def scale(self, f) -> "FormExpr":
        return FormExpr(self.chart, self.degree, tuple((i, f * c) for i, c in self.coeffs))

    def conj(self) -> "FormExpr":
        return FormExpr(
            self.chart, self.degree, tuple((i, c.conj()) for i, c in self.coeffs)
        )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, FormExpr):
            return NotImplemented
        if self.chart != other.chart or self.degree != other.degree:
            return False
        return (self - other).is_zero

    def apply(self, *fields: VectorFieldExpr) -> ScalarExpr:
        """Evaluate on vector arguments; alternating by construction."""
        if len(fields) != self.degree:
            raise ValueError("argument count must equal the degree")
        out = const(self.chart, 0)
        for idx, c in self.coeffs:
            out = out + c * _alternating_minor(fields, idx)
        return out


def _alternating_minor(fields, idx):
    chart = fields[0].chart
    if not idx:
        return const(chart, 1)
    # determinant of the component minor, expanded over permutations (p <= 3)
    total = const(chart, 0)
    for perm in permutations(range(len(idx))):
        sign = _perm_sign(perm)
        term = const(chart, sign)
        for row, col in enumerate(perm):
            term = term * fields[row].components[idx[col]]
        total = total + term
    return total


def _perm_sign(perm) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def exterior_derivative(eta: FormExpr) -> FormExpr:
    if eta.degree >= MAX_FORM_DEGREE:
        raise ValueError("degree overflow beyond 3")
    chart = eta.chart
    table: Dict[tuple, ScalarExpr] = {}
    for idx, c in eta.coeffs:
        for j in range(chart.dim):
            sign, new = insertion_sign(j, idx)
            if sign == 0:
                continue
            term = const(chart, sign) * c.diff(j)
            table[new] = table.get(new, const(chart, 0)) + term
    return FormExpr.from_table(chart, eta.degree + 1, table)


def interior(X: VectorFieldExpr, eta: FormExpr) -> FormExpr:
    """Interior product iota_X eta (degree drops by one)."""
    _same_chart(X, eta)
    if eta.degree == 0:
        raise ValueError("cannot contract a 0-form")
    chart = eta.chart
    table: Dict[tuple, ScalarExpr] = {}
    for idx, c in eta.coeffs:
        for pos, j in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            term = const(chart, (-1) ** pos) * X.components[j] * c
            table[rest] = table.get(rest, const(chart, 0)) + term
    return FormExpr.from_table(chart, eta.degree - 1, table)


def lie_derivative(X: VectorFieldExpr, eta: FormExpr) -> FormExpr:
    """Cartan formula: L_X eta = iota_X d eta + d iota_X eta."""
    out = interior(X, exterior_derivative(eta))
    if eta.degree > 0:
        out = out + exterior_derivative(interior(X, eta))
    return out


def wedge(alpha: FormExpr, beta: FormExpr) -> FormExpr:
    _same_chart(alpha, beta)
    if alpha.degree + beta.degree > MAX_FORM_DEGREE:
        raise ValueError("degree overflow beyond 3")
    table = wedge_table(alpha.chart, alpha.coeffs, beta.coeffs)
    return FormExpr.from_table(alpha.chart, alpha.degree + beta.degree, table)


def wedge_table(chart: Chart, a_coeffs, b_coeffs) -> Dict[tuple, ScalarExpr]:
    """Coefficient table of the wedge of two antisymmetric tables."""
    table: Dict[tuple, ScalarExpr] = {}
    for ia, ca in a_coeffs:
        for ib, cb in b_coeffs:
            merged = _merge_sign(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            term = const(chart, sign) * ca * cb
            table[idx] = table.get(idx, const(chart, 0)) + term
    return table


def _merge_sign(ia, ib):
    combined = list(ia) + list(ib)
    if len(set(combined)) != len(combined):
        return None
    sign = 1
    for a in range(len(combined)):
        for b in range(a + 1, len(combined)):
            if combined[a] > combined[b]:
                sign = -sign
    return sign, tuple(sorted(combined))


@dataclass(frozen=True)
class GeneralizedSection:
    """A section X + xi of TM + T*M: a vector part and a 1-form part."""

    vector: VectorFieldExpr
    covector: FormExpr

    def __post_init__(self):
        if self.covector.degree != 1:
            raise ValueError("covector part must have degree 1")
        _same_chart(self.vector, self.covector)

    @property
    def chart(self) -> Chart:
        return self.vector.chart

    def __add__(self, other: "GeneralizedSection") -> "GeneralizedSection":
        return GeneralizedSection(
            self.vector + other.vector, self.covector + other.covector
        )

    def __sub__(self, other: "GeneralizedSection") -> "GeneralizedSection":
        return GeneralizedSection(
            self.vector - other.vector, self.covector - other.covector
        )

    @property
    def is_zero(self) -> bool:
        return self.vector.is_zero and self.covector.is_zero

    def pairing(self, other: "GeneralizedSection") -> ScalarExpr:
        """Natural split-signature pairing <X+xi, Y+eta> = (xi(Y)+eta(X))/2."""
        chart = self.chart
        half = const(chart, 0.5)
        return half * (
            self.covector.apply(other.vector) + other.covector.apply(self.vector)
        )


def courant_bracket(
    u: GeneralizedSection,
    v: GeneralizedSection,
    H: Optional[FormExpr] = None,
) -> GeneralizedSection:
    """[[X+xi, Y+eta]] = [X,Y] + L_X eta - iota_Y d xi - iota_Y iota_X H."""
    chart = u.chart
    if v.chart != chart:
        raise ValueError("chart mismatch")
    if H is None:
        H = FormExpr.zero(chart, 3)
    if H.degree != 3:
        raise ValueError("twisting form must have degree 3")
    X, xi = u.vector, u.covector
    Y, eta = v.vector, v.covector
    vect = lie_bracket(X, Y)
    cov = lie_derivative(X, eta) - interior(Y, exterior_derivative(xi))
    if not H.is_zero:
        cov = cov - interior(Y, interior(X, H))
    return GeneralizedSection(vect, cov)


def _same_chart(a, b):
    if a.chart != b.chart:
        raise ValueError("chart mismatch")
