"""Vector fields, low-degree forms and brackets on a chart.

Vector fields are coefficient tuples against the coordinate frame, forms are
antisymmetric coefficient tables indexed by strictly increasing index tuples
(degree capped at 3, which is all the Courant bracket with a twisting 3-form
needs).  Everything is exact: coefficients are ScalarExpr values.

One sign rule, insertion_sign (folded over a tuple by wedge_sign), signs the
exterior derivative, the wedge and the alternating minors; one coefficient
table, CoeffTable, serves FormExpr and algebroids.AlgebroidForm alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations
from typing import Dict, Optional, Tuple

from .scalars import Chart, ScalarExpr, const, eval_table

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


def wedge_sign(idx, into=()):
    """Sign and increasing tuple of e^idx[0] ^ ... ^ e^idx[-1] ^ e^into, for an
    increasing tuple ``into``, or None on a repeated index.

    The indices of idx are inserted from the right by insertion_sign, so the
    sign of a permutation perm is wedge_sign(perm)[0].
    """
    sign = 1
    for j in reversed(idx):
        s, into = insertion_sign(j, into)
        if into is None:
            return None
        sign *= s
    return sign, into


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
        return self + (-other)

    def __neg__(self):
        return VectorFieldExpr(self.chart, tuple(-a for a in self.components))

    def scale(self, f) -> "VectorFieldExpr":
        return VectorFieldExpr(self.chart, tuple(f * a for a in self.components))

    def conj(self) -> "VectorFieldExpr":
        return VectorFieldExpr(self.chart, tuple(a.conj() for a in self.components))

    def apply(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative X.f = sum_i X^i d_i f, summed from its first
        term: a zero is built only for the zero field."""
        terms = [xi * f.diff(i) for i, xi in enumerate(self.components) if not xi.is_zero]
        return sum(terms[1:], terms[0]) if terms else const(self.chart, 0)

    def eval(self, point) -> "list[complex]":
        return eval_table(self.components, [point])[0].tolist()

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
    summed in their order, sorted by index, zeros dropped, so that the forms'
    operations emit signed (index, term) pairs.  ``what`` names the index in
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


class CoeffTable:
    """Arithmetic of an antisymmetric coefficient table, shared by FormExpr
    and algebroids.AlgebroidForm: frozen dataclasses with ``degree``,
    ``coeffs`` and a ``chart``, whose operands must share the field named by
    ``_base``.  Results come from dataclasses.replace, so each subclass's
    __post_init__ keeps its own degree bound."""

    _base, _base_name = "chart", "chart"

    def table(self) -> Dict[tuple, ScalarExpr]:
        return dict(self.coeffs)

    def coeff(self, idx) -> ScalarExpr:
        idx = tuple(idx)
        for stored, c in self.coeffs:
            if stored == idx:
                return c
        return const(self.chart, 0)

    def _same_base(self, other):
        mine, theirs = getattr(self, self._base), getattr(other, self._base)
        if theirs is not mine and theirs != mine:
            raise ValueError(f"{self._base_name} mismatch")

    def __add__(self, other):
        self._same_base(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return replace(self, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return replace(self, coeffs=tuple((i, -c) for i, c in self.coeffs))

    def scale(self, f):
        return replace(self, coeffs=tuple((i, f * c) for i, c in self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def wedge(self, other):
        """The wedge product; a degree past the subclass's bound raises."""
        self._same_base(other)
        pairs = [(wedge_sign(ia, ib), ca, cb) for ia, ca in self.coeffs for ib, cb in other.coeffs]
        terms = tuple((m[1], const(self.chart, m[0]) * ca * cb) for m, ca, cb in pairs if m)
        return replace(self, degree=self.degree + other.degree, coeffs=terms)


@dataclass(frozen=True)
class FormExpr(CoeffTable):
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

    def conj(self) -> "FormExpr":
        return replace(self, coeffs=tuple((i, c.conj()) for i, c in self.coeffs))

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
    for perm in permutations(idx):
        term = const(chart, wedge_sign(perm)[0])
        for row, j in enumerate(perm):
            term = term * fields[row].components[j]
        total = total + term
    return total


def exterior_derivative(eta: FormExpr) -> FormExpr:
    if eta.degree >= MAX_FORM_DEGREE:
        raise ValueError("degree overflow beyond 3")
    chart = eta.chart
    signs = ((insertion_sign(j, idx), j, c) for idx, c in eta.coeffs for j in range(chart.dim))
    terms = ((new, const(chart, sign) * c.diff(j)) for (sign, new), j, c in signs if sign)
    return FormExpr(chart, eta.degree + 1, tuple(terms))


def interior(X: VectorFieldExpr, eta: FormExpr) -> FormExpr:
    """Interior product iota_X eta (degree drops by one)."""
    _same_chart(X, eta)
    if eta.degree == 0:
        raise ValueError("cannot contract a 0-form")
    chart = eta.chart
    terms = ((idx[:pos] + idx[pos + 1 :], const(chart, (-1) ** pos) * X.components[j] * c)
             for idx, c in eta.coeffs for pos, j in enumerate(idx))
    return FormExpr(chart, eta.degree - 1, tuple(terms))


def lie_derivative(X: VectorFieldExpr, eta: FormExpr) -> FormExpr:
    """Cartan formula: L_X eta = iota_X d eta + d iota_X eta."""
    out = interior(X, exterior_derivative(eta))
    if eta.degree > 0:
        out = out + exterior_derivative(interior(X, eta))
    return out


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
