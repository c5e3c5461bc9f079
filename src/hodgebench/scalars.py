"""Exact scalar calculus on a real coordinate chart.

Scalars are rational functions in the chart variables with coefficients in
Q(i), stored in a canonical sparse form: a numerator/denominator pair of
multivariate polynomials, each a dict mapping exponent tuples to exact
Gaussian-rational coefficients (CNum), whose real and imaginary parts are
ints wherever they are integral and Fractions only where a denominator is
left.  Because the chart variables are real,
conjugation acts on coefficients only, so every expression built from
{+, -, *, /, integer powers, conj, i} normalizes into this class and
equality of normalized expressions is decidable (by cross-multiplication).

Numbers appear only at point evaluation, and there is one evaluator for it:
eval_many over a PointBatch of real points, with eval its batch of one and
eval_table its form for a table of expressions.  Its reference, a
term-by-term interpreter, lives in the tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import COMMAND_TERM_PAIRS, MAX_TERM_PAIRS, ExprSizeError, refuse_term_pairs

__all__ = [
    "CNum",
    "Chart",
    "PointBatch",
    "ScalarExpr",
    "eval_table",
    "ExprSyntaxError",
    "UnknownVariableError",
    "ExprSizeError",
    "term_pair_budget",
    "parse_expr",
    "const",
    "var",
]


# ---------------------------------------------------------------------------
# coefficients: exact Gaussian rationals


def _rational(x):
    """x with an int in place of a Fraction of denominator 1."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


@dataclass(frozen=True)
class CNum:
    """A complex number with exact rational real and imaginary parts.

    Each part is an int where it is integral and a Fraction only where a
    denominator is left: almost every coefficient is integral, and int
    arithmetic is many times cheaper.  An int equals, and hashes as, the
    Fraction of the same value, and converts to the same float.
    """

    re: int | Fraction
    im: int | Fraction

    @staticmethod
    def of(value) -> "CNum":
        if isinstance(value, CNum):
            return value
        if isinstance(value, complex):
            return CNum(_rational(Fraction(value.real)), _rational(Fraction(value.imag)))
        # an int, the most common constant, is taken as it is
        return CNum(value if type(value) is int else _rational(Fraction(value)), 0)

    def __add__(self, other):
        return CNum(_rational(self.re + other.re), _rational(self.im + other.im))

    def __sub__(self, other):
        return CNum(_rational(self.re - other.re), _rational(self.im - other.im))

    def __neg__(self):
        return CNum(-self.re, -self.im)

    def __mul__(self, other):
        return CNum(
            _rational(self.re * other.re - self.im * other.im),
            _rational(self.re * other.im + self.im * other.re),
        )

    def __truediv__(self, other):
        # a Fraction divisor, so that a quotient of ints is exact, never a float
        d = Fraction(other.re * other.re + other.im * other.im)
        if d == 0:
            raise ZeroDivisionError("division by zero coefficient")
        return CNum(
            _rational((self.re * other.re + self.im * other.im) / d),
            _rational((self.im * other.re - self.re * other.im) / d),
        )

    def conj(self) -> "CNum":
        return CNum(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


C_ZERO = CNum(0, 0)
C_ONE = CNum(1, 0)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Q(i)

Mono = tuple  # exponent tuple, one slot per chart variable


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, C_ZERO) + c
        if s.is_zero:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def _poly_neg(p: dict) -> dict:
    return {mono: -c for mono, c in p.items()}


# term pairs that products may still use inside term_pair_budget, or None:
# outside it, as in library calls, only the bound on one product holds
_pairs_left: Optional[int] = None


@contextmanager
def term_pair_budget():
    """Bound the term pairs of all the products made inside the block by
    COMMAND_TERM_PAIRS; the bound is lifted when the block ends."""
    global _pairs_left
    outer, _pairs_left = _pairs_left, COMMAND_TERM_PAIRS
    try:
        yield
    finally:
        _pairs_left = outer


def _poly_mul(p: dict, q: dict) -> dict:
    global _pairs_left
    pairs = len(p) * len(q)
    if pairs > MAX_TERM_PAIRS:
        refuse_term_pairs(len(p), len(q))
    if _pairs_left is not None:
        _pairs_left -= pairs
        if _pairs_left < 0:
            refuse_term_pairs(len(p), len(q))
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(mono, C_ZERO) + c1 * c2
            if s.is_zero:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def _poly_scale(p: dict, c: CNum) -> dict:
    if c.is_zero:
        return {}
    return {mono: coeff * c for mono, coeff in p.items()}


def _poly_diff(p: dict, i: int) -> dict:
    out = {}
    for mono, c in p.items():
        e = mono[i]
        if e == 0:
            continue
        new = mono[:i] + (e - 1,) + mono[i + 1 :]
        s = out.get(new, C_ZERO) + c * CNum.of(e)
        if not s.is_zero:
            out[new] = s
    return out


def _poly_conj(p: dict) -> dict:
    return {mono: c.conj() for mono, c in p.items()}


def _mono_key(mono: Mono):
    # graded lex order, used for leading terms and deterministic printing
    return (sum(mono), mono)


def _leading(p: dict) -> Mono:
    return max(p, key=_mono_key)


def _poly_divides(num: dict, den: dict):
    """Exact multivariate division; returns the quotient or None."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return {}
    lead = _leading(den)
    lead_c = den[lead]
    rem = dict(num)
    quo: dict = {}
    # bounded loop: each step strictly lowers the leading monomial of rem
    while rem:
        lm = _leading(rem)
        diff = tuple(a - b for a, b in zip(lm, lead))
        if any(d < 0 for d in diff):
            return None
        c = rem[lm] / lead_c
        quo[diff] = c
        rem = _poly_add(rem, _poly_neg(_poly_mul({diff: c}, den)))
    return quo


# ---------------------------------------------------------------------------
# evaluation
#
# A lowered polynomial is a list of terms (re, im, ((var, exp), ...)) in dict
# order.  Evaluating it over a batch repeats, elementwise, the float
# operations of summing the terms with Python complex numbers: powers by libm
# pow, each complex product spelled out the way CPython's complex type
# computes it, terms summed in dict order.  (NumPy's own complex multiply and
# array power round differently.)  The tests keep that term-by-term
# interpreter as the reference and check the evaluator against it bit for
# bit, signed zeros included.


def _lower(p: dict) -> list:
    terms = []
    for mono, c in p.items():
        z = c.to_complex()
        terms.append((z.real, z.imag, tuple((i, e) for i, e in enumerate(mono) if e)))
    return terms


class PointBatch:
    """An (N, m) batch of real points and the coordinate powers taken on it.

    Each power is computed once, with Python float ``**``, and shared by
    every expression evaluated on the batch.  Chart points are real: complex
    input is taken by its real part when every imaginary part is zero and
    refused otherwise.
    """

    def __init__(self, points):
        X = np.asarray(points)
        if np.iscomplexobj(X):
            if np.any(X.imag != 0):
                raise ValueError("chart points are real")
            X = X.real
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("a point batch must be an (N, m) array")
        self.points = X
        self._powers: dict = {}

    def __len__(self) -> int:
        return self.points.shape[0]

    def power(self, i: int, e: int) -> np.ndarray:
        """x_i ** e at every point of the batch."""
        col = self._powers.get((i, e))
        if col is None:
            xs = self.points[:, i]
            col = xs.copy() if e == 1 else np.array([x**e for x in xs.tolist()])
            self._powers[(i, e)] = col
        return col


def _eval_terms(terms: list, batch: PointBatch):
    re = im = 0.0
    for cr, ci, factors in terms:
        tr, ti = cr, ci
        for i, e in factors:
            p = batch.power(i, e)
            tr, ti = tr * p - ti * 0.0, tr * 0.0 + ti * p
        re, im = re + tr, im + ti
    return re, im


def _quotient(ar, ai, br, bi):
    """CPython's complex division (Smith's method), elementwise on real parts."""
    by_re = np.abs(br) >= np.abs(bi)
    by_im = np.abs(bi) >= np.abs(br)
    t = bi / br
    d = br + bi * t
    re_r, im_r = (ar + ai * t) / d, (ai - ar * t) / d
    t = br / bi
    d = br * t + bi
    re_i, im_i = (ar * t + ai) / d, (ai * t - ar) / d
    # neither branch holds only when the divisor has a nan part
    re = np.where(by_re, re_r, np.where(by_im, re_i, np.nan))
    im = np.where(by_re, im_r, np.where(by_im, im_i, np.nan))
    return re, im


# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class Chart:
    """A real coordinate chart, optionally with a complex pairing.

    ``complex_pairs`` lists 0-based index pairs (re, im) so that the k-th
    complex coordinate is ``z^k = x[re] + i*x[im]``.  When present it must be
    a bijection onto index pairs and the dimension must be even.
    """

    dim: int
    names: tuple = ()
    complex_pairs: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        names = self.names or tuple(f"x{i + 1}" for i in range(self.dim))
        if len(names) != self.dim or len(set(names)) != self.dim:
            raise ValueError("chart needs dim distinct variable names")
        object.__setattr__(self, "names", tuple(names))
        if self.complex_pairs:
            if self.dim % 2 != 0:
                raise ValueError("complex pairing needs even dimension")
            used = [i for pair in self.complex_pairs for i in pair]
            if sorted(used) != list(range(self.dim)):
                raise ValueError("complex pairing must cover each index once")
            object.__setattr__(self, "complex_pairs", tuple(tuple(p) for p in self.complex_pairs))

    @staticmethod
    def real(dim: int, names: Optional[Iterable[str]] = None) -> "Chart":
        return Chart(dim, tuple(names) if names else ())

    @staticmethod
    def complex_chart(n: int, names: Optional[Iterable[str]] = None) -> "Chart":
        """R^{2n} with the consecutive pairing z^k = x_{2k-1} + i x_{2k}."""
        pairs = tuple((2 * k, 2 * k + 1) for k in range(n))
        return Chart(2 * n, tuple(names) if names else (), pairs)

    @property
    def n_complex(self) -> int:
        return len(self.complex_pairs)


# ---------------------------------------------------------------------------
# scalar expressions


class ScalarExpr:
    """A rational function num/den on a chart, kept in normalized form."""

    __slots__ = ("chart", "num", "den", "_lowered")

    def __init__(self, chart: Chart, num: dict, den: Optional[dict] = None):
        self.chart = chart
        self._lowered = None
        if den is None:
            den = {(0,) * chart.dim: C_ONE}
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den
        self._normalize()

    def _normalize(self):
        one = {self._one_mono(): C_ONE}
        if not self.num:
            self.den = one
            return
        if self.den == one:
            return
        quo = _poly_divides(self.num, self.den)
        if quo is not None:
            self.num = quo
            self.den = {self._one_mono(): C_ONE}
            return
        # make the denominator monic in graded-lex order
        lc = self.den[_leading(self.den)]
        if lc != C_ONE:
            inv = C_ONE / lc
            self.num = _poly_scale(self.num, inv)
            self.den = _poly_scale(self.den, inv)

    def _one_mono(self) -> Mono:
        return (0,) * self.chart.dim

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(chart: Chart, value) -> "ScalarExpr":
        c = CNum.of(value)
        num = {} if c.is_zero else {(0,) * chart.dim: c}
        return ScalarExpr(chart, num)

    @staticmethod
    def variable(chart: Chart, i: int) -> "ScalarExpr":
        mono = tuple(1 if j == i else 0 for j in range(chart.dim))
        return ScalarExpr(chart, {mono: C_ONE})

    # -- algebra -----------------------------------------------------------

    def _coerce(self, other) -> "ScalarExpr":
        if isinstance(other, ScalarExpr):
            if other.chart is not self.chart and other.chart != self.chart:
                raise ValueError("chart mismatch")
            return other
        return ScalarExpr.constant(self.chart, other)

    def __add__(self, other):
        o = self._coerce(other)
        if self.den == o.den:
            return ScalarExpr(self.chart, _poly_add(self.num, o.num), self.den)
        num = _poly_add(_poly_mul(self.num, o.den), _poly_mul(o.num, self.den))
        return ScalarExpr(self.chart, num, _poly_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(self.chart, _poly_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        # unit denominators multiply to the unit, with the same num
        den = None if self.is_polynomial and o.is_polynomial else _poly_mul(self.den, o.den)
        return ScalarExpr(self.chart, _poly_mul(self.num, o.num), den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if not o.num:
            raise ZeroDivisionError("division by the zero expression")
        num = self.num if o.is_polynomial else _poly_mul(self.num, o.den)
        return ScalarExpr(self.chart, num, _poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k < 0:
            return (ScalarExpr.constant(self.chart, 1) / self) ** (-k)
        out = ScalarExpr.constant(self.chart, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def conj(self) -> "ScalarExpr":
        return ScalarExpr(self.chart, _poly_conj(self.num), _poly_conj(self.den))

    def diff(self, i: int) -> "ScalarExpr":
        """Exact partial derivative with respect to chart variable i (0-based)."""
        if not 0 <= i < self.chart.dim:
            raise IndexError("variable index out of range")
        dn = _poly_diff(self.num, i)
        if self.den == {self._one_mono(): C_ONE}:
            return ScalarExpr(self.chart, dn)
        dd = _poly_diff(self.den, i)
        num = _poly_add(_poly_mul(dn, self.den), _poly_neg(_poly_mul(self.num, dd)))
        return ScalarExpr(self.chart, num, _poly_mul(self.den, self.den))

    # -- predicates and evaluation ------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_polynomial(self) -> bool:
        return self.den == {self._one_mono(): C_ONE}

    def __eq__(self, other):
        if not isinstance(other, ScalarExpr):
            try:
                other = self._coerce(other)
            except Exception:
                return NotImplemented
        return _poly_mul(self.num, other.den) == _poly_mul(other.num, self.den)

    def __hash__(self):
        raise TypeError("ScalarExpr is unhashable")

    def eval(self, point: Sequence[float]) -> complex:
        """The value at one real point: eval_many on a batch of one."""
        return complex(self.eval_many(PointBatch([point]))[0])

    def eval_many(self, points) -> np.ndarray:
        """Values at every row of an (N, m) array of real points or a PointBatch.

        The expression is lowered to float terms on first use and the
        lowered form is kept on it.
        """
        batch = points if isinstance(points, PointBatch) else PointBatch(points)
        if batch.points.shape[1] != self.chart.dim:
            raise ValueError("point dimension mismatch")
        if self._lowered is None:
            den = None if self.is_polynomial else _lower(self.den)
            self._lowered = (_lower(self.num), den)
        num, den = self._lowered
        # overflow to inf and inf * 0 pass silently, as in complex arithmetic
        with np.errstate(all="ignore"):
            ar, ai = _eval_terms(num, batch)
            if den is None:
                # the quotient by the constant denominator 1 + 0j
                re, im = ar + ai * 0.0, ai - ar * 0.0
            else:
                br, bi = _eval_terms(den, batch)
                if np.any((br == 0) & (bi == 0)):
                    raise ZeroDivisionError("expression denominator vanishes at the point")
                re, im = _quotient(ar, ai, br, bi)
        out = np.empty(len(batch), dtype=complex)
        out.real = re
        out.imag = im
        return out

    # -- printing ------------------------------------------------------------

    def _poly_str(self, p: dict) -> str:
        if not p:
            return "0"
        parts = []
        for mono in sorted(p, key=_mono_key, reverse=True):
            c = p[mono]
            factors = []
            if c.im == 0:
                if c.re != 1 or not any(mono):
                    factors.append(_frac_str(c.re))
            elif c.re == 0:
                if c.im == 1:
                    factors.append("i")
                else:
                    factors.append(f"{_frac_str(c.im)}*i")
            else:
                factors.append(f"({_frac_str(c.re)} + {_frac_str(c.im)}*i)")
            for j, e in enumerate(mono):
                if e == 1:
                    factors.append(self.chart.names[j])
                elif e > 1:
                    factors.append(f"{self.chart.names[j]}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self):
        ns = self._poly_str(self.num)
        if self.is_polynomial:
            return ns
        return f"({ns}) / ({self._poly_str(self.den)})"

    __repr__ = __str__


def _frac_str(f: int | Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    if f.numerator < 0:
        return f"(0 - {-f.numerator}/{f.denominator})"
    return f"{f.numerator}/{f.denominator}"


def eval_table(table, points) -> np.ndarray:
    """Values of a nested list of expressions over a batch of points.

    The result has shape (N,) + the table's shape and is C-contiguous, so
    its i-th entry is laid out as np.array of the values at point i would be.
    """
    batch = points if isinstance(points, PointBatch) else PointBatch(points)
    table = np.array(table, dtype=object)
    # zero entries are not evaluated, so the dimension is checked here
    if table.size and batch.points.shape[1] != table.flat[0].chart.dim:
        raise ValueError("point dimension mismatch")
    out = np.zeros((len(batch), table.size), dtype=complex)
    for idx, expr in enumerate(table.flat):
        if not expr.is_zero:
            out[:, idx] = expr.eval_many(batch)
    return out.reshape((len(batch),) + table.shape)


def const(chart: Chart, value) -> ScalarExpr:
    return ScalarExpr.constant(chart, value)


def var(chart: Chart, i: int) -> ScalarExpr:
    return ScalarExpr.variable(chart, i)


# ---------------------------------------------------------------------------
# parser for the expression grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' int)?
#   base   := number | 'i' | ident | 'conj' '(' expr ')' | '(' expr ')' | '-' base


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnknownVariableError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown variable name: {name!r}")
        self.name = name


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def take_ident(self):
        self._skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return self.text[start : self.pos], start
        return None, start

    def take_number(self):
        self._skip_ws()
        start = self.pos
        seen_digit = seen_dot = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit():
                seen_digit = True
            elif ch == "." and not seen_dot:
                seen_dot = True
            else:
                break
            self.pos += 1
        if not seen_digit:
            self.pos = start
            return None, start
        return self.text[start : self.pos], start

    def expect(self, ch: str):
        got, pos = self.peek()
        if got != ch:
            raise ExprSyntaxError(f"expected {ch!r}", pos)
        self.pos += 1


def parse_expr(text: str, chart: Chart) -> ScalarExpr:
    """Parse ``text`` against the chart's variables.

    Identifiers resolve to declared variable names; when the chart carries a
    complex pairing, ``z<k>`` and ``zb<k>`` resolve to x+iy / x-iy of the
    k-th pair.  Raises ExprSyntaxError with the offending offset, or
    UnknownVariableError.
    """
    toks = _Tokens(text)
    value = _parse_sum(toks, chart)
    ch, pos = toks.peek()
    if ch is not None:
        raise ExprSyntaxError(f"unexpected {ch!r}", pos)
    return value


def _parse_sum(toks, chart):
    value = _parse_term(toks, chart)
    while True:
        ch, _ = toks.peek()
        if ch == "+":
            toks.pos += 1
            value = value + _parse_term(toks, chart)
        elif ch == "-":
            toks.pos += 1
            value = value - _parse_term(toks, chart)
        else:
            return value


def _parse_term(toks, chart):
    value = _parse_factor(toks, chart)
    while True:
        ch, pos = toks.peek()
        if ch == "*":
            toks.pos += 1
            value = value * _parse_factor(toks, chart)
        elif ch == "/":
            toks.pos += 1
            divisor = _parse_factor(toks, chart)
            if divisor.is_zero:
                raise ExprSyntaxError("division by zero expression", pos)
            value = value / divisor
        else:
            return value


def _parse_factor(toks, chart):
    value = _parse_base(toks, chart)
    ch, _ = toks.peek()
    if ch == "^":
        toks.pos += 1
        sign = 1
        ch, _ = toks.peek()
        if ch == "-":
            toks.pos += 1
            sign = -1
        digits, pos = toks.take_number()
        if digits is None or "." in digits:
            raise ExprSyntaxError("expected integer exponent", pos)
        value = value ** (sign * int(digits))
    return value


def _parse_base(toks, chart):
    ch, pos = toks.peek()
    if ch is None:
        raise ExprSyntaxError("unexpected end of input", pos)
    if ch == "-":
        toks.pos += 1
        return -_parse_base(toks, chart)
    if ch == "(":
        toks.pos += 1
        value = _parse_sum(toks, chart)
        toks.expect(")")
        return value
    number, _ = toks.take_number()
    if number is not None:
        return ScalarExpr.constant(chart, Fraction(number))
    ident, ipos = toks.take_ident()
    if ident is None:
        raise ExprSyntaxError(f"unexpected {ch!r}", pos)
    if ident == "i":
        return ScalarExpr.constant(chart, 1j)
    if ident == "conj":
        toks.expect("(")
        value = _parse_sum(toks, chart)
        toks.expect(")")
        return value.conj()
    return _resolve_ident(ident, chart)


def _resolve_ident(ident: str, chart: Chart) -> ScalarExpr:
    if ident in chart.names:
        return ScalarExpr.variable(chart, chart.names.index(ident))
    if chart.complex_pairs:
        for prefix, anti in (("zb", True), ("z", False)):
            if ident.startswith(prefix) and ident[len(prefix) :].isdigit():
                k = int(ident[len(prefix) :])
                if 1 <= k <= chart.n_complex:
                    re_i, im_i = chart.complex_pairs[k - 1]
                    x = ScalarExpr.variable(chart, re_i)
                    y = ScalarExpr.variable(chart, im_i)
                    iy = ScalarExpr.constant(chart, 1j) * y
                    return x - iy if anti else x + iy
    raise UnknownVariableError(ident)
