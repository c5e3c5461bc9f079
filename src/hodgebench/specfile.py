"""Line-oriented spec files: [section] headers with key = value entries.

A SpecFile checks its field values when it is made, by the parser or in
code.  Expression values are quoted strings in the chart-calculus grammar,
parsed against the declared chart by the builder that uses them, so a bad
expression is refused when the algebroid or boundary data is built.  A
SpecFile can rebuild its normalized text (print/parse round-trips to an
equal spec) and instantiate the algebroid, boundary data and sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .algebroids import (
    AlgebroidSpec,
    make_antiholomorphic,
    make_graph_bivector,
    make_graph_two_form,
    make_holomorphic_poisson,
    make_tangent,
)
from .bounds import SpecError, check_chart_dim, check_samples
from .calculus import FormExpr, VectorFieldExpr
from .levi import BoundaryData, sphere_lattice
from .scalars import Chart, parse_expr

__all__ = ["SpecFile", "SpecError", "parse_specfile", "format_specfile"]

ALGEBROID_KINDS = (
    "tangent",
    "antiholomorphic",
    "graph_bivector",
    "graph_two_form",
    "holomorphic_poisson",
    "custom",
)

SAMPLER_KINDS = ("sphere", "two_spheres", "poisson_locus", "sphere_plus_locus")

# the [algebroid] table prefixes each kind reads; the other kinds take none
KIND_PREFIXES: Dict[str, Tuple[str, ...]] = {
    "holomorphic_poisson": ("sigma_",),
    "graph_bivector": ("pi_",),
    "graph_two_form": ("omega_",),
    "custom": ("anchor_", "structure_"),
}
TABLE_PREFIXES = sum(KIND_PREFIXES.values(), ())

# the keys each section takes; [algebroid] also takes table entries, by the
# prefixes above.  A key that the chosen sampler or kind does not read is
# still valid, so that a spec can switch samplers by one line
SECTION_KEYS: Dict[str, Tuple[str, ...]] = {
    "chart": ("dim", "complex"),
    "boundary": ("r", "sampler", "samples", "locus_samples", "inner_radius"),
    "algebroid": ("kind", "n"),
    "options": ("rank_tol", "eig_zero_tol", "seed"),
}

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


@dataclass(frozen=True)
class SpecFile:
    chart_dim: int
    complex_pairs: bool
    r_text: str
    sampler: str = "sphere"
    samples: int = 1000
    locus_samples: int = 20
    inner_radius: float = 0.5
    kind: str = "tangent"
    entries: Tuple[Tuple[str, str], ...] = ()  # expression tables: (key, text) in key order
    rank_tol: float = 1e-8
    eig_zero_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        """Refuse a field value that no command could run on, before any chart
        or sample exists; the expressions are checked when they are built."""
        object.__setattr__(self, "entries", tuple(sorted(dict(self.entries).items())))
        dim = self.chart_dim
        if dim < 1:
            raise SpecError("chart dimension must be >= 1")
        if self.complex_pairs and dim % 2:
            raise SpecError("complex charts need even dimension")
        check_chart_dim(dim)
        if self.kind not in ALGEBROID_KINDS:
            raise SpecError(f"unknown algebroid kind {self.kind!r}")
        if self.sampler not in SAMPLER_KINDS:
            raise SpecError(f"unknown sampler {self.sampler!r}")
        if self.samples < 1:
            raise SpecError("[boundary] samples must be >= 1")
        check_samples("[boundary] samples", self.samples)
        if self.sampler == "sphere_plus_locus":
            if self.locus_samples < 0:
                raise SpecError(f"[boundary] locus_samples must be >= 0, got {self.locus_samples}")
            check_samples("[boundary] locus_samples", self.locus_samples)
        if self.sampler == "two_spheres" and not 0 < self.inner_radius < math.inf:
            raise SpecError(f"[boundary] inner_radius must be finite and > 0, "
                            f"got {self.inner_radius!r}")
        for key in ("rank_tol", "eig_zero_tol"):
            tol = getattr(self, key)
            if not 0 < tol < 1:  # also rejects nan and inf
                raise SpecError(f"[options] {key} must be finite with 0 < {key} < 1, got {tol!r}")
        if self.sampler in ("poisson_locus", "sphere_plus_locus") and dim < 4:
            raise SpecError(f"sampler {self.sampler!r} needs chart dim >= 4, got {dim}")
        if self.kind in ("antiholomorphic", "holomorphic_poisson") and not self.complex_pairs:
            raise SpecError(f"kind {self.kind!r} needs a complex chart")
        prefixes = KIND_PREFIXES.get(self.kind, ())
        for key, _ in self.entries:
            if not key.startswith(prefixes):
                takes = f"only {'/'.join(prefixes)} entries" if prefixes else "no table entries"
                raise SpecError(f"kind {self.kind!r} takes {takes}, got {key!r}")
        anchor_keys = {key for key, _ in self.entries if key.startswith("anchor_")}
        rank = len(anchor_keys)
        if self.kind == "custom":
            if not rank:
                raise SpecError("custom algebroids need anchor_<i> entries")
            if anchor_keys != {f"anchor_{i}" for i in range(1, rank + 1)}:
                raise SpecError("anchor entries must be numbered 1..rank")
        for key, text in self.entries:
            if key.startswith("anchor_"):
                if len(text.split(";")) != dim:
                    raise SpecError(f"{key} needs {dim} ';'-separated components")
                continue
            if key.startswith("structure_"):
                if len(text.split(";")) != rank:
                    raise SpecError(f"{key} needs {rank} ';'-separated coefficients")
                upper = rank
            else:
                upper = dim // 2 if self.kind == "holomorphic_poisson" else dim
            i, j = _pair(key)
            if not 1 <= i < j <= upper:
                raise SpecError(f"table key {key!r} out of range (need 1 <= i < j <= {upper})")

    # -- construction ---------------------------------------------------------

    def chart(self) -> Chart:
        if self.complex_pairs:
            return Chart.complex_chart(self.chart_dim // 2)
        return Chart.real(self.chart_dim)

    def build_algebroid(self) -> AlgebroidSpec:
        chart = self.chart()
        if self.kind == "tangent":
            return make_tangent(chart)
        if self.kind == "antiholomorphic":
            return make_antiholomorphic(self.chart_dim // 2)
        parse = partial(parse_expr, chart=chart)
        if self.kind == "holomorphic_poisson":
            sigma = _table(self.entries, parse, 0)
            return make_holomorphic_poisson(self.chart_dim // 2, sigma)
        if self.kind == "graph_bivector":
            pi = _table(self.entries, parse, 1)
            return make_graph_bivector(chart, pi)
        if self.kind == "graph_two_form":
            omega = FormExpr.from_table(chart, 2, _table(self.entries, parse, 1))
            return make_graph_two_form(omega)
        return self._build_custom(chart)

    def _build_custom(self, chart: Chart) -> AlgebroidSpec:
        # __post_init__ has checked the numbering and every component count;
        # each component is parsed here, once
        entries = dict(self.entries)
        rank = sum(key.startswith("anchor_") for key in entries)
        anchors = tuple(
            VectorFieldExpr(chart, _parse_components(entries[f"anchor_{i}"], chart))
            for i in range(1, rank + 1)
        )
        rows = [(k, v) for k, v in self.entries if k.startswith("structure_")]
        structure = _table(rows, partial(_parse_components, chart=chart), 1)
        return AlgebroidSpec(chart, rank, anchors, structure or None)

    def build_boundary(self) -> BoundaryData:
        r = parse_expr(self.r_text, self.chart())
        return BoundaryData(r, rank_tol=self.rank_tol, eig_zero_tol=self.eig_zero_tol)

    def sample_points(self, count: Optional[int] = None) -> np.ndarray:
        """The (N, dim) float64 boundary sample of the spec's sampler, or its
        first ``count`` points, drawn without the rest: the same bits as
        ``sample_points()[:count]``, since each sampler's points do not
        depend on how many follow them."""
        half = self.samples // 2
        sphere = partial(sphere_lattice, self.chart_dim)
        locus = partial(_locus_circle, self.chart_dim)
        # (size, draw) of each part of the sample, in order
        parts = {
            "sphere": [(self.samples, sphere)],
            "two_spheres": [(half, sphere),
                            (self.samples - half, partial(sphere, radius=self.inner_radius))],
            "poisson_locus": [(self.samples, locus)],
            "sphere_plus_locus": [(self.samples, sphere), (self.locus_samples, locus)],
        }[self.sampler]
        left = sum(size for size, _ in parts) if count is None else count
        drawn = []
        for size, draw in parts:
            drawn.append(draw(min(size, left)))
            left -= len(drawn[-1])
        return drawn[0] if len(drawn) == 1 else np.concatenate(drawn)


def _locus_circle(dim: int, count: int) -> np.ndarray:
    # the non-elliptic circle {x = z = w = 0, |y| = 1} of the Poisson gallery
    pts = np.zeros((count, dim))
    pts[:, 2:4] = sphere_lattice(2, count)
    return pts


def _parse_components(text: str, chart: Chart) -> tuple:
    """The ';'-separated expressions of an anchor_ or structure_ entry."""
    return tuple(parse_expr(c.strip(), chart) for c in text.split(";"))


def _table(entries: Tuple, parse: Callable[[str], object], base: int) -> Dict:
    """{(i - base, j - base): parse(text)} over (key, text) prefix_i_j table entries."""
    return {tuple(i - base for i in _pair(key)): parse(text) for key, text in entries}


def _pair(key: str) -> Tuple[int, int]:
    parts = key.split("_")
    if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
        raise SpecError(f"bad table key {key!r} (expected prefix_i_j)")
    return int(parts[1]), int(parts[2])


# ---------------------------------------------------------------------------
# parsing


def parse_specfile(text: str) -> SpecFile:
    sections: Dict[str, Dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in SECTION_KEYS:
                raise SpecError(f"line {lineno}: unknown section [{current}] "
                                f"(expected one of {', '.join(SECTION_KEYS)})")
            # a repeated section continues the first
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key = value, got {line!r}")
        if current is None:
            raise SpecError(f"line {lineno}: entry before any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        table = current == "algebroid" and key.startswith(TABLE_PREFIXES)
        if key not in SECTION_KEYS[current] and not table:
            raise SpecError(f"line {lineno}: [{current}] has no key {key!r}")
        if key in sections[current]:
            raise SpecError(f"line {lineno}: [{current}] {key} is given twice")
        sections[current][key] = value.strip()
    for needed in ("chart", "boundary", "algebroid"):
        if needed not in sections:
            raise SpecError(f"missing [{needed}] section")
    chart_sec = sections["chart"]
    if "dim" not in chart_sec:
        raise SpecError("[chart] needs dim")
    dim = _number(sections, "chart", "dim", int, None)
    complex_text = chart_sec.get("complex", "false")
    complex_pairs = _BOOLEANS.get(complex_text.lower())
    if complex_pairs is None:
        raise SpecError(f"[chart] complex must be true or false, got {complex_text!r}")
    bd_sec = sections["boundary"]
    if "r" not in bd_sec:
        raise SpecError("[boundary] needs r")
    alg_sec = sections["algebroid"]
    spec = SpecFile(
        chart_dim=dim,
        complex_pairs=complex_pairs,
        r_text=_unquote(bd_sec["r"]),
        sampler=bd_sec.get("sampler", "sphere"),
        samples=_number(sections, "boundary", "samples", int, "1000"),
        locus_samples=_number(sections, "boundary", "locus_samples", int, "20"),
        inner_radius=_number(sections, "boundary", "inner_radius", float, "0.5"),
        kind=alg_sec.get("kind", ""),
        entries={k: _unquote(v) for k, v in alg_sec.items() if k.startswith(TABLE_PREFIXES)},
        rank_tol=_number(sections, "options", "rank_tol", float, "1e-8"),
        eig_zero_tol=_number(sections, "options", "eig_zero_tol", float, "1e-8"),
        seed=_number(sections, "options", "seed", int, "0"),
    )
    # n is not a field: a complex kind's n is half its chart dimension
    n = _number(sections, "algebroid", "n", int, str(dim // 2))
    if spec.kind in ("antiholomorphic", "holomorphic_poisson") and n != dim // 2:
        raise SpecError("n must equal half the chart dimension")
    return spec


def _number(sections: Dict[str, Dict[str, str]], section: str, key: str, convert, default):
    """[section] key read by int or float (default when absent); a SpecError
    naming the section and the key when it is not such a number."""
    text = sections.get(section, {}).get(key, default)
    try:
        return convert(text)
    except ValueError:
        what = "an integer" if convert is int else "a number"
        raise SpecError(f"[{section}] {key} must be {what}, got {text!r}") from None


def _unquote(value: str) -> str:
    v = value.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "'\"":
        return v[1:-1]
    return v


def format_specfile(spec: SpecFile) -> str:
    lines = ["[chart]", f"dim = {spec.chart_dim}"]
    if spec.complex_pairs:
        lines.append("complex = true")
    lines += [
        "",
        "[boundary]",
        f'r = "{spec.r_text}"',
        f"sampler = {spec.sampler}",
        f"samples = {spec.samples}",
    ]
    if spec.sampler == "sphere_plus_locus":
        lines.append(f"locus_samples = {spec.locus_samples}")
    if spec.sampler == "two_spheres":
        lines.append(f"inner_radius = {spec.inner_radius}")
    lines += ["", "[algebroid]", f"kind = {spec.kind}"]
    if spec.kind in ("antiholomorphic", "holomorphic_poisson"):
        lines.append(f"n = {spec.chart_dim // 2}")
    for key, text in spec.entries:
        lines.append(f'{key} = "{text}"')
    lines += [
        "",
        "[options]",
        f"rank_tol = {spec.rank_tol!r}",
        f"eig_zero_tol = {spec.eig_zero_tol!r}",
        f"seed = {spec.seed}",
        "",
    ]
    return "\n".join(lines)
