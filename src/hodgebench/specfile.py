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
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

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


def _locus_circle(dim: int, count: int) -> np.ndarray:
    # the non-elliptic circle {x = z = w = 0, |y| = 1} of the Poisson gallery
    pts = np.zeros((count, dim))
    pts[:, 2:4] = sphere_lattice(2, count)
    return pts


def _parse_components(text: str, chart: Chart) -> tuple:
    """The ';'-separated expressions of an anchor_ or structure_ entry."""
    return tuple(parse_expr(c.strip(), chart) for c in text.split(";"))


def _table(entries: Tuple, chart: Chart, base: int, parse: Callable) -> Dict:
    """{(i - base, j - base): parse(text, chart)} over (key, text) prefix_i_j
    table entries."""
    return {tuple(i - base for i in _pair(key)): parse(text, chart) for key, text in entries}


def _pair(key: str) -> Tuple[int, int]:
    # canonical ASCII numerals only: sigma_01_02 (or in full-width digits)
    # would name the slot of sigma_1_2, and the algebroid keep one of the two
    parts = key.split("_")
    if len(parts) != 3 or not all(p.isdecimal() and str(int(p)) == p for p in parts[1:]):
        raise SpecError(f"bad table key {key!r} (expected prefix_i_j)")
    return int(parts[1]), int(parts[2])


def _build_custom(chart: Chart, entries: Tuple) -> AlgebroidSpec:
    # SpecFile has checked the numbering and every component count; each
    # component is parsed here, once
    table = dict(entries)
    rank = sum(key.startswith("anchor_") for key in table)
    anchors = tuple(
        VectorFieldExpr(chart, _parse_components(table[f"anchor_{i}"], chart))
        for i in range(1, rank + 1)
    )
    rows = [(k, v) for k, v in entries if k.startswith("structure_")]
    structure = _table(rows, chart, 1, _parse_components)
    return AlgebroidSpec(chart, rank, anchors, structure or None)


class Kind(NamedTuple):
    complex: bool  # needs a complex chart; its n and table keys then run to dim // 2
    prefixes: Tuple[str, ...]  # the [algebroid] table prefixes it reads
    build: Callable[[Chart, Tuple], AlgebroidSpec]  # from the chart and the entries


class Sampler(NamedTuple):
    reads: Tuple[str, ...]  # [boundary] keys beyond samples; other samplers ignore them
    min_dim: int  # the least chart dimension it draws on
    parts: Callable[["SpecFile"], list]  # the sample's parts, each (size, draw(dim, count))


# the builders and parts name their functions when they run, so that a
# wrapper put on this module in their place sees each call
KINDS: Dict[str, Kind] = {
    "tangent": Kind(False, (), lambda chart, entries: make_tangent(chart)),
    "antiholomorphic": Kind(True, (), lambda chart, entries: make_antiholomorphic(chart.n_complex)),
    "graph_bivector": Kind(False, ("pi_",), lambda chart, entries: make_graph_bivector(
        chart, _table(entries, chart, 1, parse_expr))),
    "graph_two_form": Kind(False, ("omega_",), lambda chart, entries: make_graph_two_form(
        FormExpr.from_table(chart, 2, _table(entries, chart, 1, parse_expr)))),
    "holomorphic_poisson": Kind(True, ("sigma_",), lambda chart, entries: make_holomorphic_poisson(
        chart.n_complex, _table(entries, chart, 0, parse_expr))),
    "custom": Kind(False, ("anchor_", "structure_"), _build_custom),
}

SAMPLERS: Dict[str, Sampler] = {
    "sphere": Sampler((), 1, lambda spec: [(spec.samples, sphere_lattice)]),
    "two_spheres": Sampler(("inner_radius",), 1, lambda spec: [
        (spec.samples // 2, sphere_lattice),
        (spec.samples - spec.samples // 2, partial(sphere_lattice, radius=spec.inner_radius))]),
    "poisson_locus": Sampler((), 4, lambda spec: [(spec.samples, _locus_circle)]),
    "sphere_plus_locus": Sampler(("locus_samples",), 4, lambda spec: [
        (spec.samples, sphere_lattice), (spec.locus_samples, _locus_circle)]),
}

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _boolean(text: str) -> bool:
    return _BOOLEANS[text.lower()]


def _unquote(value: str) -> str:
    v = value.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "'\"":
        return v[1:-1]
    return v


# every key of a spec, by section, in the order parse_specfile reads them: the
# field it sets, the reader of its text, and the text read when it is absent
# (None: the field's default; dim and r have none and must be given).  n sets
# no field: a complex kind's n is half its chart dimension.  [algebroid] also
# takes its kind's table entries.  A key that the spec's sampler or kind does
# not read is still valid, so that a spec can switch samplers by one line
SPEC_KEYS: Dict[str, Dict[str, tuple]] = {
    "chart": {"dim": ("chart_dim", int, None), "complex": ("complex_pairs", _boolean, "false")},
    "boundary": {"r": ("r_text", _unquote, None), "sampler": ("sampler", str, None),
                 "samples": ("samples", int, None),
                 "locus_samples": ("locus_samples", int, None),
                 "inner_radius": ("inner_radius", float, None)},
    "algebroid": {"kind": ("kind", str, None), "n": (None, int, None)},
    "options": {"rank_tol": ("rank_tol", float, None),
                "eig_zero_tol": ("eig_zero_tol", float, None), "seed": ("seed", int, None)},
}

# what each reader that can refuse a text expects; how values are written back
_EXPECTS = {int: "an integer", float: "a number", _boolean: "true or false"}
_WRITERS = {_unquote: '"{}"'.format, _boolean: {True: "true", False: "false"}.get}


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
        if self.kind not in KINDS:
            raise SpecError(f"unknown algebroid kind {self.kind!r}")
        if self.sampler not in SAMPLERS:
            raise SpecError(f"unknown sampler {self.sampler!r}")
        if self.samples < 1:
            raise SpecError("[boundary] samples must be >= 1")
        check_samples("[boundary] samples", self.samples)
        kind, sampler = KINDS[self.kind], SAMPLERS[self.sampler]
        if "locus_samples" in sampler.reads:
            if self.locus_samples < 0:
                raise SpecError(f"[boundary] locus_samples must be >= 0, got {self.locus_samples}")
            check_samples("[boundary] locus_samples", self.locus_samples)
        if "inner_radius" in sampler.reads and not 0 < self.inner_radius < math.inf:
            raise SpecError(f"[boundary] inner_radius must be finite and > 0, "
                            f"got {self.inner_radius!r}")
        for key in ("rank_tol", "eig_zero_tol"):
            tol = getattr(self, key)
            if not 0 < tol < 1:  # also rejects nan and inf
                raise SpecError(f"[options] {key} must be finite with 0 < {key} < 1, got {tol!r}")
        if dim < sampler.min_dim:
            raise SpecError(f"sampler {self.sampler!r} needs chart dim >= {sampler.min_dim}, "
                            f"got {dim}")
        if kind.complex and not self.complex_pairs:
            raise SpecError(f"kind {self.kind!r} needs a complex chart")
        for key, _ in self.entries:
            if not key.startswith(kind.prefixes):
                takes = (f"only {'/'.join(kind.prefixes)} entries" if kind.prefixes
                         else "no table entries")
                raise SpecError(f"kind {self.kind!r} takes {takes}, got {key!r}")
        anchor_keys = {key for key, _ in self.entries if key.startswith("anchor_")}
        rank = len(anchor_keys)
        if "anchor_" in kind.prefixes:
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
                upper = dim // 2 if kind.complex else dim
            i, j = _pair(key)
            if not 1 <= i < j <= upper:
                raise SpecError(f"table key {key!r} out of range (need 1 <= i < j <= {upper})")

    # -- construction ---------------------------------------------------------

    @property
    def sample_size(self) -> int:
        """The number of points in the spec's sample."""
        return sum(size for size, _ in SAMPLERS[self.sampler].parts(self))

    def chart(self) -> Chart:
        return Chart(self.chart_dim, self.complex_pairs)

    def build_algebroid(self) -> AlgebroidSpec:
        return KINDS[self.kind].build(self.chart(), self.entries)

    def build_boundary(self) -> BoundaryData:
        r = parse_expr(self.r_text, self.chart())
        return BoundaryData(r, rank_tol=self.rank_tol, eig_zero_tol=self.eig_zero_tol)

    def sample_points(self, count: Optional[int] = None) -> np.ndarray:
        """The (N, dim) float64 boundary sample of the spec's sampler, or its
        first ``count`` points, drawn without the rest: the same bits as
        ``sample_points()[:count]``, since each sampler's points do not
        depend on how many follow them."""
        left = self.sample_size if count is None else count
        drawn = []
        for size, draw in SAMPLERS[self.sampler].parts(self):
            drawn.append(draw(self.chart_dim, min(size, left)))
            left -= len(drawn[-1])
        return drawn[0] if len(drawn) == 1 else np.concatenate(drawn)


# ---------------------------------------------------------------------------
# parsing


def parse_specfile(text: str) -> SpecFile:
    sections: Dict[str, Dict[str, str]] = {}
    current: Optional[str] = None
    prefixes = tuple(p for kind in KINDS.values() for p in kind.prefixes)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in SPEC_KEYS:
                raise SpecError(f"line {lineno}: unknown section [{current}] "
                                f"(expected one of {', '.join(SPEC_KEYS)})")
            # a repeated section continues the first
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key = value, got {line!r}")
        if current is None:
            raise SpecError(f"line {lineno}: entry before any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        table = current == "algebroid" and key.startswith(prefixes)
        if key not in SPEC_KEYS[current] and not table:
            raise SpecError(f"line {lineno}: [{current}] has no key {key!r}")
        if key in sections[current]:
            raise SpecError(f"line {lineno}: [{current}] {key} is given twice")
        sections[current][key] = value.strip()
    for needed in ("chart", "boundary", "algebroid"):
        if needed not in sections:
            raise SpecError(f"missing [{needed}] section")
    needed = {f.name for f in fields(SpecFile) if f.default is MISSING}
    values = {}
    for section, keys in SPEC_KEYS.items():
        for key, (field, _, absent) in keys.items():
            text = sections.get(section, {}).get(key, absent)
            if field and text is not None:
                values[field] = _read(section, key, text)
            elif field in needed:
                raise SpecError(f"[{section}] needs {key}")
    alg_sec = sections["algebroid"]
    entries = {k: _unquote(v) for k, v in alg_sec.items() if k.startswith(prefixes)}
    spec = SpecFile(**values, entries=entries)
    n = alg_sec.get("n")
    n = spec.chart_dim // 2 if n is None else _read("algebroid", "n", n)
    if KINDS[spec.kind].complex and n != spec.chart_dim // 2:
        raise SpecError("n must equal half the chart dimension")
    return spec


def _read(section: str, key: str, text: str):
    """[section] key's value of text, by the key's reader; a SpecError naming
    the section and the key when the reader refuses the text."""
    read = SPEC_KEYS[section][key][1]
    try:
        return read(text)
    except (KeyError, ValueError):
        raise SpecError(f"[{section}] {key} must be {_EXPECTS[read]}, got {text!r}") from None


def format_specfile(spec: SpecFile) -> str:
    """The spec's text, each key in table order, but for the keys it does not
    read: complex on a real chart, n under a real kind, and the [boundary]
    keys of the other samplers."""
    reads = {key: key in SAMPLERS[spec.sampler].reads for s in SAMPLERS.values() for key in s.reads}
    reads.update(complex=spec.complex_pairs, n=KINDS[spec.kind].complex)
    lines = []
    for section, keys in SPEC_KEYS.items():
        lines.append(f"[{section}]")
        for key, (field, read, _) in keys.items():
            if reads.get(key, True):
                value = getattr(spec, field) if field else spec.chart_dim // 2
                lines.append(f"{key} = {_WRITERS.get(read, str)(value)}")
        if section == "algebroid":
            lines += [f'{key} = "{text}"' for key, text in spec.entries]
        lines.append("")
    return "\n".join(lines)
