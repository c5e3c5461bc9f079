"""Outside-in tracer: wraps the public functions of hodgebench's modules.

Nothing under ``src/`` is edited.  ``Tracer.install()`` replaces every public
function and method of the traced modules with a timing wrapper, on the
defining module and on every hodgebench module that imported the name (so
``cli.classify_point`` is traced as well as ``levi.classify_point``).

Each call is a span: name, start, end and the enclosing traced call.  The
wrapper keeps a stack of open spans, so a layer's self time (a span's
duration minus the part its child spans cover) is summed as calls return.
Spans of the ``scalars`` layer are counted and timed but not kept one by
one: a boundary pass makes millions of ``ScalarExpr.eval`` calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# module short name -> module; `gallery` is folded into the `specfile` layer
LAYERS = {
    "cli": "hodgebench.cli",
    "specfile": "hodgebench.specfile",
    "gallery": "hodgebench.gallery",
    "scalars": "hodgebench.scalars",
    "calculus": "hodgebench.calculus",
    "algebroids": "hodgebench.algebroids",
    "levi": "hodgebench.levi",
    "sobolev": "hodgebench.sobolev",
    "neumann": "hodgebench.neumann",
}
LAYER_OF_MODULE = {"gallery": "specfile"}

# The CLI's own entry points would cover the whole run and make coverage
# meaningless; only the stages under them are traced.
SKIP = {
    "cli": {"main", "build_parser", "cmd_classify", "cmd_levi", "cmd_convexity",
            "cmd_dsq", "cmd_sobolev", "cmd_hodge"},
    # exact complex numbers sit below the expression layer and are called
    # per monomial term; their time stays in the scalars function above them
    "scalars": {"CNum"},
}
DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
UNRECORDED_LAYERS = {"scalars"}


def _point_key(args, kwargs, result):
    # (self|alg, point) for anchor_matrix_at(self, point) and
    # classify_point(alg, bd, point)
    point = kwargs["point"] if "point" in kwargs else args[-1]
    return tuple(complex(x) for x in point)


def _problem_key(args, kwargs, result):
    prob = args[0]
    g = prob.grid
    return (g.rho0, g.n_theta, g.n_r, prob.harmonic_tol, prob.scale.tobytes())


def _matrix_bytes(prob) -> int:
    total = 0
    for value in vars(prob).values():
        items = value.values() if isinstance(value, dict) else [value]
        for item in items:
            for arr in item if isinstance(item, tuple) else (item,):
                total += getattr(arr, "nbytes", 0)
    return total


def _problem_work(args, kwargs, result, work):
    prob = args[0]
    work["neumann.modes_assembled"] += len(prob.modes0)
    work["neumann.matrix_bytes"] += _matrix_bytes(prob)


def _points_work(args, kwargs, result, work):
    work["specfile.points"] += len(result)


# name -> callback computing a key whose distinct values are counted
DISTINCT = {
    "algebroids.AlgebroidSpec.anchor_matrix_at": _point_key,
    "levi.classify_point": _point_key,
    "neumann.NeumannProblem.__init__": _problem_key,
}
# name -> callback adding to work counters
WORK = {
    "neumann.NeumannProblem.__init__": _problem_work,
    "specfile.SpecFile.sample_points": _points_work,
}


class Tracer:
    """Spans and per-layer aggregates of one process; see the module doc."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.work: Dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        self.names: List[str] = []
        # (name index, start, end, parent span id or -1); id = list index
        self.spans: List[Tuple[int, float, float, int]] = []
        self._stack: List[List] = []  # [child time, span id or None]
        self._open_ids: List[int] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, open_ids, spans = self._stack, self._open_ids, self.spans
        perf = time.perf_counter
        record = layer not in UNRECORDED_LAYERS
        name_idx = len(self.names)
        self.names.append(name)
        key_fn = DISTINCT.get(name)
        work_fn = WORK.get(name)
        distinct, work = self.distinct[name], self.work
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, None]
            if record:
                frame[1] = len(spans)
                spans.append(None)
                open_ids.append(frame[1])
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                calls[name] += 1
                total[name] += d
                self_time[layer] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                else:
                    tracer.top_level += d
                if record:
                    open_ids.pop()
                    spans[frame[1]] = (name_idx, t0, t1, open_ids[-1] if open_ids else -1)
            if key_fn is not None:
                distinct.add(key_fn(args, kwargs, result))
            if work_fn is not None:
                work_fn(args, kwargs, result, work)
            return result

        return functools.wraps(fn)(traced)

    def _targets(self):
        """(owner, attribute, original, name, layer) for every traced callable."""
        for short, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            layer = LAYER_OF_MODULE.get(short, short)
            skip = SKIP.get(short, set())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip:
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    yield mod, attr, obj, f"{layer}.{attr}", layer
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mattr, raw in list(vars(obj).items()):
                        if mattr.startswith("_") and mattr not in DUNDERS:
                            continue
                        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                        if inspect.isfunction(fn):
                            yield obj, mattr, raw, f"{layer}.{attr}.{mattr}", layer

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items()
                   if n == "hodgebench" or n.startswith("hodgebench.")]
        replaced = {}
        for owner, attr, raw, name, layer in self._targets():
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(raw.__func__, name, layer))
            else:
                new = self._wrap(raw, name, layer)
                replaced[id(raw)] = (raw, new)
            setattr(owner, attr, new)
        # names bound by `from .x import f` elsewhere in the package
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return self

    # -- results --------------------------------------------------------------

    def summary(self) -> Dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "distinct": {k: len(v) for k, v in self.distinct.items() if v},
            "work": dict(self.work),
            "top_level_s": self.top_level,
            "spans_kept": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """One JSON line per kept span: id, name, start, end, parent id."""
        with open(path, "w") as fh:
            for sid, (idx, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, self.names[idx], t0, t1, parent]) + "\n")
