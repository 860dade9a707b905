"""Outside-in tracer: wraps the package's public functions from outside.

The package has no tracing of its own, so the tracer replaces each traced
function in every namespace that binds it (``expand_points`` is bound in
both ``model`` and ``criteria``, ``gen_ccd`` in ``design``, ``cli`` and the
package root, ``linalg.invert`` is reached as a module attribute) and puts
the original back on uninstall.  Spans stay in memory as tuples
``(name, parent, op, start_ns, end_ns, size, error)``; ``parent`` is the
enclosing span, ``op`` the benchmark operation that caused it, ``size`` a
per-call work count (rows, points, samples, logical grid points).
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; names are "module.attribute".
TARGETS = (
    ("cli", "main"),
    ("design", "gen_ccd"), ("design", "Design.coords"),
    ("model", "expand_points"), ("model", "model_matrix"),
    ("linalg", "invert"),
    ("criteria", "information_inverse"), ("criteria", "spv_many"),
    ("criteria", "g_max"), ("criteria", "v_avg"), ("criteria", "region_moments"),
    ("criteria", "rotatability_index"), ("criteria", "sphere_points"),
    ("criteria", "criteria_report"), ("criteria", "monte_carlo_moments"),
    ("missing", "scenario_sweep"), ("missing", "delete_rows"),
    ("missing", "loss_precision"), ("missing", "relative_g_efficiency"),
    ("missing", "relative_v_efficiency"),
    ("verify", "verify_tables"), ("verify", "calibrate_v_region"),
    ("verify", "resolve_spv_scale"),
    ("svgplot", "line_chart"),
)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _g_max_logical(fn, args, kwargs, result):
    """Points g_max must cover: design points, 3 probes, and the grid
    restricted to the region (every grid point, for the cube)."""
    a = _bound(fn, args, kwargs)
    design, region, step = a["design"], a["region"], a["grid_step"]
    n = design.n + 3
    if step is not None:
        if region.shape.value != "cuboidal":
            raise ValueError("logical grid size is defined for the cube only")
        n += (2 * math.floor(region.size / step + 1e-9) + 1) ** design.k
    return n


def _rows(fn, args, kwargs, result):
    return len(result)


def _mc_samples(fn, args, kwargs, result):
    return _bound(fn, args, kwargs)["n"]


def _sweep_note(counters, result):
    counters["missing.scenario_sweep.rows"] += len(result)
    counters["missing.inestimable_cells"] += sum(len(r.inestimable) for r in result)


def _verify_note(counters, result):
    gated = [c for c in result if c.gated]
    counters["verify.cells"] += len(gated)
    counters["verify.gated_pass"] += sum(c.passed for c in gated)


SIZES = {
    "model.expand_points": _rows,
    "criteria.spv_many": _rows,
    "criteria.g_max": _g_max_logical,
    "criteria.monte_carlo_moments": _mc_samples,
}
NOTES = {
    "missing.scenario_sweep": _sweep_note,
    "verify.verify_tables": _verify_note,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size, note = SIZES.get(name), NOTES.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result, err = None, None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                n = size(fn, args, kwargs, result) if size and err is None else 0
                if note and err is None:
                    note(self.counters, result)
                spans[sid] = (name, parent, self._op, t0, t1, n, err)

        traced.__wrapped__ = fn
        traced.__name__, traced.__qualname__ = fn.__name__, fn.__qualname__
        return traced

    def op(self, name: str, fn, *args):
        """Run one benchmark operation as a root span; library spans under it
        share its id."""
        self._op = len(self.spans)
        try:
            return self._wrap(name, fn)(*args)
        finally:
            self._op = -1

    def install(self) -> None:
        """Wrap every target that exists; a target the package no longer has
        is listed in self.absent and its metrics read 0."""
        self.absent = []
        namespaces = None
        for mod, attr in TARGETS:
            name = f"{mod}.{attr}"
            try:
                owner = importlib.import_module(f"ccdrobust.{mod}")
                *cls_path, fn_name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = vars(owner)[fn_name]
            except (ImportError, AttributeError, KeyError):
                orig = None
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, orig)
            if cls_path:
                self._restore.append((owner, fn_name, orig))
                setattr(owner, fn_name, wrapped)
                continue
            if namespaces is None:
                namespaces = [m for key, m in sys.modules.items()
                              if key == "ccdrobust" or key.startswith("ccdrobust.")]
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._restore.append((ns, key, orig))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and one array per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5], s[6]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "op", "start_ns", "end_ns",
                                  "size", "error"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def aggregate(tracer: Tracer) -> dict:
    """Per span name: calls, total and self time (ns), summed size and
    errors by type; plus the SPV points evaluated under g_max."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, parent, _op, t0, t1, _n, _err in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    agg = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "size": 0,
                               "errors": defaultdict(int)})
    under_g_max = 0
    for sid, (name, parent, _op, t0, t1, n, err) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["total_ns"] += t1 - t0
        a["self_ns"] += t1 - t0 - child_ns[sid]
        a["size"] += n
        if err:
            a["errors"][err] += 1
        if name == "criteria.spv_many":
            p = parent
            while p >= 0 and spans[p][0] != "criteria.g_max":
                p = spans[p][1]
            if p >= 0:
                under_g_max += n
    return {"layers": agg, "spv_points_under_g_max": under_g_max,
            "counters": dict(tracer.counters)}
