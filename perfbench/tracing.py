"""Traced runs: spans around diskbern's layer boundaries, recorded from the
benchmark's side without changing the library.

`instrument` replaces, for the duration of a `with` block, the names one
diskbern module binds from another (for example `experiments.basis_rows`
and `disk.basis_row`), the public entry points the workloads call, and
`DiskOperator.__call__`, with wrappers that open a span when the tracer is
active. The test function f is wrapped by `CountingF`, which counts calls
and adds their time to the innermost open span instead of recording one
span per call. Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "attrs", "agg")

    def __init__(self, id, name, start, parent, op, thread):
        self.id, self.name, self.start, self.parent = id, name, start, parent
        self.op, self.thread = op, thread
        self.end = start
        self.attrs = None
        self.agg = 0.0  # time of f calls made while this was the innermost span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one caller thread plus the library's worker threads.

    A worker thread's top-level span takes as parent the caller's innermost
    open span, which is the DiskOperator call that started the pool.
    """

    def __init__(self):
        self.active = False
        self.op = None
        self.passes: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_pass(self):
        self.passes.append({"spans": [], "f_calls": 0, "f_s": 0.0, "pou_max": 0.0,
                            "nonfinite": 0})

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._caller[-1] if self._caller else None)
        with self._lock:
            span = Span(next(self._ids), name, perf_counter(),
                        parent.id if parent else None, self.op, threading.get_ident())
            self.passes[-1]["spans"].append(span)
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def add_f(self, dt: float):
        # f is only called from the caller thread, so no lock is taken.
        current = self.passes[-1]
        current["f_calls"] += 1
        current["f_s"] += dt
        stack = self._stack()
        if stack:
            stack[-1].agg += dt

    def add_health(self, values: np.ndarray, rows: bool):
        nonfinite = int(values.size - np.count_nonzero(np.isfinite(values)))
        pou = float(np.max(np.abs(values.sum(axis=-1) - 1.0))) if rows and values.size else 0.0
        with self._lock:
            current = self.passes[-1]
            current["nonfinite"] += nonfinite
            current["pou_max"] = max(current["pou_max"], pou)

    def dump(self, path: Path, meta: dict):
        records = [[s.id, s.name, s.start, s.end, s.parent, s.op, s.thread, s.attrs]
                   for p in self.passes for s in p["spans"]]
        path.write_text(json.dumps({**meta, "fields": ["id", "name", "start", "end", "parent",
                                                       "op", "thread", "attrs"],
                                    "spans": records}))


class CountingF:
    """The test function with every call counted and timed."""

    __slots__ = ("f", "tracer")

    def __init__(self, f, tracer: Tracer):
        self.f, self.tracer = f, tracer

    def __call__(self, x, y):
        if not self.tracer.active:
            return self.f(x, y)
        t0 = perf_counter()
        value = self.f(x, y)
        self.tracer.add_f(perf_counter() - t0)
        return value


def _wrap(tracer: Tracer, fn, name: str, attrs=None, health=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, out)
        if health is not None:
            with tracer.span("trace.health"):
                health(out)
        return out

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers; the originals come back on exit."""
    rows = lambda a, k, out: {"elems": int(out.size)}
    points = lambda a, k, out: {"points": len(out.points)}
    operator = lambda a, k, out: {"points": len(out), "threads": k.get("threads") or 1}
    patches = [
        (ex, "basis_rows", "univariate.basis_rows", rows, lambda out: tracer.add_health(out, True)),
        (disk, "basis_row", "univariate.basis_row", None, lambda out: tracer.add_health(out, True)),
        (biv, "basis_row", "univariate.basis_row", None, lambda out: tracer.add_health(out, True)),
        (disk, "piecewise_stancu_disk", "disk.scalar", None, None),
        (disk, "ball_stancu", "disk.scalar", None, None),
        (disk, "axis_continuity_check", "disk.axis_check", None, None),
        (biv, "stancu", "bivariate.stancu", None, None),
        (ex, "mesh_quadrant_disk", "experiments.mesh", points, None),
        (ex, "mesh_stancu_disk", "experiments.mesh", points, None),
        (ex.DiskOperator, "__call__", "experiments.operator", operator,
         lambda out: tracer.add_health(out, False)),
        (ex, "rmse", "experiments.rmse", None, None),
        (ex, "cross_section", "experiments.section", None, None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in patches]
    try:
        for owner, attr, name, attrs, health in patches:
            setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, attrs, health))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def pass_metrics(record: dict, points: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `points` is the ops' total."""
    spans = record["spans"]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_time(name):
        return sum(s.duration - _covered([(max(a, s.start), min(b, s.end))
                                          for a, b in children[s.id]]) - s.agg
                   for s in by_name[name])

    def attr_sum(name, key):  # a call that raised has no attrs
        return sum(s.attrs[key] for s in by_name[name] if s.attrs)

    op_capacity = sum((s.attrs or {"threads": 1})["threads"] * s.duration
                      for s in by_name["experiments.operator"])
    return {
        "univariate.basis_rows.calls": len(by_name["univariate.basis_rows"]),
        "univariate.basis_rows.elems": attr_sum("univariate.basis_rows", "elems"),
        "univariate.basis_rows.s": total("univariate.basis_rows"),
        "univariate.basis_row.calls": len(by_name["univariate.basis_row"]),
        "univariate.basis_row.s": total("univariate.basis_row"),
        "bivariate.stancu.calls": len(by_name["bivariate.stancu"]),
        "bivariate.stancu.s": total("bivariate.stancu"),
        "disk.scalar.calls": len(by_name["disk.scalar"]),
        "disk.scalar.s": total("disk.scalar"),
        "disk.axis_check.s": total("disk.axis_check"),
        "experiments.mesh.s": total("experiments.mesh"),
        "experiments.mesh.points": attr_sum("experiments.mesh", "points"),
        "experiments.operator.s": total("experiments.operator"),
        "experiments.operator.self_s": self_time("experiments.operator"),
        "experiments.operator.points": attr_sum("experiments.operator", "points"),
        "experiments.rmse.self_s": self_time("experiments.rmse"),
        "experiments.section.s": total("experiments.section"),
        "experiments.pool.busy_frac": (total("univariate.basis_rows") / op_capacity
                                       if op_capacity else 0.0),
        "f.calls": record["f_calls"],
        "f.s": record["f_s"],
        "f.calls_per_point": record["f_calls"] / points if points else 0.0,
        "health.pou_max": record["pou_max"],
        "health.nonfinite": record["nonfinite"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's value in the median traced pass (the lower of two)."""
    return {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
