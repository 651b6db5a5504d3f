"""Bivariate Bernstein-Stancu operators on curvilinear trapezoid domains.

A domain is the region between two curves y = phi1(x), y = phi2(x) over
[a, b]. The operator nests a univariate Bernstein operator in y (with an
x-dependent node count) inside one in x.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .univariate import Interval, _row_triangle, basis_row, bernstein, bernstein_shifted

__all__ = [
    "CurvilinearDomain",
    "NodeSchedule",
    "StancuNodes",
    "LiftedField",
    "UNIT_SQUARE",
    "lift",
    "stancu",
    "stancu_nodes",
    "stancu_determinant",
    "monomial_image",
    "voronovskaja_probe",
]

_EPS = 1e-12


@dataclass(eq=False)
class CurvilinearDomain:
    """Region a <= x <= b, phi1(x) <= y <= phi2(x).

    phi1 < phi2 is checked on a sampled grid; equality is tolerated only at
    the endpoints x = a, b, which are then flagged as degenerate edges.
    """

    a: float
    b: float
    phi1: Callable[[float], float]
    phi2: Callable[[float], float]
    grid_size: int = 1024

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        xs = np.linspace(self.a, self.b, self.grid_size)
        widths = np.array([self.phi2(x) - self.phi1(x) for x in xs])
        interior_bad = widths[1:-1] <= _EPS
        if np.any(widths < -_EPS) or np.any(interior_bad):
            raise ValueError("phi1 < phi2 violated inside [a, b]")
        self.degenerate_left = bool(widths[0] <= _EPS)
        self.degenerate_right = bool(widths[-1] <= _EPS)

    @property
    def x_interval(self) -> Interval:
        return Interval(self.a, self.b)

    def width(self, x: float) -> float:
        return self.phi2(x) - self.phi1(x)

    def contains(self, x: float, y: float, tol: float = 1e-9) -> bool:
        if not self.a - tol <= x <= self.b + tol:
            return False
        xc = min(max(x, self.a), self.b)
        return self.phi1(xc) - tol <= y <= self.phi2(xc) + tol


UNIT_SQUARE = CurvilinearDomain(0.0, 1.0, lambda x: 0.0, lambda x: 1.0)


@dataclass(frozen=True)
class NodeSchedule:
    """Rule assigning the inner node count n_k to each outer node index k.

    Kinds: "constant" (n_k = m), "n-minus-k" (n_k = n - k), "k" (n_k = k).
    Indices where the rule yields 0 are replaced by 1 (two coincident-weight
    nodes) with a warning, so partition of unity stays intact.
    """

    kind: str
    m: int | None = None

    _KINDS = ("constant", "n-minus-k", "k")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "constant":
            if self.m is None or self.m < 1:
                raise ValueError("constant schedule needs a positive m")
        elif self.m is not None:
            raise ValueError("m is only meaningful for the constant schedule")

    @classmethod
    def constant(cls, m: int) -> "NodeSchedule":
        return cls("constant", m)

    @classmethod
    def n_minus_k(cls) -> "NodeSchedule":
        return cls("n-minus-k")

    @classmethod
    def k_index(cls) -> "NodeSchedule":
        return cls("k")

    def counts(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        k = np.arange(n + 1)
        if self.kind == "constant":
            raw = np.full(n + 1, self.m)
        elif self.kind == "n-minus-k":
            raw = n - k
        else:
            raw = k.copy()
        if np.any(raw < 1):
            warnings.warn(
                f"schedule {self.kind!r} yields n_k=0 at some k; substituting n_k=1",
                stacklevel=2,
            )
            raw = np.maximum(raw, 1)
        return raw


@dataclass(frozen=True)
class StancuNodes:
    """The full node mesh of the operator: x-nodes and per-k rows of y-nodes."""

    n: int
    schedule: NodeSchedule
    x_nodes: np.ndarray
    y_nodes: tuple[np.ndarray, ...]

    @property
    def node_count(self) -> int:
        return sum(len(row) for row in self.y_nodes)

    def points(self) -> np.ndarray:
        """All (x, y) node pairs, multiplicity retained, ordered by (k, j)."""
        out = []
        for xk, row in zip(self.x_nodes, self.y_nodes):
            for y in row:
                out.append((xk, y))
        return np.array(out)


class LiftedField:
    """f pulled back to the unit square through the trapezoid parameterization:
    (u, v) -> f((b-a)u + a, (phi2 - phi1)(x) v + phi1(x)).
    """

    def __init__(self, source: Callable[[float, float], float], domain: CurvilinearDomain):
        self.source = source
        self.domain = domain

    def __call__(self, u: float, v: float) -> float:
        dom = self.domain
        x = dom.x_interval.from_unit(u)
        return self.source(x, dom.width(x) * v + dom.phi1(x))


def lift(f: Callable[[float, float], float], dom: CurvilinearDomain) -> LiftedField:
    return LiftedField(f, dom)


def _inner_t(dom: CurvilinearDomain, x: float, y: float) -> float:
    """Unit coordinate of y inside [phi1(x), phi2(x)]; 0 on degenerate edges."""
    w = dom.width(x)
    if w <= _EPS:
        return 0.0
    return min(max((y - dom.phi1(x)) / w, 0.0), 1.0)


def check_f_values(values: np.ndarray, point_at: Callable[[int], tuple[float, float]]):
    """Raise ValueError if f returned NaN or inf anywhere in values; point_at
    maps the flat index of the first such value to the point f was called at.
    """
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"f{point_at(i)} = {values.flat[i]} is not finite")


def _sample_rows(f: Callable[[float, float], float], outer: np.ndarray, counts: np.ndarray,
                 nodes: Callable) -> np.ndarray:
    """f at the nodes of the rows k with nonzero outer weight, as a table
    that is zero elsewhere. nodes(k, j, n_k), given k and n_k as columns and
    j as a row, returns the node coordinates (x, y); f gets them as Python
    floats, in order of k, then j.
    """
    k, j, nk = np.arange(counts.size)[:, None], np.arange(counts.max() + 1), counts[:, None]
    live = (j <= nk) & (outer != 0.0)[:, None]
    px, py = (np.broadcast_to(c, live.shape)[live].tolist() for c in nodes(k, j, nk))
    values = np.fromiter(map(f, px, py), float, len(px))
    check_f_values(values, lambda i: (px[i], py[i]))
    table = np.zeros(live.shape)
    table[live] = values
    return table


def _nested_sum(outer: np.ndarray, t: float, counts: np.ndarray, table: np.ndarray) -> float:
    """sum_k outer[k] * (basis_row(counts[k], t) @ table[k, :counts[k] + 1]),
    added in order of k over the rows with nonzero outer weight. One
    _row_triangle, which has basis_row's bits, holds every degree's row.
    """
    live = np.flatnonzero(outer)
    degrees = counts[live].tolist()
    distinct = sorted(set(degrees))
    row = {m: r[: m + 1] for m, r in zip(distinct, _row_triangle(distinct, t))}
    total = 0.0
    for k, w, m in zip(live.tolist(), outer[live].tolist(), degrees):
        # ndarray.dot of two vectors calls the same BLAS ddot as @, for less overhead
        total += w * float(row[m].dot(table[k, : m + 1]))
    return total


def _node_map(dom: CurvilinearDomain, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node abscissae x_k = a + (b - a) k / n, and the width phi2 - phi1
    and low end phi1 of the node row at each, from one phi1 and one phi2
    call per x_k."""
    xk = dom.x_interval.from_unit(np.arange(n + 1) / n)
    curves = [(dom.phi1(v), dom.phi2(v)) for v in xk.tolist()]
    width, low = np.array([(hi - lo, lo) for lo, hi in curves]).T  # hi - lo as in dom.width
    return xk, width, low


def stancu(
    f: Callable[[float, float], float],
    dom: CurvilinearDomain,
    n: int,
    sched: NodeSchedule,
    x: float,
    y: float,
) -> float:
    """Bivariate Bernstein-Stancu operator of f evaluated at (x, y)."""
    counts = sched.counts(n)
    if not dom.contains(x, y):
        raise ValueError(f"point ({x}, {y}) outside the domain")
    outer = basis_row(n, dom.x_interval.to_unit(x))
    xk, width, low = _node_map(dom, n)
    table = _sample_rows(f, outer, counts, lambda k, j, nk: (xk[k], width[k] * j / nk + low[k]))
    return _nested_sum(outer, _inner_t(dom, x, y), counts, table)


def stancu_nodes(dom: CurvilinearDomain, n: int, sched: NodeSchedule) -> StancuNodes:
    """Node mesh (x_k, y_{k,j}) of the operator; y rows span [phi1, phi2]."""
    counts = sched.counts(n)
    xk, width, low = _node_map(dom, n)
    rows = (width[k] * np.arange(nk + 1) / nk + low[k] for k, nk in enumerate(counts.tolist()))
    return StancuNodes(n, sched, xk, tuple(rows))


def stancu_determinant(
    f: Callable[[float, float], float],
    dom: CurvilinearDomain,
    n: int,
    sched: NodeSchedule,
    x: float,
    y: float,
) -> float:
    """Operator value through its bordered-determinant representation.

    Intended as a small-n cross-check; O(n^3) per evaluation.
    """
    if not dom.contains(x, y):
        raise ValueError(f"point ({x}, {y}) outside the domain")
    counts = sched.counts(n)
    t = _inner_t(dom, x, y)
    F = lift(f, dom)
    m = np.zeros((n + 2, n + 2))
    m[: n + 1, : n + 1] = np.eye(n + 1)
    for k in range(n + 1):
        m[k, n + 1] = bernstein(lambda s, u=k / n: F(u, s), int(counts[k]), t)
    m[n + 1, : n + 1] = basis_row(n, dom.x_interval.to_unit(x))
    return float(-np.linalg.det(m))


def monomial_image(
    which: str,
    dom: CurvilinearDomain,
    n: int,
    sched: NodeSchedule,
    x: float,
    y: float,
) -> float:
    """Closed-form image of a monomial under the operator.

    which is one of "1", "x", "y", "x2", "xy", "y2". The "y2" form depends
    on the schedule and is only provided for "n-minus-k" and "k".
    """
    if not dom.contains(x, y):
        raise ValueError(f"point ({x}, {y}) outside the domain")
    a, b = dom.a, dom.b
    iv = dom.x_interval
    if which == "1":
        return 1.0
    if which == "x":
        return float(x)
    if which == "x2":
        return x * x + (x - a) * (b - x) / n
    s = _inner_t(dom, x, y)
    diff = lambda u: dom.phi2(u) - dom.phi1(u)
    if which == "y":
        return bernstein_shifted(diff, n, x, iv) * s + bernstein_shifted(dom.phi1, n, x, iv)
    if which == "xy":
        return (
            bernstein_shifted(lambda u: u * diff(u), n, x, iv) * s
            + bernstein_shifted(lambda u: u * dom.phi1(u), n, x, iv)
        )
    if which == "y2":
        if sched.kind not in ("n-minus-k", "k"):
            raise ValueError("y2 closed form requires the n-minus-k or k schedule")
        counts = sched.counts(n)
        outer = basis_row(n, iv.to_unit(x))
        _, d, _ = _node_map(dom, n)
        # second moment of the inner operator, summed with the exact n_k used
        # by the evaluation path (schedule values clipped to >= 1)
        correction = float(outer @ (d * d / counts))
        return (
            s * s * bernstein_shifted(lambda u: diff(u) ** 2, n, x, iv)
            + s * (1.0 - s) * correction
            + 2.0 * s * bernstein_shifted(lambda u: diff(u) * dom.phi1(u), n, x, iv)
            + bernstein_shifted(lambda u: dom.phi1(u) ** 2, n, x, iv)
        )
    raise ValueError(f"unknown monomial {which!r}")


def voronovskaja_probe(
    f: Callable[[float, float], float],
    dom: CurvilinearDomain,
    point: tuple[float, float],
    n_list: Sequence[int],
    sched: NodeSchedule | None = None,
) -> list[tuple[int, float, float]]:
    """Residual of the operator at a fixed interior point for increasing n.

    Returns (n, residual, n * residual) triples; for twice-differentiable f
    the scaled residual should stay bounded.
    """
    if sched is None:
        sched = NodeSchedule.n_minus_k()
    x, y = point
    target = f(x, y)
    out = []
    for n in n_list:
        r = stancu(f, dom, n, sched, x, y) - target
        out.append((n, r, n * r))
    return out
