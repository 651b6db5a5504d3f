"""Operators obtained from domain transformations: the shifted square, the
Duffy simplex, the unit disk, and its quadrants, plus the piecewise disk
operators that are continuous across the axes.

Quadrant closed forms are degree-2n polynomials in (x, y). They are
evaluated through factored binomial rows in log space (algebraically equal
to the multinomial expansion), which keeps evaluation total on the closed
quadrant including the rim and the axes.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from .bivariate import NodeSchedule, _nested_sum, _node_table, _node_values, _sample_rows
from .univariate import _EPS, Interval, _degree, basis_row, check_f_values

__all__ = [
    "Quadrant",
    "check_disk_point",
    "check_f_values",
    "square_bernstein",
    "simplex_bernstein",
    "ball_stancu",
    "quadrant_stancu",
    "quadrant_bernstein_type",
    "quadrant_bernstein_type_via_transforms",
    "piecewise_stancu_disk",
    "piecewise_bernstein_type_disk",
    "axis_continuity_check",
    "quadrant_node_table",
]

# (x, y) is in the unit disk while x^2 + y^2 <= 1 + _SLACK, here and in experiments.
_SLACK = 1e-9


class Quadrant(enum.Enum):
    """Quadrants of the unit disk; sign pattern of (x, y)."""

    B1 = (1.0, 1.0)
    B2 = (-1.0, 1.0)
    B3 = (-1.0, -1.0)
    B4 = (1.0, -1.0)

    @property
    def sx(self) -> float:
        return self.value[0]

    @property
    def sy(self) -> float:
        return self.value[1]

    def contains(self, x: float, y: float, tol: float = 1e-12) -> bool:
        if x * x + y * y > 1.0 + _SLACK:
            return False
        return self.sx * x >= -tol and self.sy * y >= -tol


def check_disk_point(x: float, y: float, tol: float = _SLACK):
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point ({x}, {y}) is not finite")
    if x * x + y * y > 1.0 + tol:
        raise ValueError(f"point ({x}, {y}) outside the unit disk")


def square_bernstein(
    f: Callable[[float, float], float],
    n: int,
    sched: NodeSchedule,
    x: float,
    y: float,
) -> float:
    """Tensor Bernstein operator on [-1, 1]^2 via the affine lift."""
    if not (-1.0 - _EPS <= x <= 1.0 + _EPS and -1.0 - _EPS <= y <= 1.0 + _EPS):
        raise ValueError(f"point ({x}, {y}) outside [-1, 1]^2")
    counts = sched.counts(n)
    px = basis_row(n, (min(max(x, -1.0), 1.0) + 1.0) / 2.0)
    ty = (min(max(y, -1.0), 1.0) + 1.0) / 2.0
    table = _sample_rows(f, counts, lambda k, j, nk: ((2 * k - n) / n, (2 * j - nk) / nk),
                         ("square", n, sched))
    return _nested_sum(px, ty, counts, table)


def simplex_bernstein(
    f: Callable[[float, float], float],
    n: int,
    sched: NodeSchedule,
    x: float,
    y: float,
) -> float:
    """Bernstein-Stancu operator on the triangle x, y >= 0, x + y <= 1,
    through the Duffy parameterization with the degenerate corner x = 1
    handled as the limit f(1, 0). With the n-minus-k schedule this is the
    classical multinomial operator on the simplex.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point ({x}, {y}) is not finite")
    if x < -_EPS or y < -_EPS or x + y > 1.0 + _SLACK:
        raise ValueError(f"point ({x}, {y}) outside the simplex")
    x = max(x, 0.0)
    y = max(y, 0.0)
    counts = sched.counts(n)
    px = basis_row(n, min(x, 1.0))
    t = y / (1.0 - x) if 1.0 - x > _EPS else 0.0
    table = _sample_rows(f, counts, lambda k, j, nk: (k / n, (j / nk) * (1.0 - k / n)),
                         ("simplex", n, sched))
    return _nested_sum(px, min(max(t, 0.0), 1.0), counts, table)


def ball_stancu(
    f: Callable[[float, float], float],
    n: int,
    sched: NodeSchedule,
    x: float,
    y: float,
) -> float:
    """Bernstein-Stancu operator on the unit disk via the vertical-chord map.

    At x = +-1 the chord collapses; the value is the limit f(+-1, 0).
    """
    check_disk_point(x, y)
    counts = sched.counts(n)
    px = basis_row(n, (min(max(x, -1.0), 1.0) + 1.0) / 2.0)
    half_width = math.sqrt(max(1.0 - x * x, 0.0))
    t = (y / half_width + 1.0) / 2.0 if half_width > _EPS else 0.5
    table = _sample_rows(f, counts, _chord_nodes(n), ("ball", n, sched))
    return _nested_sum(px, min(max(t, 0.0), 1.0), counts, table)


def _chord_nodes(n: int) -> Callable:
    """The node map (k, j, n_k) -> ((2k - n)/n, (2j - n_k)/n_k * 2 sqrt(k(n - k))/n)
    of ball_stancu at degree n: node j of chord k, of n_k + 1."""
    return lambda k, j, nk: ((2 * k - n) / n, (2 * j - nk) / nk * (2.0 * np.sqrt(k * (n - k)) / n))


def _node_roots(n: int) -> np.ndarray:
    """sqrt(k/n), k = 0..n: the degree-n quadrant node coordinates up to sign."""
    return np.sqrt(np.arange(n + 1) / n)


def quadrant_node_table(f: Callable[[float, float], float], n: int, q: Quadrant) -> np.ndarray:
    """f sampled at the quadrant operator nodes (sx sqrt(k/n), sy sqrt(j/n)),
    j <= n - k; returned as a lower-triangular (n+1, n+1) table.
    """
    n = _degree(n)
    roots = _node_roots(n)
    return _node_values(f, n - np.arange(n + 1), lambda k, j, _: (q.sx * roots[k], q.sy * roots[j]))


def _quadrant_node_index(pts: np.ndarray, n: int) -> tuple[np.ndarray, ...] | None:
    """Per point of pts, an (m, 2) array, its quadrant's index in Quadrant and
    its (k, j) when every point has the bits of node (k, j) of its quadrant's
    quadrant_node_table at degree n, else None. The quadrant is that of the
    sign bits: a +0.0 on an axis is read from a quadrant whose sign there is +."""
    x, y = pts.T
    k, j = np.rint(n * np.clip(pts.T, -2.0, 2.0) ** 2)  # clipped: no overflow, and still no node
    if not np.all(k + j <= n):  # also false for a NaN or inf coordinate
        return None
    roots, k, j = _node_roots(n), k.astype(np.int32), j.astype(np.int32)
    if np.all(np.copysign(roots[k], x) == x) and np.all(np.copysign(roots[j], y) == y):
        return np.signbit(x) ^ np.signbit(y) * np.int8(3), k, j  # B1, B2, B3, B4 = 0, 1, 2, 3
    return None


def _memo_quadrant_table(f: Callable[[float, float], float], n: int, q: Quadrant) -> np.ndarray:
    """quadrant_node_table(f, n, q), read through the scalar node-table memo.
    n is checked before the lookup, so n = 3.0 raises rather than read the
    table stored under the equal key of n = 3."""
    n = _degree(n)
    return _node_table((f, "quadrant", n, q), lambda: quadrant_node_table(f, n, q))


def _closed_form_value(table: np.ndarray, n: int, x: float, y: float) -> float:
    """Degree-2n quadrant polynomial: sum of multinomial(x^2, y^2) terms
    weighted by the node table, computed via nested binomial rows.
    """
    u = min(x * x, 1.0)
    t = (y * y) / (1.0 - u) if 1.0 - u > _EPS else 0.0
    return _nested_sum(basis_row(n, u), min(max(t, 0.0), 1.0), n - np.arange(n + 1), table)


def quadrant_stancu(
    f: Callable[[float, float], float], q: Quadrant, n: int, x: float, y: float
) -> float:
    """Quadrant operator from the (u, v) = (x^2, y^2/(1-x^2)) substitution
    with the n-minus-k schedule, which makes it a polynomial of degree 2n.
    """
    check_disk_point(x, y)
    if not q.contains(x, y):
        raise ValueError(f"point ({x}, {y}) not in quadrant {q.name}")
    return _closed_form_value(_memo_quadrant_table(f, n, q), n, x, y)


# The quadrant operator built from per-quadrant monotone transforms of the
# arguments is, after reindexing, the quadrant_stancu polynomial; the
# transform construction itself is quadrant_bernstein_type_via_transforms.
quadrant_bernstein_type = quadrant_stancu


def _shifted_row(n: int, value: float, lo: float, hi: float) -> np.ndarray:
    width = hi - lo
    if width <= _EPS:
        row = np.zeros(n + 1)
        row[0] = 1.0
        return row
    return basis_row(n, min(max((value - lo) / width, 0.0), 1.0))


def quadrant_bernstein_type_via_transforms(
    f: Callable[[float, float], float], q: Quadrant, n: int, x: float, y: float
) -> float:
    """Transform-path evaluation of the quadrant operator: shifted bases
    evaluated at tau(x) and sigma_x(y) with the quadrant-specific choices.
    Independent of the closed-form path; used as its oracle.
    """
    check_disk_point(x, y)
    if not q.contains(x, y):
        raise ValueError(f"point ({x}, {y}) not in quadrant {q.name}")
    half = math.sqrt(max(1.0 - x * x, 0.0))
    if q is Quadrant.B1:
        iv, tau_x = Interval(0.0, 1.0), x * x
        lo, hi = 0.0, half
        sigma_y = (y * y) / half if half > _EPS else 0.0
        nk_of = lambda k: n - k
        lifted = lambda u, v: f(math.sqrt(u), math.sqrt((1.0 - u) * v))
    elif q is Quadrant.B2:
        iv, tau_x = Interval(-1.0, 0.0), -x * x
        lo, hi = 0.0, half
        sigma_y = (y * y) / half if half > _EPS else 0.0
        nk_of = lambda k: k
        lifted = lambda u, v: f(-math.sqrt(1.0 - u), math.sqrt(u * v))
    elif q is Quadrant.B3:
        iv, tau_x = Interval(-1.0, 0.0), -x * x
        lo, hi = -half, 0.0
        sigma_y = -(y * y) / half if half > _EPS else 0.0
        nk_of = lambda k: k
        lifted = lambda u, v: f(-math.sqrt(1.0 - u), -math.sqrt(u * (1.0 - v)))
    else:
        iv, tau_x = Interval(0.0, 1.0), x * x
        lo, hi = -half, 0.0
        sigma_y = -(y * y) / half if half > _EPS else 0.0
        nk_of = lambda k: n - k
        lifted = lambda u, v: f(math.sqrt(u), -math.sqrt((1.0 - u) * (1.0 - v)))
    px = basis_row(n, iv.to_unit(min(max(tau_x, iv.alpha), iv.beta)))
    total = 0.0
    for k in range(n + 1):
        if px[k] == 0.0:
            continue
        nk = nk_of(k)
        if nk == 0:
            total += px[k] * lifted(k / n, 0.0)
            continue
        fvals = np.array([lifted(k / n, j / nk) for j in range(nk + 1)])
        total += px[k] * float(_shifted_row(nk, sigma_y, lo, hi) @ fvals)
    return total


def _dispatch_quadrant(x: float, y: float) -> Quadrant:
    for q in Quadrant:  # in definition order, B1 first
        if q.sx * x >= 0.0 and q.sy * y >= 0.0:
            return q
    raise AssertionError("unreachable")


def piecewise_stancu_disk(f: Callable[[float, float], float], n: int, x: float, y: float) -> float:
    """Quadrant-wise operator on the whole disk; axis values agree between
    adjacent quadrants, ties broken toward B1 > B2 > B3 > B4.
    """
    check_disk_point(x, y)
    return _closed_form_value(_memo_quadrant_table(f, n, _dispatch_quadrant(x, y)), n, x, y)


piecewise_bernstein_type_disk = piecewise_stancu_disk


_ADJACENT = {
    "x+": (Quadrant.B1, Quadrant.B4),
    "x-": (Quadrant.B2, Quadrant.B3),
    "y+": (Quadrant.B1, Quadrant.B2),
    "y-": (Quadrant.B3, Quadrant.B4),
}


def axis_continuity_check(
    which: str,
    f: Callable[[float, float], float],
    n: int,
    samples: int = 64,
) -> float:
    """Max mismatch between adjacent-quadrant evaluations on the axes.

    which: "stancu" or "bernstein-type". Sampling covers all four half-axes
    with `samples` uniformly spaced points each (endpoints included).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if which not in ("stancu", "bernstein-type"):
        raise KeyError(which)
    # Both constructions evaluate the same closed form, so each quadrant's
    # node table is built once and shared by every axis point.
    tables = {q: _memo_quadrant_table(f, n, q) for q in Quadrant}
    worst = 0.0
    for r in np.linspace(0.0, 1.0, samples + 1):
        for axis, (qa, qb) in _ADJACENT.items():
            if axis.startswith("x"):
                pt = (math.copysign(r, 1 if axis == "x+" else -1), 0.0)
            else:
                pt = (0.0, math.copysign(r, 1 if axis == "y+" else -1))
            worst = max(worst, abs(_closed_form_value(tables[qa], n, *pt)
                                   - _closed_form_value(tables[qb], n, *pt)))
    return worst
