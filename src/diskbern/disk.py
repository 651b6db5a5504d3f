"""Operators obtained from domain transformations: the shifted square, the
Duffy simplex, the unit disk, and its quadrants, plus the piecewise disk
operators that are continuous across the axes.

The square and the simplex are bivariate.stancu on the trapezoids _SQUARE
and _SIMPLEX; the chord disk and the quadrants have their own maps here.

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

from .bivariate import (CurvilinearDomain, NodeSchedule, _checked_schedule, _node_values,
                        _scalar_values, stancu)
from .univariate import _EPS, _SLACK, Interval, _degree, _not_bool, basis_row, check_f_values

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

    def contains(self, x: float, y: float) -> bool:
        if x * x + y * y > 1.0 + _SLACK:
            return False
        return self.sx * x >= -_EPS and self.sy * y >= -_EPS


_QUADRANTS = tuple(Quadrant)

_SQUARE = CurvilinearDomain(-1.0, 1.0, lambda x: -1.0, lambda x: 1.0)
_SIMPLEX = CurvilinearDomain(0.0, 1.0, lambda x: 0.0, lambda x: 1.0 - x)


def _checked_quadrant(q: Quadrant) -> Quadrant:
    """q; ValueError unless it is a Quadrant."""
    if not isinstance(q, Quadrant):
        raise ValueError(f"q must be a Quadrant, got {q!r}")
    return q


def _quadrant_index(x, y):
    """Index in _QUADRANTS of the first of B1 > B2 > B3 > B4 that holds (x, y),
    a 0 of either sign on both sides of its axis; x and y are floats or arrays."""
    return (y < 0) * (2 + (x > 0)) + (y >= 0) * (x < 0)


# Each (x, y) -> (u, t) map and disk check has an array twin; tests/test_one_home.py pins the pairs.
def check_disk_point(x: float, y: float):
    _not_bool(x, "x")
    _not_bool(y, "y")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point ({x}, {y}) is not finite")
    if x * x + y * y > 1.0 + _SLACK:
        raise ValueError(f"point ({x}, {y}) outside the unit disk")


def _checked_points(pts) -> np.ndarray:
    """pts as an (m, 2) float array; ValueError unless every point is finite
    and inside the closed unit disk (with slack), and first if a coordinate
    is a bool, which would read as 1 or 0: a bool array, or a bool, Python's
    or numpy's, anywhere in a list, a tuple or an object array."""
    if not isinstance(pts, np.ndarray):
        pts = np.asarray(pts, dtype=object)  # each coordinate as given
    if pts.dtype == bool or pts.dtype == object and not {bool, np.bool_}.isdisjoint(
            map(type, pts.flat)):
        raise ValueError("points must be numbers, got a bool coordinate")
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1 and pts.size in (0, 2):  # no points, or one (x, y) pair
        pts = pts.reshape(-1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (m, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        bad = int(np.argmin(np.isfinite(pts).all(axis=1)))
        raise ValueError(f"mesh point index {bad} is not finite")
    with np.errstate(over="ignore"):  # a square above the float range is inf: outside
        outside = pts[:, 0] ** 2 + pts[:, 1] ** 2 > 1.0 + _SLACK
    if outside.any():
        raise ValueError(f"mesh point index {int(outside.argmax())} outside the unit disk")
    return pts


def square_bernstein(f: Callable[[float, float], float], n: int, sched: NodeSchedule,
                     x: float, y: float) -> float:
    """Tensor Bernstein operator on [-1, 1]^2: stancu on _SQUARE."""
    return stancu(f, _SQUARE, n, sched, x, y)


def simplex_bernstein(f: Callable[[float, float], float], n: int, sched: NodeSchedule,
                      x: float, y: float) -> float:
    """Bernstein-Stancu operator on the triangle x, y >= 0, x + y <= 1:
    stancu on _SIMPLEX, whose nodes (k/n, (1 - k/n) j/n_k) are the Duffy
    nodes and whose right edge x = 1 is degenerate. With the n-minus-k
    schedule this is the classical multinomial operator on the simplex.
    """
    return stancu(f, _SIMPLEX, n, sched, x, y)


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
    n = _checked_schedule(sched, n)
    half_width = math.sqrt(max(1.0 - x * x, 0.0))
    t = (y / half_width + 1.0) / 2.0 if half_width > _EPS else 0.5
    return _scalar_values(f, ("ball", n, sched), n, lambda: (sched.counts(n), _chord_nodes(n)),
                          (min(max(x, -1.0), 1.0) + 1.0) / 2.0, min(max(t, 0.0), 1.0))


def _chord_nodes(n: int) -> Callable:
    """The node map (k, j, n_k) -> ((2k - n)/n, (2j - n_k)/n_k * 2 sqrt(k(n - k))/n)
    of ball_stancu at degree n: node j of chord k, of n_k + 1."""
    return lambda k, j, nk: ((2 * k - n) / n, (2 * j - nk) / nk * (2.0 * np.sqrt(k * (n - k)) / n))


def _chord_coordinates(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed coordinates u = (x+1)/2, t = (y/sqrt(1-x^2)+1)/2 of the
    chord-disk operator; t = 1/2 where the chord has no height. u and t are
    finished in place, so at most three point-sized float arrays coexist."""
    u = np.clip(pts[:, 0], -1.0, 1.0)
    t = np.sqrt(np.clip(1.0 - u * u, 0.0, None))  # the chord's half-width
    flat = t <= _EPS
    t[flat] = 1.0
    np.divide(pts[:, 1], t, out=t)
    t += 1.0
    t /= 2.0
    t[flat] = 0.5
    u += 1.0
    u /= 2.0
    return u, np.clip(t, 0.0, 1.0, out=t)


def _node_roots(n: int) -> np.ndarray:
    """sqrt(k/n), k = 0..n: the degree-n quadrant node coordinates up to sign."""
    return np.sqrt(np.arange(n + 1) / n)


def quadrant_node_table(f: Callable[[float, float], float], n: int, q: Quadrant) -> np.ndarray:
    """f sampled at the quadrant operator nodes (sx sqrt(k/n), sy sqrt(j/n)),
    j <= n - k; returned as a lower-triangular (n+1, n+1) table.
    """
    n = _degree(n)
    return _node_values(f, n - np.arange(n + 1), _quadrant_nodes(n, _checked_quadrant(q)))


def _quadrant_nodes(n: int, q: Quadrant) -> Callable:
    """The node map (k, j, n_k) -> (sx sqrt(k/n), sy sqrt(j/n)) of q at degree n."""
    def nodes(k, j, _):
        roots = _node_roots(n)
        return q.sx * roots[k], q.sy * roots[j]
    return nodes


def _quadrant_value(f: Callable[[float, float], float], q: Quadrant, n: int,
                    x: float | np.ndarray, y: float | np.ndarray) -> float | np.ndarray:
    """The quadrant closed form of f in q at (x, y): the nested sum at
    (u, t) = (x^2, y^2/(1 - x^2)) with the n-minus-k schedule. x and y are
    floats, or 1-D arrays of points, which _quadrant_coordinates maps and
    one evaluator call takes at once. n is checked before the lookup, so
    n = 3.0 cannot read the table of n = 3."""
    n = _degree(n)
    if isinstance(x, np.ndarray):
        u, t, _ = _quadrant_coordinates(np.column_stack((x, y)))
    else:
        u = min(x * x, 1.0)
        t = min(max(y * y / (1.0 - u), 0.0), 1.0) if 1.0 - u > _EPS else 0.0
    return _scalar_values(f, ("quadrant", n, q), n,
                          lambda: (n - np.arange(n + 1), _quadrant_nodes(n, q)), u, t)


def _quadrant_coordinates(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapsed coordinates u = x^2, t = y^2/(1-x^2) of the quadrant
    operator (t = 0 where 1 - x^2 <= _EPS), and each point's quadrant as an
    index into _QUADRANTS by _quadrant_index, as the scalar operators take it."""
    x = pts[:, 0]
    y = pts[:, 1]
    u = np.clip(x * x, 0.0, 1.0)
    rest = 1.0 - u
    t = np.where(rest > _EPS, (y * y) / np.where(rest > _EPS, rest, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return u, t, _quadrant_index(x, y)


def quadrant_stancu(
    f: Callable[[float, float], float], q: Quadrant, n: int, x: float, y: float
) -> float:
    """Quadrant operator from the (u, v) = (x^2, y^2/(1-x^2)) substitution
    with the n-minus-k schedule, which makes it a polynomial of degree 2n.
    """
    check_disk_point(x, y)
    if not _checked_quadrant(q).contains(x, y):
        raise ValueError(f"point ({x}, {y}) not in quadrant {q.name}")
    return _quadrant_value(f, q, n, x, y)


# The quadrant operator built from per-quadrant monotone transforms of the
# arguments is, after reindexing, the quadrant_stancu polynomial; the
# transform construction itself is quadrant_bernstein_type_via_transforms.
quadrant_bernstein_type = quadrant_stancu


def quadrant_bernstein_type_via_transforms(
    f: Callable[[float, float], float], q: Quadrant, n: int, x: float, y: float
) -> float:
    """Transform-path evaluation of the quadrant operator: shifted bases
    evaluated at tau(x) and sigma_x(y) with the quadrant-specific choices.
    Independent of the closed-form path; used as its oracle. Its chord
    [lo, hi] has no width only where |x| >= 1, and there the one row with
    weight has n_k = 0.
    """
    n = _degree(n)
    check_disk_point(x, y)
    if not _checked_quadrant(q).contains(x, y):
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
        py = basis_row(nk, min(max((sigma_y - lo) / (hi - lo), 0.0), 1.0))
        total += px[k] * float(py @ fvals)
    return total


def piecewise_stancu_disk(f: Callable[[float, float], float], n: int, x: float, y: float) -> float:
    """Quadrant-wise operator on the whole disk; axis values agree between
    adjacent quadrants, ties broken toward B1 > B2 > B3 > B4.
    """
    check_disk_point(x, y)
    return _quadrant_value(f, _QUADRANTS[_quadrant_index(x, y)], n, x, y)


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
    samples = _degree(samples, name="samples")
    if which not in ("stancu", "bernstein-type"):
        raise ValueError(f"unknown construction {which!r}")
    # Both constructions evaluate the same closed form. Each quadrant's table
    # is read once, by one evaluation at the points of its two half-axes.
    r = np.linspace(0.0, 1.0, samples + 1)
    zero = np.zeros_like(r)
    values = {q: _quadrant_value(f, q, n, np.r_[q.sx * r, zero], np.r_[zero, q.sy * r])
              .reshape(2, -1) for q in _QUADRANTS}  # rows: q's x half-axis, its y half-axis
    worst = 0.0
    for axis, (qa, qb) in _ADJACENT.items():
        i = "xy".index(axis[0])
        worst = max(worst, float(np.abs(values[qa][i] - values[qb][i]).max()))
    return worst
