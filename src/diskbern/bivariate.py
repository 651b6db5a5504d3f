"""Bivariate Bernstein-Stancu operators on curvilinear trapezoid domains.

A domain is the region between two curves y = phi1(x), y = phi2(x) over
[a, b]. The operator nests a univariate Bernstein operator in y (with an
x-dependent node count) inside one in x. Raising every inner row to the
largest inner degree N (univariate._elevate) makes the nesting a tensor
Bernstein form, and every scalar operator evaluates it in _scalar_values as
c + basis_row(n, s) @ (C - c) @ basis_row(N, t), with C the elevated node
table and c the point of its values' range nearest 0, memoized.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from .univariate import (_EPS, _GRID, _SLACK, Interval, _check_elevation, _degree, _elevate,
                         _not_bool, basis_row, basis_rows, bernstein, bernstein_shifted,
                         check_f_values)

__all__ = [
    "vectorized",
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


@dataclass(eq=False)
class CurvilinearDomain:
    """Region a <= x <= b, phi1(x) <= y <= phi2(x).

    x_interval is Interval(a, b), so a < b are finite. phi1 < phi2 is
    checked on _GRID points; equality is tolerated only at the endpoints
    x = a, b, which are then flagged as degenerate edges.
    """

    a: float
    b: float
    phi1: Callable[[float], float]
    phi2: Callable[[float], float]

    def __post_init__(self):
        self.x_interval = Interval(self.a, self.b)  # finite a < b, checked before the grid
        xs = np.linspace(self.a, self.b, _GRID)
        widths = np.array([self.phi2(x) - self.phi1(x) for x in xs])
        interior_bad = widths[1:-1] <= _EPS
        if np.any(widths < -_EPS) or np.any(interior_bad):
            raise ValueError("phi1 < phi2 violated inside [a, b]")
        self.degenerate_left = bool(widths[0] <= _EPS)
        self.degenerate_right = bool(widths[-1] <= _EPS)

    def width(self, x: float) -> float:
        return self.phi2(x) - self.phi1(x)

    def contains(self, x: float, y: float) -> bool:
        if not self.a - _SLACK <= x <= self.b + _SLACK:
            return False
        xc = min(max(x, self.a), self.b)
        return self.phi1(xc) - _SLACK <= y <= self.phi2(xc) + _SLACK


UNIT_SQUARE = CurvilinearDomain(0.0, 1.0, lambda x: 0.0, lambda x: 1.0)


@dataclass(frozen=True)
class NodeSchedule:
    """Rule assigning the inner node count n_k to each outer node index k.

    Kinds: "constant" (n_k = m), "n-minus-k" (n_k = n - k), "k" (n_k = k).
    Indices where the rule yields 0 are replaced by 1 (two coincident-weight
    nodes), so partition of unity stays intact, with a warning: once per node
    table a scalar operator builds, since a memo hit does not call counts.
    """

    kind: str
    m: int | None = None

    _KINDS = ("constant", "n-minus-k", "k")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "constant":
            object.__setattr__(self, "m", _degree(self.m, name="m"))
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
        n = _degree(n)
        if self.kind == "constant":
            return np.full(n + 1, self.m)
        warnings.warn(f"schedule {self.kind!r} yields n_k=0 at some k; substituting n_k=1",
                      stacklevel=2)  # at k = n (n - k) or k = 0 (k)
        k = np.arange(n + 1)
        return np.maximum(n - k if self.kind == "n-minus-k" else k, 1)


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


def _checked_schedule(sched: NodeSchedule, n: int) -> int:
    """n as an int; ValueError unless sched is a NodeSchedule and n an
    integer >= 1."""
    if not isinstance(sched, NodeSchedule):
        raise ValueError(f"sched must be a NodeSchedule, got {sched!r}")
    return _degree(n)


def _checked_point(dom: CurvilinearDomain, x: float, y: float) -> None:
    """ValueError unless (x, y) is finite and dom.contains it, in that order;
    a bool coordinate raises first, naming it."""
    _not_bool(x, "x")
    _not_bool(y, "y")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point ({x}, {y}) is not finite")
    if not dom.contains(x, y):
        raise ValueError(f"point ({x}, {y}) outside the domain")


def _inner_t(dom: CurvilinearDomain, x: float, y: float) -> float:
    """Unit coordinate of y inside [phi1(x), phi2(x)]; 0 on degenerate edges."""
    w = dom.width(x)
    if w <= _EPS:
        return 0.0
    return min(max((y - dom.phi1(x)) / w, 0.0), 1.0)


class vectorized:
    """Declares f array-valued: f(x, y) takes two read-only 1-D float64
    arrays of one shape and returns the float64 array of its values at the
    points (x[i], y[i]). The samplers then call f once per block of points
    or nodes instead of once per point. Calling the declaration calls f.
    """

    __slots__ = ("f",)

    def __init__(self, f: Callable):
        self.f = f

    def __call__(self, x, y):
        return self.f(x, y)


# Sampling f: every operator reads f through _sample_points (f at given
# points) or _node_values (f at a table of nodes), and both read it through
# _f_at, the only function that calls it.

_BLOCK = 512  # points per _sample_points block
_NODE_BLOCK = 8192  # table entries, padding included, per _node_values block


def _f_at(f: Callable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """f at each point (x[i], y[i]) of two 1-D float arrays that f may keep.
    A vectorized f is called once, with both arrays made read-only, and
    must return a float64 array of their shape; any other f is called once
    per point, in order, with Python floats, and must return real numbers:
    an int, a float or a numpy integer or float, never a bool. ValueError
    names the first point where f returned anything else, or is NaN or inf,
    or says what a vectorized f returned instead of its array.
    """
    if isinstance(f, vectorized):
        x.flags.writeable = y.flags.writeable = False
        values = f(x, y)
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and values.shape == x.shape):
            got = (f"{values.dtype} array of shape {values.shape}"
                   if isinstance(values, np.ndarray) else type(values).__name__)
            raise ValueError(f"vectorized f returned {got}, not a float64 array of shape {x.shape}")
        check_f_values(values, lambda i: (float(x[i]), float(y[i])))
        return values
    xs, ys = x.tolist(), y.tolist()
    returned = list(map(f, xs, ys))
    odd = {kind for kind in set(map(type, returned)) if not _real(kind)}
    if odd:
        i = next(i for i, v in enumerate(returned) if type(v) in odd)
        raise ValueError(f"f({xs[i]!r}, {ys[i]!r}) returned {type(returned[i]).__name__} "
                         f"{returned[i]!r}, not a real number")
    values = np.fromiter(returned, float, len(xs))
    check_f_values(values, lambda i: (xs[i], ys[i]))
    return values


@functools.cache
def _real(kind: type) -> bool:
    """Whether an undeclared f may return a value of this type: a real
    number (numbers.Real, so numpy's integers and floats too) but no bool,
    which would read as 1.0 or 0.0."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, (bool, np.bool_))


def _sample_points(f: Callable[[float, float], float], pts: np.ndarray) -> np.ndarray:
    """f at every point of pts, an (m, 2) array, in order, _BLOCK points at
    a time (one list of the whole array would hold a Python float per
    coordinate), through _f_at.
    """
    out = np.empty(len(pts))
    for a in range(0, len(pts), _BLOCK):
        out[a:a + _BLOCK] = _f_at(f, *pts[a:a + _BLOCK].T.copy())
    return out


def _node_values(f: Callable[[float, float], float], counts: np.ndarray,
                 nodes: Callable) -> np.ndarray:
    """f at the nodes (k, j), j <= counts[k], as a table that is zero
    elsewhere. nodes(k, j, n_k), given k and n_k as columns and j as a row,
    returns the node coordinates (x, y) broadcastable to one row per k.
    f is read through _f_at at the nodes alone, never at the padding, in
    order of k, then j, in blocks of whole rows of at most _NODE_BLOCK
    table entries, so no temporary grows with the table.
    """
    table = np.zeros((counts.size, counts.max() + 1))
    j = np.arange(table.shape[1])
    rows = max(1, _NODE_BLOCK // j.size)
    for a in range(0, counts.size, rows):
        block = table[a:a + rows]
        nk = counts[a:a + rows, None]
        live = j <= nk
        x, y = (np.broadcast_to(c, live.shape)[live]
                for c in nodes(np.arange(a, a + len(block))[:, None], j, nk))
        block[live] = _f_at(f, x, y)
    return table


# The scalar operators' elevated node tables (_scalar_values), each stored
# as (c, C - c) with c the point of its values' range nearest 0, keyed by (f,
# operator tag, n, schedule, domain or quadrant) and evicted least recently
# used once the tables hold more than _NODE_TABLE_BYTES. Each is the whole
# table of its node set, whatever rows the point weights. f is treated as a
# pure function of (x, y): a repeated key reuses the table instead of
# calling f again.
_NODE_TABLE_BYTES = 8 << 20
_node_tables: OrderedDict[tuple, tuple[float, np.ndarray]] = OrderedDict()
_node_table_bytes = 0
_node_table_lock = threading.Lock()


def _node_table(key: tuple[Hashable, ...],
                build: Callable[[], tuple[float, np.ndarray]]) -> tuple[float, np.ndarray]:
    """The (c, table) pair stored under key, or build() when there is none.

    A built table is made read-only and stored unless it alone is larger
    than the bound. It is only stored when build returned, so a table whose
    f raised or was not finite never is.
    A key that cannot be hashed (an unhashable f) is built on every call.
    The table is built outside the lock, so two threads that miss the same
    key at once may each build it; both have the same bits.
    """
    global _node_table_bytes
    try:
        hash(key)
    except TypeError:
        return build()
    with _node_table_lock:
        entry = _node_tables.get(key)
        if entry is not None:
            _node_tables.move_to_end(key)
            return entry
    entry = build()
    table = entry[1]
    table.flags.writeable = False
    if table.nbytes > _NODE_TABLE_BYTES:
        return entry
    with _node_table_lock:
        if key not in _node_tables:
            _node_tables[key] = entry
            _node_table_bytes += table.nbytes
            while _node_table_bytes > _NODE_TABLE_BYTES:
                _node_table_bytes -= _node_tables.popitem(last=False)[1][1].nbytes
    return entry


def _scalar_values(f: Callable[[float, float], float], key: tuple, n: int,
                   nodes: Callable[[], tuple[np.ndarray, Callable]],
                   s: float | np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """sum_k p^n_k(s) sum_j p^{n_k}_j(t) F[k, j] at one (s, t), or at each
    (s[i], t[i]) of two 1-D arrays as an array: the one evaluator of the
    scalar operators. nodes() gives the row degrees n_k
    and the node map, and F is _node_values(f, n_k, node map). Each row is
    raised to N = max n_k (univariate._elevate; a constant schedule's rows
    are all of degree N already), which makes the value
    c + basis_row(n, s) @ (C - c) @ basis_row(N, t) for the elevated table
    C and the point c of F's range nearest 0; on arrays, each point's value
    is the sum of its row of (basis_rows(n, s) @ (C - c)) * basis_rows(N, t),
    plus c. (c, C - c) is read through _node_table under (f, *key), so nodes
    is called only when it is built, and one call reads it once for all
    its points. The outer rows come first, so an s outside [0, 1] raises
    before f is called, and so does a degree _elevate cannot reach.

    Elevation and the contraction are linear and keep constants, so the
    table is elevated and contracted less c: a constant f gives c to the
    bit at every point (the basis rows sum to 1 only to a rounding). A
    range that holds 0 gives c = 0, so a table of both signs keeps the bits
    of the unshifted sums, and any other range moves towards 0, so no value
    grows. The rows are not shifted each by their own c: unshifted, the
    rounding of C(N, i) in the elevation and in basis_row(N, t) cancels,
    and shifted rows measured up to 1.7 times the error on the exact images
    of tests/test_moments.py."""
    def build():
        counts, node_map = nodes()
        elevate = counts.min() < counts.max()  # rows of several degrees
        if elevate:
            _check_elevation(int(counts.max()))  # before f is called
        table = _node_values(f, counts, node_map)
        # rows of several degrees leave zeros right of column n_k, which are no values of f
        live = np.arange(table.shape[1]) <= counts[:, None] if elevate else ...
        values = table[live]  # a view when every entry is live
        c = min(max(0.0, float(values.min())), float(values.max()))
        values -= c
        table[live] = values
        if elevate:
            table = _elevate(table[None], counts)[0]
        return c, table

    if isinstance(s, np.ndarray):
        outer = basis_rows(n, s)
        c, table = _node_table((f, *key), build)
        return c + ((outer @ table) * basis_rows(table.shape[1] - 1, t)).sum(1)
    outer = basis_row(n, s)
    c, table = _node_table((f, *key), build)
    return c + float(outer @ table @ basis_row(table.shape[1] - 1, t))


def _node_map(dom: CurvilinearDomain, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node abscissae x_k = a + (b - a) k / n, and the width phi2 - phi1
    and low end phi1 of the node row at each, from one phi1 and one phi2
    call per x_k."""
    xk = dom.x_interval.from_unit(np.arange(n + 1) / n)
    curves = [(dom.phi1(v), dom.phi2(v)) for v in xk.tolist()]
    width, low = np.array([(hi - lo, lo) for lo, hi in curves]).T  # hi - lo as in dom.width
    return xk, width, low


def _row_nodes(dom: CurvilinearDomain, n: int) -> Callable:
    """The node map (k, j, n_k) -> (x_k, phi1(x_k) + (phi2 - phi1)(x_k) j / n_k)
    of stancu at degree n, from one _node_map(dom, n)."""
    xk, width, low = _node_map(dom, n)
    return lambda k, j, nk: (xk[k], width[k] * j / nk + low[k])


def stancu(
    f: Callable[[float, float], float],
    dom: CurvilinearDomain,
    n: int,
    sched: NodeSchedule,
    x: float,
    y: float,
) -> float:
    """Bivariate Bernstein-Stancu operator of f evaluated at (x, y); an x
    that dom.contains accepts within its tolerance outside [a, b] is
    evaluated at the nearer end, as ball_stancu does."""
    _checked_point(dom, x, y)
    n = _checked_schedule(sched, n)
    x = min(max(x, dom.a), dom.b)
    return _scalar_values(f, ("stancu", n, sched, dom), n,
                          lambda: (sched.counts(n), _row_nodes(dom, n)),
                          dom.x_interval.to_unit(x), _inner_t(dom, x, y))


def stancu_nodes(dom: CurvilinearDomain, n: int, sched: NodeSchedule) -> StancuNodes:
    """Node mesh (x_k, y_{k,j}) of the operator; y rows span [phi1, phi2]."""
    n = _checked_schedule(sched, n)
    counts = sched.counts(n)
    j = np.arange(counts.max() + 1)
    x, y = _row_nodes(dom, n)(np.arange(n + 1)[:, None], j, counts[:, None])
    # row k keeps the j of np.arange(n_k + 1)
    return StancuNodes(n, sched, x.ravel(), tuple(r[j < nk + 1] for r, nk in zip(y, counts)))


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
    _checked_point(dom, x, y)
    n = _checked_schedule(sched, n)
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
    n = _degree(n)
    _checked_point(dom, x, y)
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
        _checked_schedule(sched, n)
        counts = sched.counts(n)
        if sched.kind not in ("n-minus-k", "k"):
            raise ValueError("y2 closed form requires the n-minus-k or k schedule")
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
    the scaled residual should stay bounded. A NaN or inf f at the point
    raises ValueError, and so does a point that stancu would reject, before
    f is called.
    """
    if sched is None:
        sched = NodeSchedule.n_minus_k()
    x, y = point
    _checked_point(dom, x, y)
    target = float(_sample_points(f, np.array([[x, y]], dtype=float))[0])
    out = []
    for n in n_list:
        r = stancu(f, dom, n, sched, x, y) - target
        out.append((n, r, n * r))
    return out
