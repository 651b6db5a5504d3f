"""Disk meshes, RMSE statistics, the built-in test functions, and
cross-section extraction. Batch operator evaluation computes basis rows
once per distinct collapsed coordinate and gathers them back to the
points, in fixed groups that can run on a thread pool; results are
identical for any thread count.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _blas
from .bivariate import _node_values, _sample_points, vectorized
from .disk import (_QUADRANTS, Quadrant, _checked_points, _chord_coordinates, _chord_nodes,
                   _node_roots, _quadrant_coordinates, quadrant_node_table)
from .univariate import _degree, _degree_rows, basis_rows

__all__ = [
    "BUILTINS",
    "builtin",
    "MeshSpec",
    "RmseReport",
    "mesh_stancu_disk",
    "mesh_quadrant_disk",
    "disk_operator",
    "rmse",
    "run_example",
    "cross_section",
    "DEFAULT_N_LIST",
    "REFERENCE_RMSE",
    "ReferenceCell",
    "reference_report",
]

DEFAULT_N_LIST = (10, 20, 30, 40, 50, 60, 70, 80)


# ---------------------------------------------------------------------------
# Built-in test functions on the unit disk


# Every example is vectorized, and its numpy form gives the bits of its
# math form (tests/test_array_f.py pins it): np.sin and math.sin agree on
# numpy 2.4.6, but np.exp and math.exp differ by 1 ulp on about 5% of
# arguments, so example 3 takes math.exp of each element.


@vectorized
def _example1(x, y):
    return x * np.sin(5 * x - 6 * y) + y


@vectorized
def _example2(x, y):
    return np.sin(10 * x + y)


@vectorized
def _example3(x, y):
    if not isinstance(x, np.ndarray):  # a call with two numbers: the math form
        return math.exp(x * x - y * y) - x * y
    a = x * x - y * y
    return np.fromiter(map(math.exp, a.tolist()), float, a.size) - x * y


@vectorized
def _example4(x, y):
    r2 = x * x + y * y
    return np.where(r2 < 0.5, 1.0, np.where(r2 <= 0.8, 0.0, 0.5))[()]  # two numbers give a number


BUILTINS: dict[str, Callable[[float, float], float]] = {
    "example1": _example1,
    "example2": _example2,
    "example3": _example3,
    "example4": _example4,
}


def builtin(example_id: int | str) -> Callable[[float, float], float]:
    """Built-in function by numeric id (1..4, any integer type but bool) or
    name ("example1".."4"); ValueError for anything else."""
    try:
        return BUILTINS[example_id if isinstance(example_id, str)
                        else f"example{_degree(example_id)}"]
    except (KeyError, ValueError):  # ValueError: neither a string nor an integer >= 1
        raise ValueError(f"unknown built-in function {example_id!r}") from None


# ---------------------------------------------------------------------------
# Meshes


def _quadrant_indices(n: int, q: Quadrant, dedup: bool) -> tuple[np.ndarray, np.ndarray]:
    """(k, j), j <= n - k, of quadrant q's points in order of k, then j.

    With dedup, a point on an axis that an earlier quadrant already has is
    left out: B2 shares x = 0 (k = 0) with B1, B3 shares y = 0 (j = 0)
    with B2, and B4 shares both axes with B1 and B3.
    """
    length = np.arange(n + 1, 0, -1)  # points in row k
    k = np.repeat(np.arange(n + 1), length)
    j = np.arange(k.size) - np.repeat(np.cumsum(length) - length, length)
    if dedup and q is not Quadrant.B1:
        keep = {Quadrant.B2: k > 0, Quadrant.B3: j > 0, Quadrant.B4: (k > 0) & (j > 0)}[q]
        k, j = k[keep], j[keep]
    return k, j


@dataclass(frozen=True)
class MeshSpec:
    """A disk mesh: its point coordinates and the (kind, n, dedup) that
    generate them. The fields are checked on construction; the points are
    the caller's, and rmse checks them before f is called."""

    kind: str
    n: int
    dedup: bool
    points: np.ndarray

    def __post_init__(self):
        if self.kind not in ("stancu", "quadrant"):
            raise ValueError(f"unknown mesh kind {self.kind!r}")
        object.__setattr__(self, "n", _degree(self.n))
        if not isinstance(self.dedup, bool) or self.dedup and self.kind == "stancu":
            raise ValueError(f"dedup must be a bool, False for the chord mesh, got {self.dedup!r}")

    @property
    def nominal_size(self) -> int:
        """The published cardinality, the RMSE denominator whatever dedup:
        (n+1)^2 for the chord mesh, 2n(n+1) for the quadrant mesh."""
        return (self.n + 1) ** 2 if self.kind == "stancu" else 2 * self.n * (self.n + 1)

    def label_segments(self) -> Iterator[tuple[tuple, np.ndarray, np.ndarray]]:
        """Runs of consecutive points as (prefix, k, j): the i-th point of a
        run has the label prefix + (k[i], j[i]). The chord mesh has one run
        per k with an empty prefix; the quadrant mesh has one run per
        quadrant, prefixed by its name."""
        if self.kind == "stancu":
            j = np.arange(self.n + 1)
            for k in range(self.n + 1):
                yield (), np.full(self.n + 1, k), j
        else:
            for q in _QUADRANTS:
                yield (q.name,), *_quadrant_indices(self.n, q, self.dedup)

    @property
    def labels(self) -> tuple[tuple, ...]:
        """Per point, (k, j) for the chord mesh and (quadrant, k, j) for the
        quadrant mesh, rebuilt on each access."""
        return tuple(prefix + kj for prefix, k, j in self.label_segments()
                     for kj in zip(k.tolist(), j.tolist()))


def mesh_stancu_disk(n: int) -> MeshSpec:
    """Chord mesh ((2k-n)/n, 2 sqrt(k(n-k)) (n-2j)/n^2), 0 <= k, j <= n.

    Multiplicity is retained: there are exactly (n+1)^2 entries, with the
    columns at x = +-1 collapsing to repeated points on the x axis.
    """
    n = _degree(n)
    j = np.arange(n + 1)
    k = j[:, None]
    pts = np.empty(((n + 1) ** 2, 2))
    x, y = (pts[:, c].reshape(n + 1, n + 1) for c in (0, 1))  # views into pts
    x[:] = (2 * k - n) / n
    np.multiply(2.0 * np.sqrt(k * (n - k)), n - 2 * j, out=y)
    y /= n**2
    return MeshSpec("stancu", n, False, pts)


def mesh_quadrant_disk(n: int, dedup: bool = True) -> MeshSpec:
    """Union of the four quadrant node sets (sx sqrt(k/n), sy sqrt(j/n)),
    j <= n - k. Raw cardinality is 2(n+1)(n+2); exact deduplication leaves
    2n(n+1)+1 distinct points (the published count 2n(n+1) misses the
    origin). nominal_size stays at the published 2n(n+1).
    """
    n = _degree(n)
    roots = _node_roots(n)
    pts = np.empty((2 * n * (n + 1) + 1 if dedup else 2 * (n + 1) * (n + 2), 2))
    a = 0
    for q in _QUADRANTS:
        k, j = _quadrant_indices(n, q, dedup)
        block = pts[a:a + k.size]
        block[:, 0] = q.sx * roots[k] + 0.0
        block[:, 1] = q.sy * roots[j] + 0.0
        a += k.size
    return MeshSpec("quadrant", n, dedup, pts)


# ---------------------------------------------------------------------------
# Batch operator evaluation
#
# Mesh points repeat their collapsed coordinates (u, t): the quadrant mesh
# mirrors one quadrant's rows into the other three, and the chord mesh is a
# tensor grid. Each kernel computes basis rows and node-table contractions
# once per distinct coordinate of a group of points, then gathers them back
# to the points. Every point's final sum runs in the same order as a
# per-point evaluation.
#
# A group holds at most _ROWS distinct t and _ROWS distinct u, which bounds
# its memory. The split depends only on the points, never on the thread
# count: BLAS rounds a row differently depending on where it sits in the
# matrix, so a fixed split keeps outputs identical for any thread count.

_ROWS = 512

# Points whose u and t rows _chord_disk_batch gathers at once. Each point's
# dot product runs on its own, so the block size changes no bits; a small
# block keeps the two gathered (block, n+1) copies per thread small.
_GATHER = 128

# A Cbar or Bbar sweep holds the node tables of all its degrees at once, so
# the degrees of one call are split into sweeps whose tables hold at most
# this many times the entries of the largest degree's: the peak memory of a
# section stays within half again that of one call at its largest n. The
# list n = 10, 40, 80, 160 (1.32 times) still takes one sweep.
_SWEEP_TABLES = 1.5


@dataclass(frozen=True)
class _Group:
    points: np.ndarray  # indices of the group's points (int32)
    u: np.ndarray       # distinct u values of the group
    ui: np.ndarray      # per point, its row in u (int32)
    t: np.ndarray       # distinct t values of the group
    ti: np.ndarray      # per point, its row in t (int32)


def _groups(u: np.ndarray, t: np.ndarray) -> list[_Group]:
    """Points split into consecutive spans of _ROWS distinct t values, each
    span ordered by (u, point index) and split further so that no group has
    more than _ROWS distinct u.

    One sort of t lays the spans out contiguously, and each span is sorted
    on its own, so no temporary outgrows the sort order of all points.
    Indices are int32.
    """
    order = np.argsort(t, kind="stable")
    st = t[order]
    order = order.astype(np.int32)
    starts = np.flatnonzero(np.r_[True, st[1:] != st[:-1]])  # first of each distinct t
    distinct_t = st[starts]
    del st
    edges = np.r_[starts[::_ROWS], order.size]
    groups = []
    for s, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        span_t = distinct_t[s * _ROWS:(s + 1) * _ROWS]
        p = np.sort(order[a:b])
        p = p[np.argsort(u[p], kind="stable")]
        su = u[p]
        new_u = np.r_[True, su[1:] != su[:-1]]
        cuts = np.r_[np.flatnonzero(new_u)[::_ROWS], p.size]
        for c, d in zip(cuts[:-1], cuts[1:]):
            gp = p[c:d]
            gti = np.searchsorted(span_t, t[gp])
            present = np.zeros(span_t.size, dtype=bool)  # the group keeps only its own t
            present[gti] = True
            gt, gti = span_t[present], (np.cumsum(present, dtype=np.int32) - 1)[gti]
            gui = np.cumsum(new_u[c:d], dtype=np.int32)
            gui -= 1
            groups.append(_Group(gp, su[c:d][new_u[c:d]], gui, gt, gti))
    return groups


def _evaluate_groups(evaluate: Callable[[_Group], np.ndarray], groups: list[_Group],
                     shape: int | tuple[int, ...], threads: int | None) -> np.ndarray:
    """Values of every group, in point order, in an array of the given
    shape whose last axis is the points. With threads = T > 1 the calling
    thread and T - 1 pool workers take groups from one shared iterator;
    each group's values go straight to its own points, so the output is
    the same for every T. OpenBLAS runs one thread throughout, so T alone
    sets the parallelism, and every product has the bits of the serial
    BLAS kernels whatever the host's BLAS thread count."""
    out = np.empty(shape)
    todo = iter(groups)
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                g = next(todo, None)
            if g is None:
                return
            out[..., g.points] = evaluate(g)

    threads = min(threads or 1, len(groups))
    with _blas.one_thread():
        if threads <= 1:
            work()
        else:
            with ThreadPoolExecutor(max_workers=threads - 1) as pool:
                helpers = [pool.submit(work) for _ in range(threads - 1)]
                work()
                for h in helpers:
                    h.result()
    return out


def _chord_disk_batch(n: int, table: np.ndarray, groups: list[_Group], size: int,
                      threads: int | None) -> np.ndarray:
    """Disk Bernstein-Stancu values (constant schedule n_k = n) from its
    node table at size points, which groups splits by their
    _chord_coordinates."""
    def evaluate(g: _Group) -> np.ndarray:
        pt = basis_rows(n, g.t)  # first, so its temporaries are gone before the gemm
        gu = basis_rows(n, g.u) @ table
        values = np.empty(g.points.size)
        for a in range(0, values.size, _GATHER):
            s = slice(a, a + _GATHER)
            values[s] = np.einsum("pk,pk->p", gu[g.ui[s]], pt[g.ti[s]])
        return values

    return _evaluate_groups(evaluate, groups, size, threads)


def _piecewise_disk_batch(degrees: Sequence[int], tables: Sequence[Sequence[np.ndarray | None]],
                          groups: list[_Group], quad: np.ndarray,
                          threads: int | None) -> np.ndarray:
    """Piecewise quadrant-polynomial values for every degree in degrees
    (distinct, ascending) at the points whose _quadrant_coordinates are
    (u, t, quad), which groups splits by (u, t), as a (len(degrees),
    len(quad)) array, each point from its quadrant's table. tables[d][i] is
    the node table of degree degrees[d] and quadrant _QUADRANTS[i], sampled
    by the caller; it may be None where no point lies in that quadrant.

    One sweep of _degree_rows(max(degrees), t) per group serves every
    degree: the rows of degree m go to operator n at k = n - m. As m falls,
    k rises for every n, so each point's sum runs in order of k, as for one
    degree. For each degree and m, the products of the rows with the
    group's quadrants' tables go into one (4, T) buffer, from which one
    gather takes every point's term.
    """
    def evaluate(g: _Group) -> np.ndarray:
        gq = quad[g.points]
        present = np.flatnonzero(np.bincount(gq, minlength=len(_QUADRANTS)))
        d = np.empty((len(_QUADRANTS), g.t.size))  # per quadrant, the rows times its table
        at = gq * g.t.size + g.ti  # each point's product in d, flat
        values = np.zeros((len(degrees), g.points.size))
        # per degree: its u rows, its sums and its quadrants' product rows and tables
        per_degree = [(n, basis_rows(n, g.u).T.copy(), acc, [(d[i], tables[x][i]) for i in present])
                      for x, (n, acc) in enumerate(zip(degrees, values))]
        for m, rows in zip(range(degrees[-1], -1, -1), _degree_rows(degrees[-1], g.t)):
            for n, pu, acc, products in per_degree:
                if n < m:
                    continue
                k = n - m
                for out, tab in products:
                    np.matmul(rows, tab[k, : m + 1], out=out)
                acc += pu[k].take(g.ui) * d.take(at)
        return values

    return _evaluate_groups(evaluate, groups, (len(degrees), len(quad)), threads)


def _sweeps(degrees: Sequence[int]) -> list[list[int]]:
    """Distinct ascending degrees split, from the largest down, into the
    degree lists of _piecewise_disk_batch calls, each ascending. A sweep
    takes degrees while its node tables hold at most _SWEEP_TABLES times
    the entries of the largest degree's."""
    bound = _SWEEP_TABLES * (degrees[-1] + 1) ** 2
    sweeps, held = [], bound
    for n in reversed(degrees):
        if held + (n + 1) ** 2 > bound:
            sweeps.append([])
            held = 0
        sweeps[-1].insert(0, n)
        held += (n + 1) ** 2
    return sweeps


_KINDS = {"Cbar": "Cbar", "Bbar": "Bbar", "Bstancu": "Bstancu", "Bstancu-disk": "Bstancu"}


def _kind(kind: str) -> str:
    """The operator kind an accepted name stands for; ValueError for
    anything else, an unhashable value too."""
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown operator kind {kind!r}") from None


def _operator_values(kind: str, f: Callable[[float, float], float], ns: Sequence[int],
                     pts, threads: int | None) -> Sequence[np.ndarray]:
    """Values of operator kind at the points, one array per degree in ns;
    each distinct degree is computed once. The kind, every degree, the
    points (_checked_points) and threads are checked before anything else,
    f included, also when ns or pts is empty. The groups are built once per
    call, and the node tables are sampled here; Cbar and Bbar sweep several
    degrees at once (_sweeps)."""
    kind, degrees = _kind(kind), sorted({_degree(n) for n in ns})
    pts = _checked_points(pts)
    threads = None if threads is None else _degree(threads, name="threads")
    if len(pts) == 0 or not degrees:
        return np.zeros((len(ns), len(pts)))
    if kind == "Bstancu":
        groups = _groups(*_chord_coordinates(pts))
        values = {n: _chord_disk_batch(n, _node_values(f, np.full(n + 1, n), _chord_nodes(n)),
                                       groups, len(pts), threads) for n in degrees}
    else:
        u, t, quad = _quadrant_coordinates(pts)
        groups = _groups(u, t)
        present = np.bincount(quad, minlength=len(_QUADRANTS)) > 0
        values = {}
        for sweep in _sweeps(degrees):  # one sweep's tables live at a time
            values.update(zip(sweep, _piecewise_disk_batch(
                sweep, [[quadrant_node_table(f, n, q) if here else None
                         for q, here in zip(_QUADRANTS, present)] for n in sweep],
                groups, quad, threads)))
    return [values[n] for n in ns]


@dataclass(frozen=True)
class DiskOperator:
    """A disk approximation operator bound to a degree, batch-evaluable."""

    kind: str  # "Cbar" | "Bbar" | "Bstancu"
    n: int

    def __call__(self, f, pts: np.ndarray, threads: int | None = None) -> np.ndarray:
        return _operator_values(self.kind, f, (self.n,), pts, threads)[0]


def disk_operator(kind: str, n: int) -> DiskOperator:
    return DiskOperator(_kind(kind), _degree(n))


# ---------------------------------------------------------------------------
# RMSE


@dataclass(frozen=True)
class RmseReport:
    function_id: str
    operator_id: str
    entries: tuple[tuple[int, float], ...]


# Values per _exact_sum block: each half-mantissa bucket sum stays below
# 2^16 * 2^27 = 2^43, an integer float64 adds exactly.
_SUM_BLOCK = 1 << 16


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values) for a 1-D array of non-negative floats: the exact
    sum, rounded once. Each value is m 2^(e-53) with m = frexp's mantissa
    times 2^53, an integer below 2^53; m's two halves below 2^27 are summed
    per exponent e with np.bincount, exactly, and the buckets of every
    block are joined into one Python int, whose division by 2^1126 rounds
    correctly. A non-finite value leaves the sum to math.fsum (inf), and a
    sum beyond the float range raises OverflowError, as math.fsum does."""
    total = 0
    for a in range(0, values.size, _SUM_BLOCK):
        block = values[a:a + _SUM_BLOCK]
        if not np.isfinite(block).all():
            return math.fsum(values)
        m, e = np.frexp(block)
        m = np.ldexp(m, 53)  # integers below 2^53
        hi = np.floor(np.ldexp(m, -27))
        lo = m - np.ldexp(hi, 27)
        e += 1073  # frexp's exponents are >= -1073, so the offsets are >= 0
        his, los = (np.bincount(e, weights=w) for w in (hi, lo))
        for i in np.flatnonzero(his + los).tolist():
            total += ((int(his[i]) << 27) + int(los[i])) << i
    return total / (1 << 1126)  # the value of offset 0 is 2^(-1073-53)


def _squared_error_sum(f: Callable[[float, float], float], op: DiskOperator,
                       mesh: MeshSpec, threads: int | None) -> float:
    """Exactly rounded sum (_exact_sum) of (f - op f)^2 over the mesh
    points: the operator call first, which checks the points before f is
    called, then f at them."""
    sq = op(f, mesh.points, threads=threads)
    np.subtract(_sample_points(f, mesh.points), sq, out=sq)  # in place: (z - zhat) ** 2's bits
    sq *= sq
    return _exact_sum(sq)


def rmse(
    f: Callable[[float, float], float],
    op: DiskOperator,
    mesh: MeshSpec,
    threads: int | None = None,
    denominator: str = "nominal",
) -> float:
    """Root mean square error of op against f over the mesh.

    denominator: "nominal" divides by the published mesh cardinality;
    "actual" divides by the number of points actually summed.
    """
    if denominator not in ("nominal", "actual"):
        raise ValueError(f"unknown denominator {denominator!r}; use 'nominal' or 'actual'")
    denom = mesh.nominal_size if denominator == "nominal" else len(mesh.points)
    if denom == 0:
        raise ValueError(f"the {denominator} mesh size is 0")
    return math.sqrt(_squared_error_sum(f, op, mesh, threads) / denom)


def _cells(example_id: int, n_list: Sequence[int],
           threads: int | None) -> Iterator[tuple[int, str, MeshSpec, float]]:
    """(n, operator kind, mesh, sum of squared errors) of each published
    cell of one built-in function: per n, the piecewise quadrant operator
    on the deduplicated quadrant mesh, then the chord-mesh disk operator."""
    f = builtin(example_id)
    for n in n_list:
        cases = (("Cbar", mesh_quadrant_disk(n, dedup=True)), ("Bstancu", mesh_stancu_disk(n)))
        for kind, mesh in cases:
            yield n, kind, mesh, _squared_error_sum(f, disk_operator(kind, n), mesh, threads)


def run_example(
    example_id: int,
    n_list: Sequence[int] = DEFAULT_N_LIST,
    threads: int | None = None,
) -> tuple[RmseReport, RmseReport]:
    """RMSE of the piecewise quadrant operator and the chord-mesh disk
    operator for one built-in function over the published meshes.
    """
    rows = {"Cbar": [], "Bstancu": []}
    for n, kind, mesh, total in _cells(example_id, n_list, threads):
        rows[kind].append((n, math.sqrt(total / mesh.nominal_size)))
    return tuple(RmseReport(f"example{example_id}", kind, tuple(rows[kind])) for kind in rows)


# Reference RMSE values for the built-in examples over the default degrees,
# as (piecewise quadrant operator, chord-mesh disk operator) per n. These are
# externally supplied targets for the validation suite; see reference_report.
REFERENCE_RMSE: dict[int, dict[int, tuple[float, float]]] = {
    1: {10: (0.191411, 0.30623), 20: (0.117881, 0.209091),
        30: (0.0860663, 0.16182), 40: (0.0682511, 0.132416),
        50: (0.0568288, 0.112151), 60: (0.0488602, 0.0972969),
        70: (0.0429694, 0.0859318), 80: (0.0384267, 0.0769527)},
    2: {10: (0.535344, 0.700146), 20: (0.366915, 0.613427),
        30: (0.278477, 0.526227), 40: (0.225091, 0.454904),
        50: (0.189454, 0.398559), 60: (0.163967, 0.353775),
        70: (0.144812, 0.317628), 80: (0.129872, 0.287968)},
    3: {10: (0.0505862, 0.140837), 20: (0.0293585, 0.0685387),
        30: (0.0213945, 0.0455634), 40: (0.017105, 0.0342737),
        50: (0.0143844, 0.0275514), 60: (0.0124871, 0.0230843),
        70: (0.0110789, 0.0198962), 80: (0.00998647, 0.0175041)},
    4: {10: (0.216588, 0.270366), 20: (0.175754, 0.243468),
        30: (0.156563, 0.223305), 40: (0.144805, 0.210916),
        50: (0.136559, 0.205949), 60: (0.130305, 0.192988),
        70: (0.125319, 0.193887), 80: (0.121205, 0.187675)},
}


@dataclass(frozen=True)
class ReferenceCell:
    """One table cell compared against its reference value.

    computed uses the nominal-denominator convention; computed_alt divides by
    the actual number of summed points instead (the two counts differ by the
    deduplication off-by-one on the quadrant mesh).
    """

    example_id: int
    operator_id: str
    n: int
    computed: float
    computed_alt: float
    reference: float

    @property
    def rel_error(self) -> float:
        return abs(self.computed - self.reference) / abs(self.reference)

    @property
    def rel_error_alt(self) -> float:
        return abs(self.computed_alt - self.reference) / abs(self.reference)

    def within(self, rtol: float = 1e-3) -> bool:
        return self.rel_error <= rtol


def reference_report(
    example_id: int,
    n_list: Sequence[int] = DEFAULT_N_LIST,
    threads: int | None = None,
) -> list[ReferenceCell]:
    """Compare computed RMSE cells for one example against REFERENCE_RMSE.

    Both denominator conventions are reported for every cell so that a
    disagreement under the nominal convention can be cross-checked against
    the alternative one. An example or n without a reference value raises
    ValueError before any cell is computed.
    """
    builtin(example_id)  # an unknown example raises as in run_example
    missing = [n for n in n_list if _degree(n) not in REFERENCE_RMSE.get(example_id, {})]
    if missing:
        raise ValueError(f"no reference RMSE for example {example_id!r} at n = {missing}")
    return [ReferenceCell(example_id, kind, n,
                          math.sqrt(total / mesh.nominal_size),
                          math.sqrt(total / len(mesh.points)),
                          REFERENCE_RMSE[example_id][n][kind == "Bstancu"])  # (Cbar, Bstancu)
            for n, kind, mesh, total in _cells(example_id, n_list, threads)]


def cross_section(
    op_kind: str,
    f: Callable[[float, float], float],
    n_list: Sequence[int],
    segment: tuple[tuple[float, float], tuple[float, float]] = ((-1.0, 0.0), (1.0, 0.0)),
    samples: int = 801,
    threads: int | None = None,
) -> list[tuple]:
    """Sample f and the operators along a segment inside the closed disk.

    Returns rows (s, x, y, f, value_n1, value_n2, ...), s in [0, 1]. The
    values have the bits of one DiskOperator call per n; Cbar and Bbar
    compute every n in one sweep of the degrees.
    """
    samples = _degree(samples, name="samples")
    try:
        (x0, y0), (x1, y1) = segment
    except (TypeError, ValueError):  # not two pairs
        raise ValueError(f"segment must be two (x, y) points, got {segment!r}") from None
    if x0 == x1 and y0 == y1:
        raise ValueError("degenerate segment")
    s = np.linspace(0.0, 1.0, samples)
    with np.errstate(invalid="ignore"):  # an inf endpoint gives NaN points, which are rejected
        pts = np.column_stack((x0 + s * (x1 - x0), y0 + s * (y1 - y0)))
    cols = [values.tolist() for values in _operator_values(op_kind, f, n_list, pts, threads)]
    fvals = _sample_points(f, pts).tolist()
    return list(zip(s.tolist(), pts[:, 0].tolist(), pts[:, 1].tolist(), fvals, *cols))
