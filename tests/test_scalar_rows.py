"""The scalar nested-Bernstein evaluator: each scalar operator against a
per-k loop that samples its own node table (kept here as the reference),
with the same calls of f in the same order, and within tol(n) of the
40-digit sum of that table; every form's arithmetic against 40-digit sums
of a node table it samples itself. tol(n) is 1e-13 to n = 40 and
2e-15 n above (the bound of tests/test_moments.py). Also non-finite f,
degrees that are not integers >= 1, one node table per node set (a point
that weights only some rows samples, and shares, the whole table) and the
node-table memo: a repeated call reuses the table, a call with an
unhashable f samples again, the memo stays under its byte bound and
threads read it safely.
"""

import importlib.util
import math
import random
import sys
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex
from diskbern import univariate as uv
from diskbern.bivariate import CurvilinearDomain, NodeSchedule
from diskbern.disk import Quadrant
from diskbern.univariate import basis_row
from nested_sum import mp_nested_sum

# The n-minus-k and k schedules warn that they substitute n_k = 1 for 0.
pytestmark = pytest.mark.filterwarnings("ignore:schedule .* yields n_k=0")

def _root(x):
    return math.sqrt(max(1.0 - x * x, 0.0))


DISK = CurvilinearDomain(-1.0, 1.0, lambda x: -_root(x), _root)
BENT = CurvilinearDomain(0.0, 2.0, lambda x: x * x / 4.0 - 1.0, lambda x: 1.0 + math.sin(x))


def disk_points():
    rng = np.random.default_rng(29)
    r, a = np.sqrt(rng.random(6)), rng.uniform(0.0, 2.0 * math.pi, 6)
    pts = list(zip((r * np.cos(a)).tolist(), (r * np.sin(a)).tolist()))
    pts += [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.4, 0.0),
            (-0.7, 0.0), (0.0, 0.3), (0.0, -0.9), (0.999, 0.0)]
    for a in (0.3, 2.0, 3.5, 5.1):
        pts.append((math.cos(a), math.sin(a)))
    return pts


# (n, points used): every point up to n = 40, a few at n = 97 and 200.
FEW = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, -1.0), (0.31, 0.62),
       (math.cos(2.0), math.sin(2.0))]
SIZES = [(1, None), (2, None), (5, None), (40, None), (97, FEW[1:5]), (200, FEW[2:5:2])]


def tol(n):
    return 1e-13 if n <= 40 else 2e-15 * n


def schedules(n):
    return [NodeSchedule.constant(3), NodeSchedule.constant(n), NodeSchedule.n_minus_k(),
            NodeSchedule.k_index()]


def recording(f):
    calls = []

    def g(x, y):
        calls.append((x, y))
        return f(x, y)

    return g, calls


# The per-k loops the evaluator replaced, except that f is sampled at every
# row's nodes before the sum, as the evaluator samples a whole node table,
# and that the sum is then taken exactly.

def table_of(counts, fnodes):
    """The rows fnodes as one table, zero right of column counts[k]."""
    table = np.zeros((len(counts), int(counts.max()) + 1))
    for k, row in enumerate(fnodes):
        table[k, : counts[k] + 1] = row
    return table


def exact(s, t, counts, fnodes):
    """sum_k p^n_k(s) sum_j p^{n_k}_j(t) fnodes[k][j] at 40 digits."""
    return mp_nested_sum(s, t, counts, table_of(counts, fnodes))


def sampled_rows(f, counts, node):
    """f at node(k, j, n_k), j <= n_k, one array per row k, in order of k, then j."""
    return [np.array([f(*node(k, j, nk)) for j in range(nk + 1)])
            for k, nk in enumerate(counts.tolist())]


# The square and simplex operators as they were before they became stancu
# on disk._SQUARE and disk._SIMPLEX: kept only to bound how far they moved.

# Each loop returns (s, t, counts, fnodes): its point's unit coordinates,
# the row degrees and f at each row's nodes.

def loop_square(f, n, sched, x, y):
    counts = sched.counts(n)
    s = (min(max(x, -1.0), 1.0) + 1.0) / 2.0
    ty = (min(max(y, -1.0), 1.0) + 1.0) / 2.0
    fnodes = sampled_rows(f, counts, lambda k, j, nk: ((2 * k - n) / n, (2 * j - nk) / nk))
    return s, ty, counts, fnodes


def loop_simplex(f, n, sched, x, y):
    x, y = max(x, 0.0), max(y, 0.0)
    counts = sched.counts(n)
    t = y / (1.0 - x) if 1.0 - x > 1e-12 else 0.0
    t = min(max(t, 0.0), 1.0)
    fnodes = sampled_rows(f, counts, lambda k, j, nk: (k / n, (j / nk) * (1.0 - k / n)))
    return min(x, 1.0), t, counts, fnodes


def loop_ball(f, n, sched, x, y):
    counts = sched.counts(n)
    s = (min(max(x, -1.0), 1.0) + 1.0) / 2.0
    half_width = math.sqrt(max(1.0 - x * x, 0.0))
    t = (y / half_width + 1.0) / 2.0 if half_width > 1e-12 else 0.5
    t = min(max(t, 0.0), 1.0)
    fnodes = sampled_rows(f, counts, lambda k, j, nk: (
        (2 * k - n) / n, (2 * j - nk) / nk * (2.0 * math.sqrt(k * (n - k)) / n)))
    return s, t, counts, fnodes


def loop_closed_form(table, n, x, y):
    u = min(x * x, 1.0)
    t = (y * y) / (1.0 - u) if 1.0 - u > 1e-12 else 0.0
    t = min(max(t, 0.0), 1.0)
    return u, t, n - np.arange(n + 1), [table[k, : n - k + 1] for k in range(n + 1)]


def loop_stancu(f, dom, n, sched, x, y):
    """bivariate.stancu as it was: f at every row's nodes, zero weights too."""
    counts = sched.counts(n)
    s = dom.x_interval.to_unit(x)
    t = biv._inner_t(dom, x, y)
    fnodes = []
    for k in range(n + 1):
        xk = dom.x_interval.from_unit(k / n)
        nk = int(counts[k])
        ys = dom.width(xk) * np.arange(nk + 1) / nk + dom.phi1(xk)
        fnodes.append(np.array([f(xk, v) for v in ys.tolist()]))
    return s, t, counts, fnodes


def loop_on(dom):
    """loop_stancu on dom, with the signature of the square and simplex operators."""
    return lambda f, n, sched, x, y: loop_stancu(f, dom, n, sched, x, y)


def same(new, old, n):
    """Identical calls of f, and the value within tol(n) of the exact sum
    of the loop's table."""
    (value, calls), (sampled, expected_calls) = new, old
    assert calls == expected_calls
    assert abs(value - exact(*sampled)) <= tol(n)


def run(op, f, *args):
    g, calls = recording(f)
    return op(g, *args), calls


# ---------------------------------------------------------------------------
# the operators against their old loops

def square_points():
    rng = np.random.default_rng(31)
    pts = [tuple(p) for p in rng.uniform(-1.0, 1.0, (10, 2)).tolist()]
    return pts + [(-1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (0.0, 1.0), (-1.0, 0.2), (0.0, 0.0)]


def simplex_points():
    rng = np.random.default_rng(37)
    pts = []
    for a, b in rng.random((10, 2)).tolist():
        pts.append((1.0 - a, 1.0 - b) if a + b > 1.0 else (a, b))
    return pts + [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.2, 0.0), (0.0, 0.7)]


@pytest.mark.parametrize("n, few", SIZES)
def test_ball_stancu_near_the_exact_sum_of_its_loop(n, few):
    for e, (x, y) in zip([1, 2, 3, 4] * 9, few or disk_points()):
        f = ex.builtin(e)
        for sched in schedules(n):
            same(run(disk.ball_stancu, f, n, sched, x, y),
                 run(loop_ball, f, n, sched, x, y), n)


def few_simplex_points(few):
    return [(abs(x) / 2, abs(y) / 2) for x, y in few] if few else simplex_points()


@pytest.mark.parametrize("n, few", SIZES)
def test_square_bernstein_near_the_exact_sum_of_its_loop(n, few):
    for e, (x, y) in zip([1, 2, 3, 4] * 9, few or square_points()):
        f = ex.builtin(e)
        for sched in schedules(n):
            same(run(disk.square_bernstein, f, n, sched, x, y),
                 run(loop_stancu, f, disk._SQUARE, n, sched, x, y), n)


@pytest.mark.parametrize("n, few", SIZES)
def test_simplex_duffy_near_the_exact_sum_of_its_loop(n, few):
    for e, (x, y) in zip([1, 2, 3, 4] * 9, few_simplex_points(few)):
        f = ex.builtin(e)
        for sched in schedules(n):
            same(run(disk.simplex_bernstein, f, n, sched, x, y),
                 run(loop_stancu, f, disk._SIMPLEX, n, sched, x, y), n)


@pytest.mark.parametrize("n, few", SIZES)
def test_square_and_simplex_within_1e_14_of_the_old_construction(n, few):
    """Examples 1-3 (continuous) move by rounding only; example4 is left out,
    since its nodes on a jump may round to the other side. The two
    constructions share (s, t), so their exact values differ by the 40-digit
    sum of the difference of their node tables (each entry of which is
    rounded once), whatever rounding their evaluation adds."""
    for dom, old, pts in ((disk._SQUARE, loop_square, few or square_points()),
                          (disk._SIMPLEX, loop_simplex, few_simplex_points(few))):
        for e, (x, y) in zip([1, 2, 3] * 12, pts):
            f = ex.builtin(e)
            for sched in schedules(n):
                s, t, counts, fnodes = loop_stancu(f, dom, n, sched, x, y)
                before = old(f, n, sched, x, y)
                assert (s, t) == before[:2]
                delta = [a - b for a, b in zip(fnodes, before[3])]
                assert abs(exact(s, t, counts, delta)) <= 1e-14


@pytest.mark.parametrize("n, few", SIZES)
def test_piecewise_stancu_disk_near_the_exact_sum_of_its_loop(n, few):
    for e, (x, y) in zip([1, 2, 3, 4] * 9, few or disk_points()):
        f = ex.builtin(e)
        q = disk._QUADRANTS[disk._quadrant_index(x, y)]

        def loop(g, n, x, y):
            return loop_closed_form(disk.quadrant_node_table(g, n, q), n, x, y)

        same(run(disk.piecewise_stancu_disk, f, n, x, y), run(loop, f, n, x, y), n)
        same(run(disk.quadrant_stancu, f, q, n, x, y), run(loop, f, n, x, y), n)


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_axis_continuity_check_near_the_exact_sums_of_its_loop(n):
    """The largest mismatch across an axis, against that of the exact sums:
    each of its two values is within tol(n) of its own."""
    f = ex.builtin(4)
    tables = {q: disk.quadrant_node_table(f, n, q) for q in Quadrant}
    worst = 0.0
    for r in np.concatenate(([0.0], np.linspace(0.0, 1.0, 9)[1:])):
        for axis, (qa, qb) in disk._ADJACENT.items():
            sign = -1 if axis.endswith("-") else 1
            pt = (math.copysign(r, sign), 0.0) if axis.startswith("x") else (0.0, math.copysign(r, sign))
            worst = max(worst, abs(exact(*loop_closed_form(tables[qa], n, *pt))
                                   - exact(*loop_closed_form(tables[qb], n, *pt))))
    assert abs(disk.axis_continuity_check("stancu", f, n, samples=8) - worst) <= 2 * tol(n)


@pytest.mark.parametrize("dom, n, few", [(DISK, n, few) for n, few in SIZES]
                         + [(BENT, n, few) for n, few in SIZES[:4]],
                         ids=[f"disk-{n}" for n, _ in SIZES] + [f"bent-{n}" for n, _ in SIZES[:4]])
def test_bivariate_stancu_near_the_exact_sum_of_its_loop(dom, n, few):
    if dom is DISK:
        pts = few or disk_points()
    else:  # the same unit coordinates mapped into BENT
        pts = [(1.0 + x, dom.phi1(1.0 + x) + (y + 1.0) / 2.0 * dom.width(1.0 + x))
               for x, y in (few or disk_points())]
    for e, (x, y) in zip([1, 2, 3, 4] * 9, pts):
        f = ex.builtin(e)
        for sched in schedules(n):
            same(run(biv.stancu, f, dom, n, sched, x, y),
                 run(loop_stancu, f, dom, n, sched, x, y), n)


def parent_stancu(f, dom, n, sched, x, y):
    """bivariate.stancu as it was before it called each curve once per node
    abscissa: dom.width, then dom.phi1 again, at every x_k."""
    counts = sched.counts(n)
    if not dom.contains(x, y):
        raise ValueError(f"point ({x}, {y}) outside the domain")
    s = dom.x_interval.to_unit(x)
    xk = dom.x_interval.from_unit(np.arange(n + 1) / n)
    width, low = np.array([(dom.width(v), dom.phi1(v)) for v in xk.tolist()]).T
    return biv._scalar_values(f, ("parent_stancu", n, sched, dom), n,
                              lambda: (counts, lambda k, j, nk: (xk[k], width[k] * j / nk + low[k])),
                              s, biv._inner_t(dom, x, y))


def parent_stancu_nodes(dom, n, sched):
    """bivariate.stancu_nodes as it was before it shared stancu's node map:
    dom.width, then dom.phi1 again, at every x_k."""
    counts = sched.counts(n)
    xk = dom.x_interval.from_unit(np.arange(n + 1) / n)
    rows = []
    for k in range(n + 1):
        nk = int(counts[k])
        x = float(xk[k])
        rows.append(dom.width(x) * np.arange(nk + 1) / nk + dom.phi1(x))
    return xk, rows


def counted_domain(dom):
    """dom with curves that count their calls, the count reset after the
    domain's own validation grid."""
    calls = [0]

    def wrap(phi):
        def counted(x):
            calls[0] += 1
            return phi(x)
        return counted

    wrapped = CurvilinearDomain(dom.a, dom.b, wrap(dom.phi1), wrap(dom.phi2))
    calls[0] = 0
    return wrapped, calls


@pytest.mark.parametrize("dom", [DISK, BENT], ids=["disk", "bent"])
@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_bivariate_stancu_calls_each_curve_once_per_node_abscissa(dom, n):
    counted, calls = counted_domain(dom)
    sched = NodeSchedule.n_minus_k()
    for hit, (x, y) in enumerate([
            (dom.a + 0.3 * (dom.b - dom.a), dom.phi1(dom.a + 0.3 * (dom.b - dom.a)) + 0.1),
            ((dom.a + dom.b) / 2, dom.phi2((dom.a + dom.b) / 2))]):
        for e in (1, 3):
            calls[0] = 0
            value = biv.stancu(ex.builtin(e), counted, n, sched, x, y)
            # two in contains and three in _inner_t, and on a miss (the first
            # point) phi1 and phi2 at each x_k; the second point reuses the table
            assert calls[0] == (5 if hit else 2 * (n + 1) + 5)
            expected = parent_stancu(ex.builtin(e), dom, n, sched, x, y)
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()
    if n == 40:
        calls[0] = 0
        parent_stancu(ex.builtin(1), counted, n, sched, x, y)
        assert calls[0] == 3 * (n + 1) + 5 == 128


@pytest.mark.parametrize("dom", [DISK, BENT], ids=["disk", "bent"])
@pytest.mark.parametrize("n", [1, 2, 5, 40])
@pytest.mark.parametrize("sched", [NodeSchedule.n_minus_k(), NodeSchedule.constant(7)],
                         ids=["n-minus-k", "constant"])
def test_stancu_nodes_call_each_curve_once_per_node_abscissa(dom, n, sched):
    counted, calls = counted_domain(dom)
    nodes = biv.stancu_nodes(counted, n, sched)
    assert calls[0] == 2 * (n + 1)
    xk, rows = parent_stancu_nodes(dom, n, sched)
    assert nodes.x_nodes.tobytes() == xk.tobytes()
    assert len(nodes.y_nodes) == len(rows) == n + 1
    for row, expected in zip(nodes.y_nodes, rows):
        assert row.tobytes() == expected.tobytes()
    calls[0] = 0
    parent_stancu_nodes(counted, n, sched)
    assert calls[0] == 3 * (n + 1)


def test_check_f_values_importable_from_disk():
    assert disk.check_f_values is biv.check_f_values


# ---------------------------------------------------------------------------
# non-finite f and degrees below 1

def const(value):
    return lambda x, y: value


SCALAR_OPS = {
    "ball_stancu": lambda f, n: disk.ball_stancu(f, n, NodeSchedule.constant(3), 0.1, 0.1),
    "ball_stancu_n_minus_k": lambda f, n: disk.ball_stancu(f, n, NodeSchedule.n_minus_k(), 0.1, 0.1),
    "square_bernstein": lambda f, n: disk.square_bernstein(f, n, NodeSchedule.constant(3), 0.2, -0.4),
    "simplex_duffy": lambda f, n: disk.simplex_bernstein(f, n, NodeSchedule.constant(3), 0.2, 0.3),
    # the multinomial operator: the n-minus-k schedule, on the Duffy path like the others
    "simplex_multinomial": lambda f, n: disk.simplex_bernstein(f, n, NodeSchedule.n_minus_k(), 0.2, 0.3),
    "bivariate_stancu": lambda f, n: biv.stancu(f, DISK, n, NodeSchedule.constant(3), 0.1, 0.1),
    "piecewise_stancu_disk": lambda f, n: disk.piecewise_stancu_disk(f, n, 0.1, 0.1),
    "quadrant_stancu": lambda f, n: disk.quadrant_stancu(f, Quadrant.B1, n, 0.1, 0.1),
    "axis_continuity_check": lambda f, n: disk.axis_continuity_check("stancu", f, n, samples=4),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(SCALAR_OPS))
def test_non_finite_f_raises(name, value):
    f = const(value)
    for _ in range(2):  # a table that failed the check was not stored
        with pytest.raises(ValueError, match="is not finite"):
            SCALAR_OPS[name](f, 3)


def test_non_finite_f_message_names_the_point():
    f = lambda x, y: math.nan if y > 0.5 else 1.0
    # the first node in (k, j) order with y > 0.5 is k = 0, j = 4: 2 * 4/5 - 1
    with pytest.raises(ValueError, match=r"f\(-1\.0, 0\.6000000000000001\) = nan is not finite"):
        disk.square_bernstein(f, 4, NodeSchedule.constant(5), 0.0, 0.0)


def nan_off_row_0(x, y):
    """Finite only on the collapsed chord x = -1, row k = 0 of ball_stancu."""
    return 2.0 if x == -1.0 else math.nan


def test_scalar_and_batch_agree_on_f_off_the_weighted_rows():
    # x = -1 weights only row 0, but both forms sample the whole node table
    with pytest.raises(ValueError, match="is not finite"):
        disk.ball_stancu(nan_off_row_0, 6, NodeSchedule.constant(6), -1.0, 0.0)
    with pytest.raises(ValueError, match="is not finite"):
        ex.disk_operator("Bstancu", 6)(nan_off_row_0, [(-1.0, 0.0)])


# (operator, its loop, a point that weights only some rows, an interior point)
END_AND_INTERIOR = {
    "ball_stancu": (lambda op, f, x, y: op(f, 6, NodeSchedule.constant(3), x, y),
                    disk.ball_stancu, loop_ball, (-1.0, 0.0), (0.2, 0.1)),
    "square_bernstein": (lambda op, f, x, y: op(f, 6, NodeSchedule.k_index(), x, y),
                         disk.square_bernstein, loop_on(disk._SQUARE), (1.0, 0.3), (0.2, -0.4)),
    "simplex_bernstein": (lambda op, f, x, y: op(f, 6, NodeSchedule.n_minus_k(), x, y),
                          disk.simplex_bernstein, loop_on(disk._SIMPLEX), (0.0, 0.7), (0.2, 0.3)),
    "bivariate_stancu": (lambda op, f, x, y: op(f, DISK, 6, NodeSchedule.n_minus_k(), x, y),
                         biv.stancu, loop_stancu, (1.0, 0.0), (0.1, -0.3)),
}


@pytest.mark.parametrize("end_first", [True, False], ids=["end-first", "interior-first"])
@pytest.mark.parametrize("name", list(END_AND_INTERIOR))
def test_end_point_and_interior_point_share_one_node_table(name, end_first):
    call, op, loop, end, interior = END_AND_INTERIOR[name]
    g, calls = recording(ex.builtin(2))
    points = (end, interior) if end_first else (interior, end)
    values = [call(op, g, x, y) for x, y in points]
    # the first call samples the whole table, the second reuses it; both
    # values are near the exact sum of the loop's table, which has every row
    for (x, y), value in zip(points, values):
        same((value, calls), run(lambda f: call(loop, f, x, y), ex.builtin(2)), 6)


def test_near_rim_points_sample_each_node_table_once():
    """Near the rim the outer weights of far rows underflow to 0, at a
    different set of rows for each point; each operator still samples its
    node table once for all the points."""
    n = 200
    r = np.linspace(0.97, 0.99, 30)
    a = np.linspace(-0.1, 0.1, 30) + np.pi * (np.arange(30) % 2)  # both ends of the x axis
    pts = list(zip((r * np.cos(a)).tolist(), (r * np.sin(a)).tolist()))
    const, n_minus_k = NodeSchedule.constant(n), NodeSchedule.n_minus_k()
    g, calls = recording(ex.builtin(1))
    for x, y in pts:
        assert not basis_row(n, (x + 1.0) / 2.0).all()  # some row has no weight
        disk.ball_stancu(g, n, const, x, y)
        biv.stancu(g, DISK, n, n_minus_k, x, y)
    assert len(calls) == (n + 1) ** 2 + (n + 1) * (n + 2) // 2 + 1 == 60703


# a degree and the message it raises
BAD_DEGREES = [(0, "n must be >= 1"), (-1, "n must be >= 1"),
               (2.5, "n must be an integer, got 2.5"), (3.0, "n must be an integer, got 3.0")]


@pytest.mark.parametrize("n, message", BAD_DEGREES, ids=[str(n) for n, _ in BAD_DEGREES])
@pytest.mark.parametrize("name", list(SCALAR_OPS))
def test_degree_below_one_raises(name, n, message):
    with pytest.raises(ValueError, match=message):
        SCALAR_OPS[name](ex.builtin(1), n)
    if n == 3.0:  # a table stored for n = 3 is no hit for n = 3.0
        SCALAR_OPS[name](ex.builtin(1), 3)
        with pytest.raises(ValueError, match=message):
            SCALAR_OPS[name](ex.builtin(1), n)


@pytest.mark.parametrize("n, message", BAD_DEGREES, ids=[str(n) for n, _ in BAD_DEGREES])
def test_degree_below_one_raises_in_node_table_and_axis_check(n, message):
    with pytest.raises(ValueError, match=message):
        disk.quadrant_node_table(ex.builtin(1), n, Quadrant.B2)
    with pytest.raises(ValueError, match=message):
        disk.axis_continuity_check("stancu", ex.builtin(1), n)
    with pytest.raises(ValueError, match=message):
        NodeSchedule.constant(3).counts(n)
    with pytest.raises(ValueError, match=message):
        disk.piecewise_stancu_disk(ex.builtin(1), n, 0.3, 0.4)


# ---------------------------------------------------------------------------
# the node-table memo

@dataclass
class Unhashable:
    """A recording callable that cannot be hashed: a dataclass with the
    default eq and no frozen sets __hash__ to None."""

    f: Callable
    calls: list = field(default_factory=list)

    def __call__(self, x, y):
        self.calls.append((x, y))
        return self.f(x, y)


def bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("hashable", [True, False], ids=["hashable", "unhashable"])
@pytest.mark.parametrize("name", list(SCALAR_OPS))
def test_repeated_call_reuses_the_node_table(name, hashable):
    if hashable:
        g, calls = recording(ex.builtin(3))
    else:
        g = Unhashable(ex.builtin(3))
        calls = g.calls
    first = SCALAR_OPS[name](g, 5)
    sampled = list(calls)
    assert sampled
    assert bits(SCALAR_OPS[name](g, 5)) == bits(first)
    assert calls[len(sampled):] == ([] if hashable else sampled)


def test_a_hit_builds_no_node_map_and_no_counts(monkeypatch):
    """What only a miss needs, the row degrees and the node map, is built
    inside the miss: a hit calls none of the functions that build them."""
    calls = []

    def counted(owner, name):
        inner = getattr(owner, name)

        def call(*args):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(owner, name, call)

    for owner, name in ((biv, "_node_map"), (biv, "_row_nodes"), (NodeSchedule, "counts"),
                        (disk, "_chord_nodes"), (disk, "_quadrant_nodes")):
        counted(owner, name)
    f = ex.builtin(2)
    for op, built in ((lambda x, y: biv.stancu(f, DISK, 6, NodeSchedule.constant(4), x, y),
                       ["counts", "_row_nodes", "_node_map"]),
                      (lambda x, y: disk.ball_stancu(f, 6, NodeSchedule.constant(3), x, y),
                       ["counts", "_chord_nodes"]),
                      (lambda x, y: disk.piecewise_stancu_disk(f, 6, x, y), ["_quadrant_nodes"])):
        calls.clear()
        first = op(0.3, -0.2)
        assert calls == built
        calls.clear()
        assert bits(op(0.3, -0.2)) == bits(first) and bits(op(0.1, -0.5)) != bits(first)
        assert calls == []


@pytest.mark.parametrize("n, samples", [(3, 4), (5, 1), (40, 64)])
@pytest.mark.parametrize("hashable", [True, False], ids=["hashable", "unhashable"])
def test_axis_check_samples_each_quadrant_table_once(n, samples, hashable):
    """One table's worth of f calls per quadrant, however many points the
    check takes on each half-axis, with the values of a hashable f."""
    if hashable:
        f, calls = recording(ex.builtin(3))
    else:
        f = Unhashable(ex.builtin(3))
        calls = f.calls
    worst = disk.axis_continuity_check("stancu", f, n, samples=samples)
    assert len(calls) == 4 * (n + 1) * (n + 2) // 2
    assert bits(worst) == bits(disk.axis_continuity_check("stancu", ex.builtin(3), n, samples=samples))


def test_a_hit_builds_no_log_factorials(monkeypatch):
    """A hit takes its two basis rows from the cached _log_binomials rows."""
    f, n = ex.builtin(3), 40
    ops = [lambda x, y: disk.ball_stancu(f, n, NodeSchedule.constant(n), x, y),
           lambda x, y: biv.stancu(f, DISK, n, NodeSchedule.n_minus_k(), x, y),
           lambda x, y: disk.ball_stancu(f, n, NodeSchedule.k_index(), x, y),
           lambda x, y: disk.piecewise_stancu_disk(f, n, x, y)]
    jobs = [(op, x, y) for op in ops for x, y in disk_points()[:6]]
    before = [bits(op(x, y)) for op, x, y in jobs]
    calls = []

    def counted(m):
        calls.append(m)
        return log_factorials(m)

    log_factorials = uv.log_factorials
    monkeypatch.setattr(uv, "log_factorials", counted)
    assert [bits(op(x, y)) for op, x, y in jobs] == before
    assert calls == []


def test_memo_stays_under_its_byte_bound_and_evicts_the_oldest_table(monkeypatch):
    # a quadrant table at n = 5 holds 21 nodes in 6 rows, elevated to 6 x 6
    n, table_bytes = 5, 6 * 6 * 8
    monkeypatch.setattr(biv, "_NODE_TABLE_BYTES", 3 * table_bytes)
    fs = [recording(const(float(i))) for i in range(5)]

    def f_calls(i):
        g, calls = fs[i]
        before = len(calls)
        assert disk.quadrant_stancu(g, Quadrant.B1, n, 0.1, 0.1) == float(i)  # f's own table
        assert biv._node_table_bytes == sum(table.nbytes for _, table in biv._node_tables.values())
        assert biv._node_table_bytes <= biv._NODE_TABLE_BYTES
        return len(calls) - before

    def stored():
        return [[g for g, _ in fs].index(key[0]) for key in biv._node_tables]

    assert [f_calls(i) for i in range(4)] == [21] * 4
    assert stored() == [1, 2, 3]  # the first table went first
    assert f_calls(1) == 0  # a hit makes table 1 the most recent ...
    assert f_calls(4) == 21  # ... so table 2 goes next
    assert stored() == [3, 1, 4]
    assert f_calls(0) == 21
    assert stored() == [1, 4, 0]
    assert all(not table.flags.writeable for _, table in biv._node_tables.values())

    # a table larger than the bound is used but not stored
    monkeypatch.setattr(biv, "_NODE_TABLE_BYTES", table_bytes - 1)
    g, calls = recording(ex.builtin(2))
    values = [disk.quadrant_stancu(g, Quadrant.B2, n, -0.3, 0.4) for _ in range(2)]
    assert bits(values[0]) == bits(values[1])
    assert len(calls) == 2 * 21
    assert stored() == [1, 4, 0]


def test_threads_reading_the_memo_give_the_serial_bits(monkeypatch):
    n, f = 40, ex.builtin(4)
    ops = [lambda x, y: disk.piecewise_stancu_disk(f, n, x, y),
           lambda x, y: disk.ball_stancu(f, n, NodeSchedule.constant(n), x, y),
           lambda x, y: biv.stancu(f, DISK, n, NodeSchedule.n_minus_k(), x, y)]
    jobs = [(op, x, y) for _ in range(3) for x, y in disk_points() for op in ops]
    serial = [bits(op(x, y)) for op, x, y in jobs]
    stored = list(biv._node_tables)
    monkeypatch.setattr(biv, "_node_tables", OrderedDict())
    monkeypatch.setattr(biv, "_node_table_bytes", 0)
    # switch threads often, so that misses of one key overlap
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(op, x, y) for op, x, y in jobs]
            threaded = [bits(fut.result(timeout=60)) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert set(biv._node_tables) == set(stored)
    assert biv._node_table_bytes == sum(table.nbytes for _, table in biv._node_tables.values())


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_pointwise_scalar_ops_sample_each_node_table_once():
    """The scalar half of a benchmark pointwise pass, each built-in wrapped
    once: f is called once per node of each distinct table, not per op."""
    wl = _perfbench_workloads()
    n = wl.SCALAR_N
    const, n_minus_k = NodeSchedule.constant(n), NodeSchedule.n_minus_k()
    counted = {e: recording(ex.builtin(e)) for e in (1, 2, 3, 4)}
    rng = random.Random(41)
    quadrant_tables, examples = set(), set()
    for _ in range(wl.SCALAR_POINTS):
        x, y = wl.disk_point(rng, 0.98)
        e = rng.randint(1, 4)
        f = counted[e][0]
        disk.piecewise_stancu_disk(f, n, x, y)
        disk.ball_stancu(f, n, const, x, y)
        biv.stancu(f, wl.DISK_DOMAIN, n, n_minus_k, x, y)
        quadrant_tables.add((e, disk._quadrant_index(x, y)))
        examples.add(e)
    # 861, 1681 and 862 nodes at n = 40; the n-minus-k row k = n has n_k = 1
    quadrant_nodes = (n + 1) * (n + 2) // 2
    const_nodes, n_minus_k_nodes = (int((s.counts(n) + 1).sum()) for s in (const, n_minus_k))
    expected = (len(quadrant_tables) * quadrant_nodes
                + len(examples) * (const_nodes + n_minus_k_nodes))
    assert sum(len(calls) for _, calls in counted.values()) == expected
    assert (quadrant_nodes, const_nodes, n_minus_k_nodes) == (861, 1681, 862)


# ---------------------------------------------------------------------------
# the quadrant tie rule

def first_quadrant(x, y):
    """The scalar dispatch as it was: the first quadrant, in order, whose signs admit (x, y)."""
    return next(i for i, q in enumerate(Quadrant) if q.sx * x >= 0.0 and q.sy * y >= 0.0)


def masked_quadrants(x, y):
    """The batch rule as it was: three masks over a default of B4."""
    quad = np.full(len(x), 3)
    quad[(x <= 0) & (y < 0)] = 2
    quad[(x < 0) & (y >= 0)] = 1
    quad[(x >= 0) & (y >= 0)] = 0
    return quad


def test_one_quadrant_tie_rule_for_floats_and_arrays_with_signed_zeros():
    coords = [1.0, -1.0, 0.5, -0.5, 0.0, -0.0]
    pts = [(x, y) for x in coords for y in coords]
    expected = [first_quadrant(x, y) for x, y in pts]
    assert [disk._quadrant_index(x, y) for x, y in pts] == expected
    x, y = np.array(pts).T
    assert masked_quadrants(x, y).tolist() == expected
    assert ex._quadrant_coordinates(np.array(pts))[2].tolist() == expected
    f = ex.builtin(2)
    for (x, y), i in zip(pts, expected):
        if x * x + y * y <= 1.0:
            value = disk.piecewise_stancu_disk(f, 5, x, y)
            assert bits(value) == bits(disk.quadrant_stancu(f, disk._QUADRANTS[i], 5, x, y))


# ---------------------------------------------------------------------------
# the evaluator against 40-digit sums of its own node table

ORACLE_POINTS = [(0.0, 0.0), (0.5, 0.0), (-0.7, -0.0), (0.0, 0.6), (-0.0, -0.3), (1.0, 0.0),
                 (-1.0, 0.0), (0.0, -1.0), (0.999 * math.cos(0.3), 0.999 * math.sin(0.3)),
                 (0.9999 * math.cos(2.5), 0.9999 * math.sin(2.5)),
                 (0.995 * math.cos(4.2), 0.995 * math.sin(4.2)), (0.31, -0.62)]
# at n = 97 and 200: x = -1, where the k schedule's elevated row 0 alone
# has weight, and an interior point
LARGE_POINTS = [(-1.0, 0.0), (0.31, -0.62)]
SCHEDULES = {"constant-3": lambda n: NodeSchedule.constant(3),
             "constant-n": NodeSchedule.constant, "n-minus-k": lambda n: NodeSchedule.n_minus_k(),
             "k": lambda n: NodeSchedule.k_index()}
ORACLE_FORMS = {
    "quadrant": lambda f, n, x, y: disk.piecewise_stancu_disk(f, n, x, y),
    "chord": lambda f, n, x, y: disk.ball_stancu(f, n, NodeSchedule.constant(n), x, y),
    "stancu-n-minus-k": lambda f, n, x, y: biv.stancu(f, DISK, n, NodeSchedule.n_minus_k(), x, y),
    "stancu-k": lambda f, n, x, y: biv.stancu(f, DISK, n, NodeSchedule.k_index(), x, y),
}
for _name, _sched in SCHEDULES.items():
    # the disk points lie in the square, and (|x|/2, |y|/2) in the simplex
    ORACLE_FORMS[f"square-{_name}"] = (
        lambda f, n, x, y, sched=_sched: disk.square_bernstein(f, n, sched(n), x, y))
    ORACLE_FORMS[f"simplex-{_name}"] = (
        lambda f, n, x, y, sched=_sched: disk.simplex_bernstein(f, n, sched(n), abs(x) / 2,
                                                                abs(y) / 2))


@pytest.mark.parametrize("n", [5, 20, 40, 97, 200])
@pytest.mark.parametrize("form", list(ORACLE_FORMS))
def test_scalar_values_within_1e_13_of_a_40_digit_sum(form, n, monkeypatch):
    """Each value against the exact sum of the float node table it was taken
    from, sampled here, at the (s, t) its operator passed to the evaluator:
    within 1e-13 to n = 40, and tol(n) at n = 97 and 200."""
    seen = []

    def spy(f, key, n, nodes, s, t):
        counts, node_map = nodes()
        seen.append((counts, s, t, biv._node_values(f, counts, node_map)))
        return evaluator(f, key, n, nodes, s, t)

    evaluator = biv._scalar_values
    monkeypatch.setattr(disk, "_scalar_values", spy)
    monkeypatch.setattr(biv, "_scalar_values", spy)
    for e, (x, y) in zip([1, 2, 3, 4] * 3, ORACLE_POINTS if n <= 40 else LARGE_POINTS):
        value = ORACLE_FORMS[form](ex.builtin(e), n, x, y)
        counts, s, t, table = seen.pop()
        assert abs(value - mp_nested_sum(s, t, counts, table)) <= tol(n)


@pytest.mark.parametrize("n", [1, 5, 40, 120])
@pytest.mark.parametrize("form", list(ORACLE_FORMS))
def test_every_form_keeps_a_constant_to_the_bit(form, n):
    """The evaluator elevates and contracts each table less the point c of
    its range nearest 0, so a constant f gives c at every point, though the
    basis rows sum to 1 only to a rounding."""
    for c in (1.0, 0.7, -2.5):
        values = [ORACLE_FORMS[form](const(c), n, x, y) for x, y in ORACLE_POINTS]
        assert values == [c] * len(ORACLE_POINTS)
