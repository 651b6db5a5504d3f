"""The scalar nested-Bernstein evaluator, checked bit for bit: the row
triangle against basis_row at every degree, and each scalar operator against
the per-k basis_row loop it replaced (kept here as the reference), with the
same calls of f in the same order. Also non-finite f and degrees below 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex
from diskbern.bivariate import CurvilinearDomain, NodeSchedule
from diskbern.disk import Quadrant
from diskbern.univariate import _row_triangle, basis_row

# The n-minus-k and k schedules warn that they substitute n_k = 1 for 0.
pytestmark = pytest.mark.filterwarnings("ignore:schedule .* yields n_k=0")

EDGE_T = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 5e-324, 0.5, 1e-17, 1.0 - 5e-13]


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


def schedules(n):
    return [NodeSchedule.constant(3), NodeSchedule.constant(n), NodeSchedule.n_minus_k(),
            NodeSchedule.k_index()]


def recording(f):
    calls = []

    def g(x, y):
        calls.append((x, y))
        return f(x, y)

    return g, calls


# The per-k loops the evaluator replaced, as they were.

def loop_square(f, n, sched, x, y):
    counts = sched.counts(n)
    px = basis_row(n, (min(max(x, -1.0), 1.0) + 1.0) / 2.0)
    ty = (min(max(y, -1.0), 1.0) + 1.0) / 2.0
    total = 0.0
    for k in range(n + 1):
        if px[k] == 0.0:
            continue
        nk = int(counts[k])
        fvals = np.array([f((2 * k - n) / n, (2 * j - nk) / nk) for j in range(nk + 1)])
        total += px[k] * float(basis_row(nk, ty) @ fvals)
    return total


def loop_simplex(f, n, sched, x, y):
    x, y = max(x, 0.0), max(y, 0.0)
    counts = sched.counts(n)
    px = basis_row(n, min(x, 1.0))
    t = y / (1.0 - x) if 1.0 - x > 1e-12 else 0.0
    t = min(max(t, 0.0), 1.0)
    total = 0.0
    for k in range(n + 1):
        if px[k] == 0.0:
            continue
        nk = int(counts[k])
        fvals = np.array([f(k / n, (j / nk) * (1.0 - k / n)) for j in range(nk + 1)])
        total += px[k] * float(basis_row(nk, t) @ fvals)
    return total


def loop_ball(f, n, sched, x, y):
    counts = sched.counts(n)
    px = basis_row(n, (min(max(x, -1.0), 1.0) + 1.0) / 2.0)
    half_width = math.sqrt(max(1.0 - x * x, 0.0))
    t = (y / half_width + 1.0) / 2.0 if half_width > 1e-12 else 0.5
    t = min(max(t, 0.0), 1.0)
    total = 0.0
    for k in range(n + 1):
        if px[k] == 0.0:
            continue
        nk = int(counts[k])
        yscale = 2.0 * math.sqrt(k * (n - k)) / n
        fvals = np.array([f((2 * k - n) / n, (2 * j - nk) / nk * yscale) for j in range(nk + 1)])
        total += px[k] * float(basis_row(nk, t) @ fvals)
    return total


def loop_closed_form(table, n, x, y):
    u = min(x * x, 1.0)
    pu = basis_row(n, u)
    t = (y * y) / (1.0 - u) if 1.0 - u > 1e-12 else 0.0
    t = min(max(t, 0.0), 1.0)
    total = 0.0
    for k in range(n + 1):
        if pu[k] == 0.0:
            continue
        total += pu[k] * float(basis_row(n - k, t) @ table[k, : n - k + 1])
    return total


def loop_stancu(f, dom, n, sched, x, y):
    """bivariate.stancu as it was: f at every row's nodes, zero weights too."""
    counts = sched.counts(n)
    outer = basis_row(n, dom.x_interval.to_unit(x))
    t = biv._inner_t(dom, x, y)
    fnodes = []
    for k in range(n + 1):
        xk = dom.x_interval.from_unit(k / n)
        nk = int(counts[k])
        ys = dom.width(xk) * np.arange(nk + 1) / nk + dom.phi1(xk)
        fnodes.append(np.array([f(xk, v) for v in ys.tolist()]))
    total = 0.0
    for k in range(n + 1):
        if outer[k] == 0.0:
            continue
        total += outer[k] * float(basis_row(int(counts[k]), t) @ fnodes[k])
    return total


def same(new, old):
    """Bitwise equal values and identical calls of f."""
    (value, calls), (expected, expected_calls) = new, old
    assert np.float64(value).tobytes() == np.float64(expected).tobytes()
    assert calls == expected_calls


def run(op, f, *args):
    g, calls = recording(f)
    return op(g, *args), calls


# ---------------------------------------------------------------------------
# the triangle

@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 120, 320])
@pytest.mark.parametrize("t", EDGE_T + [0.1234, 0.87])
def test_triangle_rows_bit_equal_to_basis_row(n, t):
    rows = _row_triangle(list(range(n + 1)), t)
    assert rows.shape == (n + 1, n + 1)
    for m in range(n + 1):
        assert rows[m, : m + 1].tobytes() == basis_row(m, t).tobytes()
        assert not rows[m, m + 1:].any()


def test_triangle_builds_only_the_given_degrees():
    rows = _row_triangle([3, 17, 40], 0.3)
    assert rows.shape == (3, 41)
    for r, m in zip(rows, (3, 17, 40)):
        assert r[: m + 1].tobytes() == basis_row(m, 0.3).tobytes()
        assert not r[m + 1:].any()


def test_triangle_rejects_t_outside_unit_interval():
    with pytest.raises(ValueError):
        _row_triangle([3], 1.5)
    with pytest.raises(ValueError):
        _row_triangle([3], -0.1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 120),
       t=st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 1e-16]),
                   st.floats(0.0, 1.0, allow_nan=False)))
def test_triangle_property(n, t):
    rows = _row_triangle(list(range(n + 1)), t)
    for m in range(n + 1):
        assert rows[m, : m + 1].tobytes() == basis_row(m, t).tobytes()
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12


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
def test_ball_stancu_bit_equal_to_loop(n, few):
    for e, (x, y) in zip([1, 2, 3, 4] * 9, few or disk_points()):
        f = ex.builtin(e)
        for sched in schedules(n):
            same(run(disk.ball_stancu, f, n, sched, x, y),
                 run(loop_ball, f, n, sched, x, y))


@pytest.mark.parametrize("n, few", SIZES)
def test_square_bernstein_bit_equal_to_loop(n, few):
    for e, (x, y) in zip([1, 2, 3, 4] * 9, few or square_points()):
        f = ex.builtin(e)
        for sched in schedules(n):
            same(run(disk.square_bernstein, f, n, sched, x, y),
                 run(loop_square, f, n, sched, x, y))


@pytest.mark.parametrize("n, few", SIZES)
def test_simplex_duffy_bit_equal_to_loop(n, few):
    pts = [(abs(x) / 2, abs(y) / 2) for x, y in few] if few else simplex_points()
    for e, (x, y) in zip([1, 2, 3, 4] * 9, pts):
        f = ex.builtin(e)
        for sched in (NodeSchedule.constant(3), NodeSchedule.constant(n), NodeSchedule.k_index()):
            same(run(disk.simplex_bernstein, f, n, sched, x, y),
                 run(loop_simplex, f, n, sched, x, y))


@pytest.mark.parametrize("n, few", SIZES)
def test_piecewise_stancu_disk_bit_equal_to_loop(n, few):
    for e, (x, y) in zip([1, 2, 3, 4] * 9, few or disk_points()):
        f = ex.builtin(e)
        q = disk._dispatch_quadrant(x, y)

        def loop(g, n, x, y):
            return loop_closed_form(disk.quadrant_node_table(g, n, q), n, x, y)

        same(run(disk.piecewise_stancu_disk, f, n, x, y), run(loop, f, n, x, y))
        same(run(disk.quadrant_stancu, f, q, n, x, y), run(loop, f, n, x, y))


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_axis_continuity_check_bit_equal_to_loop(n):
    f = ex.builtin(4)
    tables = {q: disk.quadrant_node_table(f, n, q) for q in Quadrant}
    worst = 0.0
    for r in np.concatenate(([0.0], np.linspace(0.0, 1.0, 9)[1:])):
        for axis, (qa, qb) in disk._ADJACENT.items():
            sign = -1 if axis.endswith("-") else 1
            pt = (math.copysign(r, sign), 0.0) if axis.startswith("x") else (0.0, math.copysign(r, sign))
            worst = max(worst, abs(loop_closed_form(tables[qa], n, *pt)
                                   - loop_closed_form(tables[qb], n, *pt)))
    assert disk.axis_continuity_check("stancu", f, n, samples=8) == worst


@pytest.mark.parametrize("dom, n, few", [(DISK, n, few) for n, few in SIZES]
                         + [(BENT, n, few) for n, few in SIZES[:4]],
                         ids=[f"disk-{n}" for n, _ in SIZES] + [f"bent-{n}" for n, _ in SIZES[:4]])
def test_bivariate_stancu_bit_equal_to_loop(dom, n, few):
    if dom is DISK:
        pts = few or disk_points()
    else:  # the same unit coordinates mapped into BENT
        pts = [(1.0 + x, dom.phi1(1.0 + x) + (y + 1.0) / 2.0 * dom.width(1.0 + x))
               for x, y in (few or disk_points())]
    for e, (x, y) in zip([1, 2, 3, 4] * 9, pts):
        f = ex.builtin(e)
        for sched in schedules(n):
            value, calls = run(biv.stancu, f, dom, n, sched, x, y)
            expected, all_calls = run(loop_stancu, f, dom, n, sched, x, y)
            # rows with zero outer weight (x = a or b) are no longer sampled
            outer = basis_row(n, dom.x_interval.to_unit(x))
            live_x = {dom.x_interval.from_unit(k / n) for k in np.flatnonzero(outer).tolist()}
            same((value, calls), (expected, [c for c in all_calls if c[0] in live_x]))
            if 0.0 < dom.x_interval.to_unit(x) < 1.0:
                assert calls == all_calls


def test_bivariate_stancu_skips_rows_without_weight():
    g, calls = recording(ex.builtin(1))
    biv.stancu(g, DISK, 10, NodeSchedule.constant(4), -1.0, 0.0)
    assert calls == [(-1.0, 0.0)] * 5  # only row k = 0, whose chord has collapsed


def parent_stancu(f, dom, n, sched, x, y):
    """bivariate.stancu as it was before it called each curve once per node
    abscissa: dom.width, then dom.phi1 again, at every x_k."""
    counts = sched.counts(n)
    if not dom.contains(x, y):
        raise ValueError(f"point ({x}, {y}) outside the domain")
    outer = basis_row(n, dom.x_interval.to_unit(x))
    xk = dom.x_interval.from_unit(np.arange(n + 1) / n)
    width, low = np.array([(dom.width(v), dom.phi1(v)) for v in xk.tolist()]).T
    table = biv._sample_rows(f, outer, counts, lambda k, j, nk: (xk[k], width[k] * j / nk + low[k]))
    return biv._nested_sum(outer, biv._inner_t(dom, x, y), counts, table)


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
    for x, y in [(dom.a + 0.3 * (dom.b - dom.a), dom.phi1(dom.a + 0.3 * (dom.b - dom.a)) + 0.1),
                 ((dom.a + dom.b) / 2, dom.phi2((dom.a + dom.b) / 2))]:
        for e in (1, 3):
            calls[0] = 0
            value = biv.stancu(ex.builtin(e), counted, n, sched, x, y)
            # phi1 and phi2 at each x_k, two in contains and three in _inner_t
            assert calls[0] == 2 * (n + 1) + 5
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
    "simplex_multinomial": lambda f, n: disk.simplex_bernstein(f, n, NodeSchedule.n_minus_k(), 0.2, 0.3),
    "bivariate_stancu": lambda f, n: biv.stancu(f, DISK, n, NodeSchedule.constant(3), 0.1, 0.1),
    "piecewise_stancu_disk": lambda f, n: disk.piecewise_stancu_disk(f, n, 0.1, 0.1),
    "quadrant_stancu": lambda f, n: disk.quadrant_stancu(f, Quadrant.B1, n, 0.1, 0.1),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(SCALAR_OPS))
def test_non_finite_f_raises(name, value):
    with pytest.raises(ValueError, match="is not finite"):
        SCALAR_OPS[name](const(value), 3)


def test_non_finite_f_message_names_the_point():
    f = lambda x, y: math.nan if y > 0.5 else 1.0
    # the first node in (k, j) order with y > 0.5 is k = 0, j = 4
    with pytest.raises(ValueError, match=r"f\(-1\.0, 0\.6\) = nan is not finite"):
        disk.square_bernstein(f, 4, NodeSchedule.constant(5), 0.0, 0.0)


def test_f_at_a_node_without_weight_is_not_called():
    # x = -1 gives the outer row weight only at k = 0, so a NaN elsewhere is never seen
    f = lambda x, y: 2.0 if x == -1.0 else math.nan
    assert disk.ball_stancu(f, 6, NodeSchedule.constant(3), -1.0, 0.0) == 2.0
    assert math.isfinite(disk.square_bernstein(f, 6, NodeSchedule.constant(3), -1.0, 0.3))


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", list(SCALAR_OPS))
def test_degree_below_one_raises(name, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        SCALAR_OPS[name](ex.builtin(1), n)


@pytest.mark.parametrize("n", [0, -1])
def test_degree_below_one_raises_in_node_table_and_axis_check(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        disk.quadrant_node_table(ex.builtin(1), n, Quadrant.B2)
    with pytest.raises(ValueError, match="n must be >= 1"):
        disk.axis_continuity_check("stancu", ex.builtin(1), n)
    with pytest.raises(ValueError, match="n must be >= 1"):
        NodeSchedule.constant(3).counts(n)
