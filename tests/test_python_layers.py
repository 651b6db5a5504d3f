"""The per-point and per-node layers around the batch kernels, checked bit
for bit against the plain loops they replaced: mesh builders, f sampling,
node tables, basis rows and the scalar operators' shared inner rows.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex
from diskbern.bivariate import NodeSchedule
from diskbern.disk import Quadrant, ball_stancu, quadrant_node_table
from diskbern.univariate import basis_classical, basis_row, basis_rows


def loop_mesh_stancu(n):
    pts, labels = [], []
    for k in range(n + 1):
        x = (2 * k - n) / n
        r = 2.0 * math.sqrt(k * (n - k))
        for j in range(n + 1):
            pts.append((x, r * (n - 2 * j) / n**2))
            labels.append((k, j))
    return np.array(pts), tuple(labels), (n + 1) ** 2


def loop_mesh_quadrant(n, dedup):
    roots = [math.sqrt(k / n) for k in range(n + 1)]
    pts, labels, seen = [], [], set()
    for q in (Quadrant.B1, Quadrant.B2, Quadrant.B3, Quadrant.B4):
        sx, sy = q.value
        for k in range(n + 1):
            for j in range(n - k + 1):
                p = (sx * roots[k] + 0.0, sy * roots[j] + 0.0)
                if dedup:
                    if p in seen:
                        continue
                    seen.add(p)
                pts.append(p)
                labels.append((q.name, k, j))
    return np.array(pts), tuple(labels), 2 * n * (n + 1)


def assert_same_mesh(mesh, reference):
    pts, labels, nominal = reference
    assert mesh.points.shape == pts.shape
    assert mesh.points.tobytes() == pts.tobytes()
    assert np.array_equal(np.signbit(mesh.points), np.signbit(pts))
    assert mesh.labels == labels
    assert mesh.nominal_size == nominal


MESH_N = list(range(1, 41)) + [57]


@pytest.mark.parametrize("n", MESH_N)
def test_stancu_mesh_matches_loop(n):
    assert_same_mesh(ex.mesh_stancu_disk(n), loop_mesh_stancu(n))


@pytest.mark.parametrize("dedup", [True, False])
@pytest.mark.parametrize("n", MESH_N)
def test_quadrant_mesh_matches_loop(n, dedup):
    mesh = ex.mesh_quadrant_disk(n, dedup=dedup)
    assert mesh.dedup is dedup
    assert_same_mesh(mesh, loop_mesh_quadrant(n, dedup))


@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1025])
def test_sample_matches_per_point_calls(count):
    rng = np.random.default_rng(count)
    pts = rng.uniform(-0.7, 0.7, (count, 2))
    calls = []

    def f(x, y):
        calls.append((type(x), type(y)))
        return ex.builtin(1)(x, y)

    values = biv._sample_points(f, pts)
    expected = np.array([ex.builtin(1)(x, y) for x, y in pts]).reshape(count)
    assert values.shape == (count,)
    assert values.tobytes() == expected.tobytes()
    assert set(calls) <= {(float, float)}
    assert len(calls) == count


def recorded(f):
    """f, recording each call's (x, y) and checking that both are Python floats."""
    calls = []

    def g(x, y):
        assert type(x) is float and type(y) is float
        calls.append((x, y))
        return f(x, y)

    return g, calls


def same_calls(calls, expected):
    """The same (x, y) in the same order, with the same bits, signs of zero included."""
    assert len(calls) == len(expected)
    assert np.array(calls).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("q", list(Quadrant))
def test_quadrant_node_table_matches_loop(q):
    f, n = ex.builtin(3), 23
    roots = np.sqrt(np.arange(n + 1) / n).tolist()
    expected, loop_calls = np.zeros((n + 1, n + 1)), []
    for k in range(n + 1):
        for j in range(n - k + 1):
            loop_calls.append((q.sx * roots[k], q.sy * roots[j]))
            expected[k, j] = f(*loop_calls[-1])
    g, calls = recorded(f)
    assert quadrant_node_table(g, n, q).tobytes() == expected.tobytes()
    same_calls(calls, loop_calls)  # once per node, in order of k, then j


@pytest.mark.parametrize("n", [1, 2, 23])
def test_chord_node_table_matches_loop(n):
    """The Bstancu kernel's table against a per-row reference loop, call for call."""
    f = ex.builtin(1)
    xk = ((2 * np.arange(n + 1) - n) / n).tolist()
    yscale = (2.0 * np.sqrt(np.arange(n + 1) * (n - np.arange(n + 1))) / n).tolist()
    loop_calls = [(xk[k], jf * yscale[k]) for k in range(n + 1) for jf in xk]
    expected = np.array([f(x, y) for x, y in loop_calls]).reshape(n + 1, n + 1)
    g, calls = recorded(f)
    table = biv._node_values(g, np.full(n + 1, n), disk._chord_nodes(n))
    assert table.tobytes() == expected.tobytes()
    same_calls(calls, loop_calls)
    calls.clear()
    ex.disk_operator("Bstancu", n)(g, [(0.1, 0.2), (-0.5, 0.0), (1.0, 0.0)])
    same_calls(calls, loop_calls)


def test_scalar_node_table_matches_loop():
    """_scalar_values: f at the nodes of every row, call for call, kept in
    the memo under (f, *key) with the degree of each row, and a repeated
    key makes no call."""
    f, n = ex.builtin(2), 6
    counts = np.array([3, 1, 4, 1, 5, 9, 2])
    loop_calls, expected = [], np.zeros((n + 1, 10))
    for k in range(n + 1):
        nk = int(counts[k])
        for j in range(nk + 1):
            loop_calls.append((k / n, (j / nk) * (1.0 - k / n)))
            expected[k, j] = f(*loop_calls[-1])
    g, calls = recorded(f)
    nodes = lambda k, j, nk: (k / n, (j / nk) * (1.0 - k / n))  # the Duffy simplex nodes
    for _ in range(2):
        biv._scalar_values(g, ("test", n), n, lambda: (counts, nodes), 0.3, 0.4)
        table, degrees = biv._node_tables[g, "test", n]
        assert table.tobytes() == expected.tobytes()
        assert degrees.tolist() == counts.tolist()
        same_calls(calls, loop_calls)


def reference_basis_rows(n, xs, log=np.log, log1p=np.log1p):
    """The whole-expression formula, scattered through the interior mask."""
    out = np.zeros((xs.size, n + 1))
    k = np.arange(n + 1)
    logc = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    interior = (xs > 0.0) & (xs < 1.0)
    if np.any(interior):
        xi = xs[interior, None]
        out[interior] = np.exp(logc + k * log(xi) + (n - k) * log1p(-xi))
    out[xs == 0.0, 0] = 1.0
    out[xs == 1.0, n] = 1.0
    return out


def assert_scalar_rows_match_formula(n, xs):
    """basis_row bit for bit against the formula with the logs of one x taken
    by math.log and math.log1p, as the scalar rows take them; basis_classical
    within 1 ulp of each entry's sum exponentiated by math.exp (numpy's exp
    and math.exp differ by up to 1 ulp), at the first 12 x only, since it
    builds a whole row per entry."""
    expected = reference_basis_rows(n, xs, np.vectorize(math.log), np.vectorize(math.log1p))
    for x, row in zip(xs.tolist(), expected):
        assert basis_row(n, x).tobytes() == row.tobytes()
    k = np.arange(n + 1)
    logc = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)).tolist()
    for x, row in zip(xs[:12].tolist(), expected):
        if 0.0 < x < 1.0:
            row = [math.exp(c + i * math.log(x) + (n - i) * math.log1p(-x)) for i, c in enumerate(logc)]
        classical = [basis_classical(n, i, x) for i in range(n + 1)]
        np.testing.assert_array_max_ulp(np.array(classical), np.array(row), maxulp=1)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 120, 320])
def test_basis_rows_interior_matches_formula(n):
    xs = np.random.default_rng(n).random(300)
    xs[:3] = (1e-300, 0.5, 1.0 - 2.0**-53)
    assert basis_rows(n, xs).tobytes() == reference_basis_rows(n, xs).tobytes()
    assert_scalar_rows_match_formula(n, xs)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 120, 320])
def test_basis_rows_with_endpoints_matches_formula(n):
    xs = np.random.default_rng(n + 1).random(200)
    xs[::7] = 0.0
    xs[3::11] = 1.0
    rows = basis_rows(n, xs)
    assert rows.tobytes() == reference_basis_rows(n, xs).tobytes()
    assert_scalar_rows_match_formula(n, xs)
    for xs in (np.array([]), np.array([0.0]), np.array([1.0]), np.array([1.0, 0.0])):
        assert basis_rows(n, xs).tobytes() == reference_basis_rows(n, xs).tobytes()
        assert basis_rows(n, xs).shape == (xs.size, n + 1)


def reference_ball_stancu(f, n, m, x, y):
    """ball_stancu with the constant schedule m, sampling the node table row
    by row and contracting it with the one inner row as the evaluator does:
    p^n(s) @ (F * p^m(t)).sum(1)."""
    px = basis_row(n, (min(max(x, -1.0), 1.0) + 1.0) / 2.0)
    half_width = math.sqrt(max(1.0 - x * x, 0.0))
    t = (y / half_width + 1.0) / 2.0 if half_width > 1e-12 else 0.5
    t = min(max(t, 0.0), 1.0)
    table = np.array([[f((2 * k - n) / n, (2 * j - m) / m * (2.0 * math.sqrt(k * (n - k)) / n))
                       for j in range(m + 1)] for k in range(n + 1)])
    return float(px.dot((table * basis_row(m, t)).sum(1)))


@pytest.mark.parametrize("n, m", [(1, 1), (7, 7), (40, 40), (12, 5)])
def test_ball_stancu_shared_inner_row_is_bit_identical(n, m):
    sched = NodeSchedule.constant(m)
    for e in (1, 2, 3, 4):
        f = ex.builtin(e)
        for x, y in [(0.0, 0.0), (0.3, -0.2), (-0.7, 0.5), (1.0, 0.0), (-0.2, -0.97)]:
            assert ball_stancu(f, n, sched, x, y) == reference_ball_stancu(f, n, m, x, y)


def test_ball_stancu_builds_one_inner_row_per_degree(monkeypatch):
    degrees, inner = [], []

    def counting_row(n, x):
        degrees.append(n)
        return basis_row(n, x)

    def counting_triangle(ms, t):
        inner.append(list(ms))
        return triangle(ms, t)

    triangle = biv._row_triangle
    monkeypatch.setattr(biv, "basis_row", counting_row)
    monkeypatch.setattr(biv, "_row_triangle", counting_triangle)
    ball_stancu(ex.builtin(1), 20, NodeSchedule.constant(20), 0.3, 0.4)
    ball_stancu(ex.builtin(1), 20, NodeSchedule.constant(20), 0.5, 0.1)
    assert degrees == [20, 20]  # the outer rows, on a miss and a hit
    assert inner == [[20], [20]]  # one shared inner row each
