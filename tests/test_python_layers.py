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
from diskbern.univariate import basis_row, basis_rows


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

    values = ex._sample(f, pts)
    expected = np.array([ex.builtin(1)(x, y) for x, y in pts]).reshape(count)
    assert values.shape == (count,)
    assert values.tobytes() == expected.tobytes()
    assert set(calls) <= {(float, float)}
    assert len(calls) == count


@pytest.mark.parametrize("q", list(Quadrant))
def test_quadrant_node_table_matches_loop(q):
    f, n = ex.builtin(3), 23
    roots = np.sqrt(np.arange(n + 1) / n)
    expected = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        for j in range(n - k + 1):
            expected[k, j] = f(q.sx * roots[k], q.sy * roots[j])
    assert quadrant_node_table(f, n, q).tobytes() == expected.tobytes()


def reference_basis_rows(n, xs):
    """The whole-expression formula, scattered through the interior mask."""
    out = np.zeros((xs.size, n + 1))
    k = np.arange(n + 1)
    logc = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    interior = (xs > 0.0) & (xs < 1.0)
    if np.any(interior):
        xi = xs[interior, None]
        out[interior] = np.exp(logc + k * np.log(xi) + (n - k) * np.log1p(-xi))
    out[xs == 0.0, 0] = 1.0
    out[xs == 1.0, n] = 1.0
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 120, 320])
def test_basis_rows_interior_matches_formula(n):
    xs = np.random.default_rng(n).random(300)
    xs[:3] = (1e-300, 0.5, 1.0 - 2.0**-53)
    assert basis_rows(n, xs).tobytes() == reference_basis_rows(n, xs).tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 120, 320])
def test_basis_rows_with_endpoints_matches_formula(n):
    xs = np.random.default_rng(n + 1).random(200)
    xs[::7] = 0.0
    xs[3::11] = 1.0
    rows = basis_rows(n, xs)
    assert rows.tobytes() == reference_basis_rows(n, xs).tobytes()
    for xs in (np.array([]), np.array([0.0]), np.array([1.0]), np.array([1.0, 0.0])):
        assert basis_rows(n, xs).tobytes() == reference_basis_rows(n, xs).tobytes()
        assert basis_rows(n, xs).shape == (xs.size, n + 1)


def reference_ball_stancu(f, n, m, x, y):
    """ball_stancu with the constant schedule m, rebuilding the inner row at
    every k."""
    px = basis_row(n, (min(max(x, -1.0), 1.0) + 1.0) / 2.0)
    half_width = math.sqrt(max(1.0 - x * x, 0.0))
    t = (y / half_width + 1.0) / 2.0 if half_width > 1e-12 else 0.5
    t = min(max(t, 0.0), 1.0)
    total = 0.0
    for k in range(n + 1):
        if px[k] == 0.0:
            continue
        yscale = 2.0 * math.sqrt(k * (n - k)) / n
        fvals = np.array([f((2 * k - n) / n, (2 * j - m) / m * yscale) for j in range(m + 1)])
        total += px[k] * float(basis_row(m, t) @ fvals)
    return total


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
    monkeypatch.setattr(disk, "basis_row", counting_row)
    monkeypatch.setattr(biv, "_row_triangle", counting_triangle)
    ball_stancu(ex.builtin(1), 20, NodeSchedule.constant(20), 0.3, 0.4)
    assert degrees == [20]  # the outer row
    assert inner == [[20]]  # one shared inner row
