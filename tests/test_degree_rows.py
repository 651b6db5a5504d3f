"""The per-degree basis rows of the quadrant (Cbar) row kernel, checked bit
for bit: the row generator against basis_rows at every degree, and the
kernel, which RMSE cells (a MeshSpec) reach, against the per-k basis_rows
loop it replaced, at several thread counts. Off a mesh the tensor kernel
stays within a bound of the per-k loop. Also malformed input to both row
builders, and the memory of one row.
"""

import math
import tracemalloc

import numpy as np
import pytest

from diskbern import experiments as ex
from diskbern.disk import quadrant_node_table
from diskbern.univariate import _EPS, _degree_rows, basis_rows

EDGES = [0.0, 1.0, 1e-300, 5e-13, -5e-13, 1.0 - 5e-13, 1.0 + 5e-13, 0.5, 1e-17, 1.0 - 1e-16]


def row_inputs():
    rng = np.random.default_rng(17)
    return {
        "interior": rng.random(300),
        "edges": np.array(EDGES),
        "mixed": np.concatenate((rng.random(40), EDGES, rng.random(25), EDGES[::-1])),
        "empty": np.zeros(0),
        "zero": np.array([0.0]),
        "one": np.array([1.0]),
    }


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 120, 320])
@pytest.mark.parametrize("name", list(row_inputs()))
def test_degree_rows_bit_equal_to_basis_rows(n, name):
    xs = row_inputs()[name]
    degrees = []
    for m, rows in zip(range(n, -1, -1), _degree_rows(n, xs)):
        expected = basis_rows(m, xs)
        assert rows.shape == expected.shape
        assert rows.flags.c_contiguous
        assert rows.tobytes() == expected.tobytes()
        degrees.append(m)
    assert degrees == list(range(n, -1, -1))


@pytest.mark.parametrize("bad", [-0.1, 1.1, 1.0 + 1e-11, -1e-11])
def test_arguments_outside_the_unit_interval_raise(bad):
    for xs in (np.array([0.5, bad]), np.array([bad])):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            basis_rows(3, xs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_raise(bad):
    xs = np.array([bad, 0.5])
    with pytest.raises(ValueError, match="finite"):
        basis_rows(3, xs)
    with pytest.raises(ValueError, match="finite"):
        next(_degree_rows(3, xs))
    with pytest.raises(ValueError, match="finite"):
        basis_rows(3, xs[::-1])
    with pytest.raises(ValueError, match="1-D"):
        basis_rows(3, [[0.1, 0.2, 0.3, 0.4]])
    with pytest.raises(ValueError, match="1-D"):
        basis_rows(3, 0.5)


def test_basis_rows_peak_memory():
    """The one row of basis_rows is built in place: no third row-sized array,
    also when xs holds the endpoints."""
    xs = np.concatenate(([0.0, 1.0], np.random.default_rng(3).random(510)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = basis_rows(320, xs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * rows.nbytes


def per_k_piecewise_batch(f, n, pts, threads=None):
    """The quadrant batch kernel with one basis_rows call per inner degree,
    as it was before the rows came from one generator."""
    x, y = pts[:, 0], pts[:, 1]
    u = np.clip(x * x, 0.0, 1.0)
    rest = 1.0 - u
    t = np.where(rest > _EPS, (y * y) / np.where(rest > _EPS, rest, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    quad = np.full(len(pts), 3)
    quad[(x <= 0) & (y < 0)] = 2
    quad[(x < 0) & (y >= 0)] = 1
    quad[(x >= 0) & (y >= 0)] = 0
    tables = [quadrant_node_table(f, n, q) if np.any(quad == i) else None
              for i, q in enumerate(ex._QUADRANTS)]

    def evaluate(g):
        pu = basis_rows(n, g.u).T.copy()
        gq = quad[g.points]
        members = []
        for i, tab in enumerate(tables):
            sel = np.nonzero(gq == i)[0]
            if sel.size:
                members.append((tab, sel, g.ui[sel], g.ti[sel], np.zeros(sel.size)))
        for k in range(n + 1):
            rows = basis_rows(n - k, g.t)
            for tab, _, ui, ti, acc in members:
                acc += pu[k, ui] * (rows @ tab[k, : n - k + 1])[ti]
        values = np.empty(g.points.size)
        for _, sel, _, _, acc in members:
            values[sel] = acc
        return values

    return ex._evaluate_groups(evaluate, ex._groups(u, t), len(pts), threads)


def assert_kernel_matches_per_k_loop(f, n, pts):
    """The row kernel, reached through a MeshSpec over the points."""
    expected = per_k_piecewise_batch(f, n, pts).tobytes()
    cell = ex.MeshSpec("quadrant", n, False, pts)
    for threads in (1, 2, 7):
        assert ex.disk_operator("Cbar", n)(f, cell, threads=threads).tobytes() == expected


def tensor_bound(n):
    """Bound on |tensor kernel - row kernel|: measured at most 3.3e-14 at
    n = 40, 1.1e-13 at n = 120, 2.2e-13 at n = 160 and 1.7e-13 at n = 400
    (sections, random, axis and rim points, examples 1-4)."""
    return 2e-15 * n


@pytest.mark.parametrize("n", list(range(1, 46)) + [80, 120])
def test_kernel_bit_equal_to_per_k_loop_on_quadrant_meshes(n):
    f = ex.builtin(1 + n % 4)
    assert_kernel_matches_per_k_loop(f, n, ex.mesh_quadrant_disk(n, dedup=n % 2 == 0).points)


def test_kernel_bit_equal_to_per_k_loop_on_random_axis_and_rim_points():
    rng = np.random.default_rng(5)
    count = 1500
    r, a = np.sqrt(rng.random(count)), rng.uniform(0.0, 2.0 * np.pi, count)
    s = np.linspace(-1.0, 1.0, 201)
    pts = np.vstack((np.column_stack((r * np.cos(a), r * np.sin(a))),
                     np.column_stack((s, np.zeros_like(s))),
                     np.column_stack((np.zeros_like(s), s)),
                     np.column_stack((np.cos(a[:300]), np.sin(a[:300])))))
    assert len(np.unique(pts[:, 1])) > 2 * ex._ROWS  # several groups
    for n in (7, 40):
        assert_kernel_matches_per_k_loop(ex.builtin(2), n, pts)


@pytest.mark.parametrize("segment", [((-1.0, 0.0), (1.0, 0.0)), ((0.0, -1.0), (0.0, 1.0)),
                                     ((-0.6, -0.8), (0.8, 0.6))])
def test_cross_sections_within_the_bound_of_the_per_k_loop(segment):
    f, n_list, samples = ex.builtin(4), (10, 40), 801
    (x0, y0), (x1, y1) = segment
    s = np.linspace(0.0, 1.0, samples)
    pts = np.column_stack((x0 + s * (x1 - x0), y0 + s * (y1 - y0)))
    expected = np.array([per_k_piecewise_batch(f, n, pts) for n in n_list])
    first = None
    for threads in (1, 2, 7):
        rows = ex.cross_section("Cbar", f, n_list, segment, samples, threads=threads)
        values = np.array(list(zip(*rows))[4:])
        first = values.tobytes() if first is None else first
        assert values.tobytes() == first
        for n, got, want in zip(n_list, values, expected):
            assert np.abs(got - want).max() <= tensor_bound(n)


def test_tensor_kernel_within_the_bound_of_the_per_k_loop_on_random_axis_and_rim_points():
    rng = np.random.default_rng(6)
    r, a = np.sqrt(rng.random(600)), rng.uniform(0.0, 2.0 * np.pi, 600)
    s = np.linspace(-1.0, 1.0, 81)
    pts = np.vstack((np.column_stack((r * np.cos(a), r * np.sin(a))),
                     np.column_stack((s, np.zeros_like(s))), np.column_stack((np.zeros_like(s), s)),
                     np.column_stack((np.cos(a[:100]), np.sin(a[:100]))), [(0.0, 0.0)]))
    for n, e in ((3, 1), (40, 3), (120, 2)):
        f = ex.builtin(e)
        got = ex.disk_operator("Cbar", n)(f, pts)
        assert np.abs(got - per_k_piecewise_batch(f, n, pts)).max() <= tensor_bound(n)
