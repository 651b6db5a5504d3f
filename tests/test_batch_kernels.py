"""Batch kernels that share basis rows between points with equal collapsed
coordinates: agreement with the scalar oracles on whole meshes, invariance
under reordering and repetition of the points, and identical outputs for
any thread count when the work spans several row chunks.
"""

import numpy as np
import pytest

from diskbern import experiments as ex
from diskbern.bivariate import NodeSchedule
from diskbern.disk import ball_stancu, piecewise_stancu_disk


def random_disk_points(count, seed):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random(count))
    a = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.column_stack((r * np.cos(a), r * np.sin(a)))


def test_cbar_on_quadrant_mesh_matches_scalar_oracle():
    f, n = ex.builtin(1), 30
    pts = ex.mesh_quadrant_disk(n).points
    batch = ex.disk_operator("Cbar", n)(f, pts)
    scalar = np.array([piecewise_stancu_disk(f, n, x, y) for x, y in pts])
    np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)


def test_bstancu_on_chord_mesh_matches_scalar_oracle():
    f, n = ex.builtin(3), 40
    sched = NodeSchedule.constant(n)
    pts = ex.mesh_stancu_disk(n).points
    batch = ex.disk_operator("Bstancu", n)(f, pts)
    scalar = np.array([ball_stancu(f, n, sched, x, y) for x, y in pts])
    np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, n, mesh", [
    ("Cbar", 25, ex.mesh_quadrant_disk(25)),
    ("Bstancu", 25, ex.mesh_stancu_disk(25)),
])
def test_permuting_or_repeating_points_keeps_values(kind, n, mesh):
    f = ex.builtin(2)
    op = ex.disk_operator(kind, n)
    pts = np.vstack((mesh.points, random_disk_points(300, 7)))
    base = op(f, pts)
    perm = np.random.default_rng(11).permutation(len(pts))
    np.testing.assert_allclose(op(f, pts[perm]), base[perm], rtol=0, atol=1e-14)
    rep = np.concatenate((perm[:50], perm, perm[::3]))
    np.testing.assert_allclose(op(f, pts[rep]), base[rep], rtol=0, atol=1e-14)
    for i in perm[:5]:
        np.testing.assert_allclose(op(f, pts[i : i + 1]), base[i : i + 1], rtol=0, atol=1e-14)


def axis_points(count):
    return np.column_stack((np.linspace(-1.0, 1.0, count), np.zeros(count)))


@pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
def test_thread_count_does_not_change_bits_across_chunks(kind):
    n = 30
    # Random points carry more distinct t than one row chunk holds; the
    # diameter shares one t between more distinct u than a chunk holds.
    pts = np.vstack((ex.mesh_quadrant_disk(n).points, random_disk_points(1500, 3),
                     axis_points(1201)))
    assert len(np.unique(pts[:, 1])) > 2 * ex._ROWS
    op = ex.disk_operator(kind, n)
    f = ex.builtin(1)
    serial = op(f, pts, threads=1)
    for threads in (2, 7):
        assert np.array_equal(op(f, pts, threads=threads), serial)


def test_diameter_points_match_scalar_oracles():
    f, n = ex.builtin(2), 12
    pts = axis_points(1201)
    cbar = ex.disk_operator("Cbar", n)(f, pts)
    bstancu = ex.disk_operator("Bstancu", n)(f, pts)
    sched = NodeSchedule.constant(n)
    for i in range(0, len(pts), 37):
        x, y = pts[i]
        assert cbar[i] == pytest.approx(piecewise_stancu_disk(f, n, x, y), abs=1e-12)
        assert bstancu[i] == pytest.approx(ball_stancu(f, n, sched, x, y), abs=1e-12)


def test_empty_point_set():
    for kind in ("Cbar", "Bstancu"):
        assert ex.disk_operator(kind, 5)(ex.builtin(1), np.zeros((0, 2))).shape == (0,)
