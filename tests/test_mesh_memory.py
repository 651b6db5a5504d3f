"""What an RMSE cell keeps: a mesh holds its points and not much more, the
chord-disk kernel's smaller gather blocks keep every bit, and nonsense
arguments to the mesh builders, disk_operator and rmse fail loudly.
"""

import math
import tracemalloc

import numpy as np
import pytest

from diskbern import bivariate as biv
from diskbern import experiments as ex
from diskbern import univariate as uni
from diskbern.disk import check_f_values
from diskbern.univariate import basis_rows


@pytest.mark.parametrize("build", [
    lambda: ex.mesh_stancu_disk(320),
    lambda: ex.mesh_quadrant_disk(200),
    lambda: ex.mesh_quadrant_disk(200, dedup=False),
], ids=["stancu-320", "quadrant-200", "quadrant-200-raw"])
def test_mesh_keeps_little_more_than_its_points(build):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mesh = build()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.1 * mesh.points.nbytes


def test_labels_are_rebuilt_from_kind_n_and_dedup():
    mesh = ex.mesh_quadrant_disk(3, dedup=True)
    assert mesh.labels == ex.MeshSpec("quadrant", 3, True, np.empty((0, 2))).labels
    assert mesh.labels[:2] == (("B1", 0, 0), ("B1", 0, 1))
    assert len(mesh.labels) == len(mesh.points) == 2 * 3 * 4 + 1
    assert ex.mesh_stancu_disk(2).labels == tuple((k, j) for k in range(3) for j in range(3))


# ---------------------------------------------------------------------------
# the chord-disk kernel against the 512-point gather it replaced

def chord_batch_512(f, n, pts, threads=None):
    """The chord kernel (_tensor_disk_batch with one table) as it was,
    gathering 512 points' rows at a time."""
    idx = np.arange(n + 1)
    xk = ((2 * idx - n) / n).tolist()
    yscale = (2.0 * np.sqrt(idx * (n - idx)) / n).tolist()
    fnode = np.empty((n + 1, n + 1))
    for k in range(n + 1):
        fnode[k] = [f(xk[k], jf * yscale[k]) for jf in xk]
    check_f_values(fnode, lambda i: (xk[i // (n + 1)], xk[i % (n + 1)] * yscale[i // (n + 1)]))

    x = np.clip(pts[:, 0], -1.0, 1.0)
    y = pts[:, 1]
    u = (x + 1.0) / 2.0
    half = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    t = np.where(half > 1e-12, (np.divide(y, np.where(half > 1e-12, half, 1.0)) + 1.0) / 2.0, 0.5)
    t = np.clip(t, 0.0, 1.0)

    def evaluate(g):
        gu = basis_rows(n, g.u) @ fnode
        pt = basis_rows(n, g.t)
        values = np.empty(g.points.size)
        for a in range(0, values.size, 512):
            s = slice(a, a + 512)
            values[s] = np.einsum("pk,pk->p", gu[g.ui[s]], pt[g.ti[s]])
        return values

    return ex._evaluate_groups(evaluate, ex._groups(u, t), len(pts), threads)


def off_mesh_points():
    """About 2000 random points, points on both axes and on the rim."""
    rng = np.random.default_rng(41)
    r, a = np.sqrt(rng.random(1400)), rng.uniform(0.0, 2.0 * math.pi, 1400)
    axis = np.linspace(-1.0, 1.0, 301)
    rim = rng.uniform(0.0, 2.0 * math.pi, 300)
    return np.concatenate((
        np.column_stack((r * np.cos(a), r * np.sin(a))),
        np.column_stack((axis, np.zeros_like(axis))),
        np.column_stack((np.zeros_like(axis), axis)),
        np.column_stack((np.cos(rim), np.sin(rim))),
    ))


def assert_gather_keeps_bits(f, n, pts):
    expected = chord_batch_512(f, n, pts).tobytes()
    for threads in (1, 2, 7):
        assert ex.disk_operator("Bstancu", n)(f, pts, threads=threads).tobytes() == expected


def test_gather_block_keeps_bits_on_chord_meshes():
    for n in list(range(1, 46)) + [320]:
        assert_gather_keeps_bits(ex.builtin(1 + n % 4), n, ex.mesh_stancu_disk(n).points)


@pytest.mark.parametrize("n", [1, 7, 40, 320])
def test_gather_block_keeps_bits_off_the_mesh(n):
    assert_gather_keeps_bits(ex.builtin(3), n, off_mesh_points())


# ---------------------------------------------------------------------------
# nonsense arguments

@pytest.mark.parametrize("n", [2.5, 3.0, "3", None, True, False])
def test_non_integral_degree_raises(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        ex.mesh_stancu_disk(n)
    with pytest.raises(ValueError, match="n must be an integer"):
        ex.mesh_quadrant_disk(n)
    for kind in ("Cbar", "Bstancu"):
        with pytest.raises(ValueError, match="n must be an integer"):
            ex.disk_operator(kind, n)
    f = lambda t: t * t
    tau = uni.identity_transform()
    calls = [
        lambda: uni.basis_row(n, 0.3),
        lambda: uni.basis_rows(n, [0.3]),
        lambda: uni.basis_classical(n, 1, 0.3),
        lambda: uni.basis_argmax(n, 1, uni.UNIT_INTERVAL),
        lambda: uni.bernstein(f, n, 0.3),
        lambda: uni.bernstein_shifted(f, n, 0.3, uni.UNIT_INTERVAL),
        lambda: uni.c_tau(f, tau, n, 0.3),
        lambda: biv.monomial_image("x2", biv.UNIT_SQUARE, n, biv.NodeSchedule.n_minus_k(), 0.5, 0.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n must be an integer"):
            call()


def test_degree_zero_keeps_its_rules():
    f = lambda t: t + 2.0
    assert uni.basis_row(0, 0.3).tolist() == [1.0]
    assert uni.basis_rows(0, [0.3]).tolist() == [[1.0]]
    assert uni.bernstein(f, 0, 0.3) == 2.0
    with pytest.raises(ValueError, match="no unique maximum"):
        uni.basis_argmax(0, 0, uni.UNIT_INTERVAL)
    with pytest.raises(ValueError, match="degree must be non-negative"):
        uni.basis_row(-1, 0.3)
    with pytest.raises(ValueError, match="n must be >= 1"):
        biv.monomial_image("x2", biv.UNIT_SQUARE, 0, biv.NodeSchedule.n_minus_k(), 0.5, 0.5)


def test_numpy_integer_degree_is_an_int():
    mesh = ex.mesh_quadrant_disk(np.int64(6))
    assert type(mesh.n) is int
    assert mesh.points.tobytes() == ex.mesh_quadrant_disk(6).points.tobytes()
    assert ex.mesh_stancu_disk(np.int32(6)).points.tobytes() == ex.mesh_stancu_disk(6).points.tobytes()
    assert ex.disk_operator("Cbar", np.int64(6)) == ex.disk_operator("Cbar", 6)


def test_unknown_rmse_denominator_raises():
    f = ex.builtin(1)
    with pytest.raises(ValueError, match="unknown denominator 'bogus'"):
        ex.rmse(f, ex.disk_operator("Cbar", 5), ex.mesh_quadrant_disk(5), denominator="bogus")
