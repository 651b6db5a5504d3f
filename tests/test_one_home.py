"""One home for each disk operator's geometry: disk.py holds the scalar and
the array form of the chord map (ball_stancu and _chord_coordinates), the
quadrant map (piecewise_stancu_disk and _quadrant_coordinates) and the disk
check (check_disk_point and _checked_points). Each pair is pinned here bit
for bit: the (s, t) and the quadrant that a scalar operator passes to the
evaluator equal the array form's row, and the two checks reject the same
points.
"""

import math

import numpy as np
import pytest

from diskbern import disk
from diskbern import experiments as ex
from diskbern.bivariate import NodeSchedule
from diskbern.univariate import _EPS, _SLACK

SCHED = NodeSchedule.constant(1)


def scalar_maps(pts):
    """Per point, the (s, t) that ball_stancu and the (u, t, quadrant index)
    that piecewise_stancu_disk pass to the evaluator, which a spy records
    without calling f."""
    seen = []

    def spy(f, key, n, nodes, s, t):
        seen.append((s, t, disk._QUADRANTS.index(key[2]) if key[0] == "quadrant" else -1))
        return 0.0

    chord, quadrant = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disk, "_scalar_values", spy)
        for x, y in pts.tolist():
            disk.ball_stancu(None, 1, SCHED, x, y)
            disk.piecewise_stancu_disk(None, 1, x, y)
            chord.append(seen[-2][:2])
            quadrant.append(seen[-1])
    return np.array(chord).reshape(-1, 2), np.array(quadrant).reshape(-1, 3)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def array_maps(pts, one_row):
    """_chord_coordinates and _quadrant_coordinates of the whole array, or
    with one_row, of each one-row array, stacked."""
    if not one_row:
        return (*disk._chord_coordinates(pts), *disk._quadrant_coordinates(pts))
    rows = [(*disk._chord_coordinates(p[None]), *disk._quadrant_coordinates(p[None])) for p in pts]
    return [np.concatenate(c) for c in zip(*rows)]


def assert_maps_pinned(pts, one_row=False):
    """Both scalar maps equal the array forms, every coordinate bit for bit."""
    pts = disk._checked_points(pts)
    chord, quadrant = scalar_maps(pts)
    chord_u, chord_t, u, t, quad = array_maps(pts, one_row)
    assert np.array_equal(bits(chord[:, 0]), bits(chord_u))
    assert np.array_equal(bits(chord[:, 1]), bits(chord_t))
    assert np.array_equal(bits(quadrant[:, 0]), bits(u))
    assert np.array_equal(bits(quadrant[:, 1]), bits(t))
    assert quadrant[:, 2].tolist() == quad.tolist()


REASONS = ("not finite", "outside the unit disk")


def rejection(check, *args):
    """Why check(*args) rejects the point, as an entry of REASONS, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return next(r for r in REASONS if r in str(exc))
    return None


def scalar_rejects(x, y):
    return rejection(disk.check_disk_point, x, y)


def array_rejects(x, y):
    return rejection(disk._checked_points, [(x, y)])


def random_disk_points(count, seed):
    rng = np.random.default_rng(seed)
    r, a = np.sqrt(rng.random(count)), rng.uniform(0.0, 2.0 * math.pi, count)
    return np.column_stack((r * np.cos(a), r * np.sin(a)))


def axis_points():
    """Both axes with both signs of zero, (+-1, 0) and (+-1, -0) among them."""
    r = np.linspace(-1.0, 1.0, 201)
    r = np.concatenate((r, [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324]))
    zeros = np.zeros_like(r)
    return np.concatenate([np.column_stack(p) for p in
                           ((r, zeros), (r, -zeros), (zeros, r), (-zeros, r))])


def rim_points():
    """Points on both sides of the disk check's 1 + _SLACK: along rays at
    radii up to the slack outside, and for several y the x whose x^2 + y^2
    is 1 + _SLACK, moved by up to 8 ulps either way."""
    a = np.linspace(0.0, 2.0 * math.pi, 97)
    ray = [np.column_stack((r * np.cos(a), r * np.sin(a)))
           for r in (1.0, 1.0 + 1e-12, 1.0 + 1e-10, 1.0 + 4.9e-10, 1.0 + 5e-10, 1.0 + 5.1e-10,
                     1.0 + 1e-9)]
    y = np.array([0.0, 1e-8, 3e-5, 0.1, 0.5, 0.9, 0.999, 1.0])
    x = np.sqrt(1.0 + _SLACK - y * y)
    steps = []
    for k in range(-8, 9):
        xs = x.copy()
        for _ in range(abs(k)):
            xs = np.nextafter(xs, np.inf if k > 0 else 0.0)
        steps += [np.column_stack((sx * xs, sy * y)) for sx in (1, -1) for sy in (1, -1)]
    return np.concatenate(ray + steps)


def flat_chord_points():
    """x within 1e-12 of +-1, where 1 - x^2 crosses the quadrant map's _EPS,
    and x = +-1 or just beyond, where the chord is flat, at small heights."""
    one_minus = 1.0 - np.geomspace(1e-16, 2e-12, 60)
    x = np.concatenate((one_minus, [1.0, 1.0 - _EPS / 2, 1.0 - _EPS, 1.0 - 2 * _EPS,
                                    np.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.0 + 1e-10]))
    y = np.array([0.0, -0.0, 1e-300, 1e-20, 1e-13, 1e-12, 1e-8, 1e-6, 1e-5, 2e-5])
    x, y = (v.ravel() for v in np.meshgrid(x, y))
    pts = np.concatenate([np.column_stack((sx * x, sy * y)) for sx in (1, -1) for sy in (1, -1)])
    return pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0 + _SLACK]


@pytest.mark.parametrize("ns", [range(1, 21), range(21, 41), [120], [320]],
                         ids=["1-20", "21-40", "120", "320"])
def test_maps_pinned_on_both_meshes(ns):
    for n in ns:
        assert_maps_pinned(ex.mesh_stancu_disk(n).points)
        assert_maps_pinned(ex.mesh_quadrant_disk(n, dedup=True).points)


@pytest.mark.parametrize("one_row", [False, True], ids=["whole", "one-row"])
def test_maps_pinned_at_random_disk_points(one_row):
    assert_maps_pinned(random_disk_points(12_000, 7), one_row)


@pytest.mark.parametrize("points", [axis_points, rim_points, flat_chord_points],
                         ids=["axes", "rim", "flat-chord"])
def test_maps_pinned_at_edge_points(points):
    pts = points()
    inside = pts[[not scalar_rejects(x, y) for x, y in pts.tolist()]]
    assert len(inside) > 0.4 * len(pts)
    assert_maps_pinned(inside)
    assert_maps_pinned(inside, one_row=True)


NON_FINITE = [math.nan, math.inf, -math.inf, 1e200, -1e200, 1e154, 0.0, 0.5]


@pytest.mark.parametrize("points", [axis_points, rim_points, flat_chord_points],
                         ids=["axes", "rim", "flat-chord"])
def test_checks_reject_the_same_points(points):
    pts = points().tolist()
    pts += [(x, y) for x in NON_FINITE for y in NON_FINITE]
    decisions = [(scalar_rejects(x, y), array_rejects(x, y)) for x, y in pts]
    assert all(s == a for s, a in decisions)
    assert {s for s, _ in decisions} == {None, *REASONS}


def test_checks_accept_every_mesh_and_random_point():
    # the array check decides row by row, so accepting the whole array is
    # accepting each row on its own
    meshes = [ex.mesh_stancu_disk(n).points for n in (*range(1, 41), 120, 320)]
    meshes += [ex.mesh_quadrant_disk(n, dedup=True).points for n in (*range(1, 41), 120, 320)]
    pts = np.concatenate(meshes + [random_disk_points(12_000, 7)])
    disk._checked_points(pts)
    assert not any(scalar_rejects(x, y) for x, y in pts.tolist())
