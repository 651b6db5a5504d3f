"""A cross section evaluates its degrees one at a time on groups built
once, each batch call samples its node tables once, outside the node-table
memo, and the row kernel gathers each degree's terms for all of a group's
points at once. Each is checked against what it replaced: per-n
DiskOperator calls and the per-member loop, bit for bit, and the f calls
each call makes.
"""

import math
import weakref

import numpy as np
import pytest

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex
from diskbern.univariate import _degree_rows, basis_rows

CHORDS = [((-1.0, 0.0), (1.0, 0.0)), ((0.0, -1.0), (0.0, 1.0)), ((-0.6, -0.8), (0.8, 0.6)),
          ((math.cos(0.3), math.sin(0.3)), (math.cos(1.3), math.sin(1.3)))]


class Recording:
    """A hashable callable that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x, y):
        self.calls += 1
        return self.f(x, y)


def section_points(segment, samples):
    (x0, y0), (x1, y1) = segment
    s = np.linspace(0.0, 1.0, samples)
    return np.column_stack((x0 + s * (x1 - x0), y0 + s * (y1 - y0)))


def quadrant_points():
    """Random points in all four quadrants and on both axes."""
    rng = np.random.default_rng(3)
    r, a = np.sqrt(rng.random(400)), rng.uniform(0.0, 2.0 * math.pi, 400)
    axis = np.linspace(-1.0, 1.0, 41)
    return np.vstack((np.column_stack((r * np.cos(a), r * np.sin(a))),
                      np.column_stack((axis, np.zeros_like(axis))),
                      np.column_stack((np.zeros_like(axis), axis))))


# ---------------------------------------------------------------------------
# every degree of a section

@pytest.mark.parametrize("n_list",
                         [[10, 40, 80, 160], [40, 7, 80, 7], [33], [12, 12], [12, 30, 25]],
                         ids=["sorted", "unsorted-duplicated", "single", "repeated", "two-sweeps"])
@pytest.mark.parametrize("kind", ["Cbar", "Bbar", "Bstancu-disk"])
def test_section_bit_equal_to_per_n_operator_calls(kind, n_list):
    f, samples = ex.builtin(1 + len(n_list) % 4), 301
    for segment in CHORDS:
        pts = section_points(segment, samples)
        expected = np.array([ex.disk_operator(kind, n)(f, pts) for n in n_list])
        for threads in (1, 2):
            rows = ex.cross_section(kind, f, n_list, segment, samples, threads=threads)
            values = np.array(list(zip(*rows))[4:])
            assert values.tobytes() == expected.tobytes()


def several_group_points():
    """quadrant_points() with a scaled mesh and random points: more than
    one group."""
    rng = np.random.default_rng(8)
    pts = np.vstack((quadrant_points(), 0.99 * ex.mesh_quadrant_disk(30).points,
                     rng.uniform(-0.7, 0.7, (900, 2))))
    assert len(ex._groups(*ex._quadrant_coordinates(pts)[:2])) > 1
    return pts


def test_degree_list_bit_equal_to_one_degree_at_a_time_over_several_groups():
    pts = several_group_points()
    f, ns = ex.builtin(3), (25, 3, 25, 60)
    expected = np.array([ex.disk_operator("Cbar", n)(f, pts) for n in ns])
    for threads in (1, 2, 3):
        values = ex._operator_values("Cbar", f, ns, pts, threads)
        assert np.array(values).tobytes() == expected.tobytes()


def per_member_piecewise_batch(f, degrees, pts, threads=None):
    """The quadrant kernel as it was before it gathered each degree's terms
    at once: per quadrant member of a group, its own u and t row indices,
    gathers and sums."""
    u, t, quad = ex._quadrant_coordinates(pts)
    tables = [[disk.quadrant_node_table(f, n, q) if np.any(quad == i) else None
               for i, q in enumerate(ex._QUADRANTS)] for n in degrees]

    def evaluate(g):
        gq = quad[g.points]
        parts = []
        for i in range(len(ex._QUADRANTS)):
            sel = np.nonzero(gq == i)[0]
            if sel.size:
                parts.append((i, sel, g.ui[sel].astype(np.intp), g.ti[sel].astype(np.intp),
                              np.zeros((len(degrees), sel.size))))
        waiting = [(n, basis_rows(n, g.u).T.copy(),
                    [(tables[d][i], ui, ti, acc[d]) for i, _, ui, ti, acc in parts])
                   for d, n in enumerate(degrees)]
        active = []
        for m, rows in zip(range(degrees[-1], -1, -1), _degree_rows(degrees[-1], g.t)):
            while waiting and waiting[-1][0] >= m:
                active.append(waiting.pop())
            for n, pu, members in active:
                k = n - m
                for tab, ui, ti, acc in members:
                    acc += pu[k, ui] * (rows @ tab[k, : m + 1])[ti]
        values = np.empty((len(degrees), g.points.size))
        for _, sel, _, _, acc in parts:
            values[:, sel] = acc
        return values

    return ex._evaluate_groups(evaluate, ex._groups(u, t), (len(degrees), len(pts)), threads)


@pytest.mark.parametrize("degrees", [(7,), (3, 25, 60), (10, 40, 80, 160)])
@pytest.mark.parametrize("points", ["mesh-dedup", "mesh", "quadrant-points", "several-groups"])
def test_one_gather_per_degree_bit_equal_to_per_member_loop(points, degrees):
    """The row kernel, one degree a call, against the per-member loop over
    every degree at once."""
    pts = {"mesh-dedup": ex.mesh_quadrant_disk(40, dedup=True).points,
           "mesh": ex.mesh_quadrant_disk(40, dedup=False).points,
           "quadrant-points": quadrant_points(),
           "several-groups": several_group_points()}[points]
    f = ex.builtin(1 + degrees[0] % 4)
    expected = per_member_piecewise_batch(f, degrees, pts).tobytes()
    u, t, quad = ex._quadrant_coordinates(pts)
    groups = ex._groups(u, t)
    tables = [[disk.quadrant_node_table(f, n, q) if np.any(quad == i) else None
               for i, q in enumerate(ex._QUADRANTS)] for n in degrees]
    for threads in (1, 2, 3):
        values = np.array([ex._piecewise_disk_batch(n, tables[d], groups, quad, threads)
                           for d, n in enumerate(degrees)])
        assert values.tobytes() == expected


def test_section_holds_the_tables_of_one_degree_at_a_time(monkeypatch):
    alive = most = 0

    def dropped(size):
        nonlocal alive
        alive -= size

    def counted(f, n, q):
        nonlocal alive, most
        table = disk.quadrant_node_table(f, n, q)
        alive += table.size
        most = max(most, alive)
        weakref.finalize(table, dropped, table.size)
        return table

    monkeypatch.setattr(ex, "quadrant_node_table", counted)
    ex.cross_section("Cbar", ex.builtin(2), [20, 30, 40], CHORDS[0], samples=21)
    assert alive == 0
    # the two quadrants' tables of 40 throughout, and those of 30 while it
    # is evaluated; 20 copies the sub-grid of 40's
    assert most == 2 * 41 ** 2 + 2 * 31 ** 2


@pytest.mark.parametrize("bad", [0, -3, 2.5, "7", None])
@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
def test_bad_degree_anywhere_in_the_list_raises_before_any_f_call(kind, at, bad):
    f = Recording(ex.builtin(2))
    n_list = [10, 20]
    n_list.insert(at, bad)
    with pytest.raises(ValueError, match="n must be"):
        ex.cross_section(kind, f, n_list, samples=11)
    assert f.calls == 0


@pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
def test_empty_degree_list_gives_the_f_columns_only(kind):
    f = ex.builtin(4)
    rows = ex.cross_section(kind, f, [], CHORDS[2], samples=9)
    pts = section_points(CHORDS[2], 9)
    s = np.linspace(0.0, 1.0, 9)
    assert rows == [(si, x, y, f(x, y)) for si, (x, y) in zip(s.tolist(), pts.tolist())]


# ---------------------------------------------------------------------------
# batch node tables: sampled once per call, stored by none

@pytest.mark.parametrize("kind", ["Cbar", "Bbar", "Bstancu"])
def test_each_batch_call_samples_its_node_tables_once_and_stores_none(kind):
    f, pts = Recording(ex.builtin(1)), quadrant_points()
    op = ex.disk_operator(kind, 12)
    nodes = 4 * 13 * 14 // 2 if kind != "Bstancu" else 13 * 13
    first = op(f, pts)
    assert f.calls == nodes
    assert op(f, pts, threads=2).tobytes() == first.tobytes()
    assert f.calls == 2 * nodes
    assert not biv._node_tables


@pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
def test_section_samples_each_distinct_degree_once(kind):
    """The nodes of 36, those of 25, and for the chord those of 12 (36/12 is
    no power of two): 9 and, on the quadrants, 12 are sub-grids of 36."""
    f, samples = Recording(ex.builtin(4)), 51
    pts = section_points(CHORDS[2], samples)
    for n in (36, 25) if kind == "Cbar" else (36, 25, 12):
        ex.disk_operator(kind, n)(f, pts)
    sampled, f.calls = f.calls, 0
    ex.cross_section(kind, f, [36, 12, 9, 36, 25], CHORDS[2], samples=samples)
    assert f.calls == sampled + samples  # and the f column
    assert not biv._node_tables


class Scaled:
    """A callable whose values can be changed between calls."""

    def __init__(self, f):
        self.f, self.scale = f, 1.0

    def __call__(self, x, y):
        return self.scale * self.f(x, y)


@pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
def test_a_changed_callable_is_sampled_again(kind):
    f, pts = Scaled(ex.builtin(3)), quadrant_points()
    op = ex.disk_operator(kind, 15)
    first = op(f, pts)
    first_rows = ex.cross_section(kind, f, [15, 7], CHORDS[3], samples=31)
    f.scale = 2.0  # a power of two, so every sum doubles exactly
    assert op(f, pts).tobytes() == (2.0 * first).tobytes()
    assert ex.cross_section(kind, f, [15, 7], CHORDS[3], samples=31) == \
        [row[:3] + tuple(2.0 * v for v in row[3:]) for row in first_rows]


@pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
def test_non_finite_f_raises_on_every_call_and_stores_nothing(kind):
    f = Recording(lambda x, y: math.nan if x > 0.5 else x * y)
    for _ in range(2):
        with pytest.raises(ValueError, match="is not finite"):
            ex.disk_operator(kind, 6)(f, [(0.1, 0.2)])
    assert not biv._node_tables
    assert biv._node_table_bytes == 0
