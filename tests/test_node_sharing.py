"""A batch call samples f at the nodes of its largest degree N, and a lower
degree n copies the sub-grid [::N // n, ::N // n] of those tables where
experiments._shares_nodes says its nodes are that sub-grid bit for bit. The
scalar evaluator takes arrays of points for one table, which lets
axis_continuity_check read each quadrant table once per call.
"""

import math

import numpy as np
import pytest

from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex
from diskbern.bivariate import CurvilinearDomain, NodeSchedule
from test_scalar_rows import tol

LARGEST = 320


def chord_nodes(n):
    """The (x, y) coordinates of every degree-n chord node, as two (n+1, n+1) arrays."""
    k, j = np.arange(n + 1)[:, None], np.arange(n + 1)
    x, y = disk._chord_nodes(n)(k, j, n)
    return np.broadcast_to(x, y.shape), y


def quadrant_nodes(n, q):
    """The (x, y) coordinates of q's degree-n node grid, padding included."""
    k, j = np.arange(n + 1)[:, None], np.arange(n + 1)
    return tuple(np.broadcast_to(c, (n + 1, n + 1))
                 for c in disk._quadrant_nodes(n, q)(k, j, n - k))


def same_sub_grid(top, low, r):
    return all(a[::r, ::r].tobytes() == b.tobytes() for a, b in zip(top, low))


def test_every_accepted_pair_shares_its_nodes_bit_for_bit():
    """For n < N <= 320: every quadrant pair the rule accepts and every
    accepted chord pair has the sub-grid's nodes; of the chord pairs it
    rejects for a ratio that is no power of two, 563 of 1263 coincide all
    the same, so the rule is sufficient, not necessary."""
    chords = {n: chord_nodes(n) for n in range(1, LARGEST + 1)}
    accepted = {"Cbar": 0, "Bstancu": 0}
    rejected = coincide = 0
    for top in range(2, LARGEST + 1):
        quadrants = {q: quadrant_nodes(top, q) for q in disk._QUADRANTS}
        for n in range(1, top):
            r = top // n
            if ex._shares_nodes("Cbar", n, top):
                accepted["Cbar"] += 1
                for q in disk._QUADRANTS:
                    assert same_sub_grid(quadrants[q], quadrant_nodes(n, q), r), (n, top, q)
            same = top % n == 0 and same_sub_grid(chords[top], chords[n], r)
            if ex._shares_nodes("Bstancu", n, top):
                accepted["Bstancu"] += 1
                assert same, (n, top)
            elif top % n == 0:
                rejected += 1
                coincide += same
    assert accepted == {"Cbar": 1581, "Bstancu": 318}
    assert (coincide, rejected) == (563, 1263)


def test_the_rule_rejects_what_it_must():
    assert not ex._shares_nodes("Cbar", 3, 10) and not ex._shares_nodes("Bstancu", 3, 10)
    assert ex._shares_nodes("Cbar", 3, 9) and not ex._shares_nodes("Bstancu", 3, 9)
    # sqrt(81 * 2) is not 9 sqrt(2) in floats: chord (3, 9) has a node of its own
    assert not same_sub_grid(chord_nodes(9), chord_nodes(3), 3)


class Recording:
    """A hashable callable that records the points it is called at."""

    def __init__(self, f):
        self.f, self.points = f, []

    def __call__(self, x, y):
        self.points.append((x, y))
        return self.f(x, y)


@pytest.mark.parametrize("kind", ["Cbar", "Bstancu"])
def test_a_section_of_sub_grid_degrees_samples_the_largest_degree_alone(kind):
    """f is called at the nodes of one DiskOperator call of the largest
    degree, in its order, and then at the section's points."""
    segment, samples = ((-0.6, -0.8), (0.8, 0.6)), 3
    pts = [row[1:3] for row in ex.cross_section(kind, ex.builtin(1), [], segment, samples)]
    f = Recording(ex.builtin(1))
    ex.disk_operator(kind, 16)(f, pts)
    alone, f.points = f.points, []
    ex.cross_section(kind, f, [8, 16, 4, 2], segment, samples)
    assert f.points[:-samples] == alone


# ---------------------------------------------------------------------------
# the evaluator on arrays


def _root(x):
    return math.sqrt(max(1.0 - x * x, 0.0))


DISK = CurvilinearDomain(-1.0, 1.0, lambda x: -_root(x), _root)

# per key, its tag and the nodes() the operator passes the evaluator
KEYS = {
    "quadrant": lambda n: (("quadrant", n, disk.Quadrant.B3),
                           lambda: (n - np.arange(n + 1), disk._quadrant_nodes(n, disk.Quadrant.B3))),
    "ball": lambda n: (("ball", n, NodeSchedule.constant(n)),
                       lambda: (NodeSchedule.constant(n).counts(n), disk._chord_nodes(n))),
    "stancu": lambda n: (("stancu", n, NodeSchedule.n_minus_k(), DISK),
                         lambda: (NodeSchedule.n_minus_k().counts(n), biv._row_nodes(DISK, n))),
}
S = np.array([0.0, 1.0, 0.0, 1.0, 0.3, 0.5, 0.999, 1e-9, 0.25])
T = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.7, 0.4, 1.0 - 1e-9])


@pytest.mark.filterwarnings("ignore:schedule .* yields n_k=0")
@pytest.mark.parametrize("n", [1, 5, 40, 200])
@pytest.mark.parametrize("key", list(KEYS))
def test_array_values_within_tol_of_the_float_calls(key, n):
    f = ex.builtin(3)
    tag, nodes = KEYS[key](n)
    values = biv._scalar_values(f, tag, n, nodes, S, T)
    assert values.shape == S.shape
    floats = [biv._scalar_values(f, tag, n, nodes, s, t) for s, t in zip(S.tolist(), T.tolist())]
    assert np.abs(values - floats).max() <= tol(n)


@pytest.mark.parametrize("bad", [1.5, -0.25, math.nan])
def test_an_s_outside_the_unit_interval_raises_before_f_is_called(bad):
    f = Recording(ex.builtin(2))
    tag, nodes = KEYS["quadrant"](7)
    s = S.copy()
    s[4] = bad
    with pytest.raises(ValueError, match="arguments"):
        biv._scalar_values(f, tag, 7, nodes, s, T)
    assert f.points == []
    assert not any(key[0] is f for key in biv._node_tables)


# ---------------------------------------------------------------------------
# the axis check


def per_point_axis_check(f, n, samples):
    """The axis check as it was: two float evaluations per point of each half-axis."""
    worst = 0.0
    for axis, (qa, qb) in disk._ADJACENT.items():
        for v in np.linspace(0.0, 1.0, samples + 1).tolist():
            x, y = (qa.sx * v, 0.0) if axis.startswith("x") else (0.0, qa.sy * v)
            worst = max(worst, abs(disk._quadrant_value(f, qa, n, x, y)
                                   - disk._quadrant_value(f, qb, n, x, y)))
    return worst


@pytest.mark.parametrize("n", [1, 5, 40, 200])
@pytest.mark.parametrize("e", [1, 4])
def test_axis_check_within_two_tol_of_the_per_point_loop(e, n):
    f = ex.builtin(e)
    assert abs(disk.axis_continuity_check("stancu", f, n, samples=16)
               - per_point_axis_check(f, n, 16)) <= 2 * tol(n)


class Counting(biv.vectorized):
    """A declared f that counts the nodes it is called at."""

    __slots__ = ("nodes",)

    def __init__(self, f):
        super().__init__(f)
        self.nodes = 0

    def __call__(self, x, y):
        self.nodes += x.size
        return self.f(x, y)


def test_axis_check_builds_each_quadrant_table_once_where_the_memo_holds_one():
    """At n = 800 one elevated table (5.1 MB) fills most of the memo's
    8 MiB, so a check that came back to a quadrant would sample it again."""
    n = 800
    assert 2 * (n + 1) ** 2 * 8 > biv._NODE_TABLE_BYTES >= (n + 1) ** 2 * 8
    f = Counting(ex.builtin(1).f)
    worst = disk.axis_continuity_check("stancu", f, n, samples=4)
    assert f.nodes == 4 * (n + 1) * (n + 2) // 2
    assert 0.0 <= worst <= 1e-10
