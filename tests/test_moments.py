"""Exact images of low-degree polynomials, an oracle for the batch kernels
and the scalar forms at any n.

In each quadrant, Cbar and Bbar are the triangle Bernstein operator in
(U, V) = (x^2, y^2): the node (sqrt(k/n), sqrt(j/n)) is (U, V) = (k/n, j/n),
and p^n_k(U) p^(n-k)_j(V/(1 - U)) is the multinomial weight of (k, j). So
x^2 -> U, y^2 -> V, x^4 -> U^2 + U(1 - U)/n and x^2 y^2 -> (1 - 1/n) U V.
Bstancu is the Bernstein operator in u = (x + 1)/2 on a function of x
alone, so x^2 = (2u - 1)^2 -> x^2 + (1 - x^2)/n. The images are computed
in exact rational arithmetic from the float points; the kernels' error is
then measured, and each test asserts it with a stated margin.

Measured largest errors (random, axis, rim and origin points; the tensor
kernel, which every array of points takes):

| n | Cbar and Bbar | Bstancu |
|---|---|---|
| 40 | 6.8e-15 | 9.0e-15 |
| 200 | 9.8e-14 | 1.5e-13 |
| 1000 | 6.6e-13 | 1.1e-12 |
| 1100 | 6.5e-13 | 9.8e-13 |

The row kernel that RMSE cells take is within 3% of the same figures at
n = 40 and 200. The bound is 2e-15 n: about twice the worst error, and
four times that for the sum of all four moments (at most 4 on the disk),
whose error was 2.6e-12 at n = 1000 and 2.5e-12 at n = 1100.
n = 1100 is past the n at which plain float binomials overflow (about
1030), which the elevation of the quadrant tables has to survive.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from diskbern import disk
from diskbern import experiments as ex
from diskbern import vectorized
from diskbern.bivariate import CurvilinearDomain, NodeSchedule, monomial_image, stancu


def bound(n):
    return 2e-15 * n


def points():
    """Random disk points, both axes with signed zeros, the rim and the origin."""
    rng = np.random.default_rng(2022)
    r, a = np.sqrt(rng.random(200)), rng.uniform(0.0, 2.0 * np.pi, 200)
    s = np.linspace(-1.0, 1.0, 41)
    rim = rng.uniform(0.0, 2.0 * np.pi, 40)
    return np.vstack((np.column_stack((r * np.cos(a), r * np.sin(a))),
                      np.column_stack((s, np.zeros_like(s))),
                      np.column_stack((-np.zeros_like(s), s)),
                      np.column_stack((np.cos(rim), np.sin(rim))),
                      [(0.0, 0.0), (-0.0, -0.0)]))


PTS = points()

# f, and its image under Cbar and Bbar as a function of (U, V, n)
QUADRANT_MOMENTS = {
    "x2": (vectorized(lambda x, y: x * x), lambda U, V, n: U),
    "y2": (vectorized(lambda x, y: y * y), lambda U, V, n: V),
    "x4": (vectorized(lambda x, y: (x * x) * (x * x)), lambda U, V, n: U * U + U * (1 - U) / n),
    "x2y2": (vectorized(lambda x, y: (x * x) * (y * y)),
             lambda U, V, n: (1 - Fraction(1, n)) * U * V),
}
# all four at once, so that a large n samples and elevates its tables once
MIXED = (vectorized(lambda x, y: x * x + 2.0 * (y * y) + 3.0 * ((x * x) * (x * x))
                    + 5.0 * ((x * x) * (y * y))),
         lambda U, V, n: U + 2 * V + 3 * (U * U + U * (1 - U) / n) + 5 * (1 - Fraction(1, n)) * U * V)


def image(moment, n):
    out = []
    for x, y in PTS.tolist():
        U, V = Fraction(x) ** 2, Fraction(y) ** 2
        out.append(float(moment(U, V, n)))
    return np.array(out)


def assert_image(values, expected, n, scale=1.0):
    assert np.isfinite(values).all()
    assert np.abs(values - expected).max() <= scale * bound(n)


@pytest.mark.parametrize("n", [40, 200])
@pytest.mark.parametrize("name", list(QUADRANT_MOMENTS))
@pytest.mark.parametrize("kind", ["Cbar", "Bbar"])
def test_quadrant_operators_reproduce_the_moments(kind, name, n):
    f, moment = QUADRANT_MOMENTS[name]
    assert_image(ex.disk_operator(kind, n)(f, PTS), image(moment, n), n)


@pytest.mark.parametrize("n", [1000, 1100])
def test_quadrant_operator_moments_at_large_n(n):
    f, moment = MIXED
    values = ex.disk_operator("Cbar", n)(f, PTS)
    assert_image(values, image(moment, n), n, scale=4.0)  # |f| <= 4 on the disk


@pytest.mark.parametrize("n", [40, 200, 1000, 1100])
def test_chord_operator_reproduces_its_second_moment(n):
    f = vectorized(lambda x, y: x * x)
    expected = image(lambda U, V, n: U + (1 - U) / n, n)
    assert_image(ex.disk_operator("Bstancu", n)(f, PTS), expected, n)


@pytest.mark.parametrize("n", [40, 200])
def test_rmse_cells_row_kernel_reproduces_the_moments(n):
    """The row kernel, reached through a MeshSpec over the same points."""
    cell = ex.MeshSpec("quadrant", n, False, PTS)
    for f, moment in QUADRANT_MOMENTS.values():
        assert_image(ex.disk_operator("Cbar", n)(f, cell), image(moment, n), n)


# The scalar forms: each value is c + basis_row(n, s) @ (C - c) @ basis_row(N, t)
# for the elevated node table C and the point c of its range nearest 0
# (bivariate._scalar_values), so the same images check the elevation of the
# quadrant rows and of the stancu schedules. Measured largest errors:
# piecewise_stancu_disk 9.8e-14 at n = 200 and 1.9e-12 on the sum of the
# four at n = 1000; stancu on x^2 + 2 y^2 7.2e-14 at n = 200 and 5.9e-13 at
# n = 1000, with either schedule.

def scalar_values(op, pts):
    return np.array([op(x, y) for x, y in pts.tolist()])


@pytest.mark.parametrize("name", list(QUADRANT_MOMENTS))
def test_piecewise_stancu_disk_reproduces_the_moments(name):
    f, moment = QUADRANT_MOMENTS[name]
    values = scalar_values(lambda x, y: disk.piecewise_stancu_disk(f, 200, x, y), PTS)
    assert_image(values, image(moment, 200), 200)


def test_piecewise_stancu_disk_moments_at_large_n():
    """The points in order of their quadrant: the memo holds one 8 MB table
    at n = 1000, so each quadrant's table is sampled and elevated once."""
    f, moment = MIXED
    order = np.argsort(disk._quadrant_index(*PTS.T), kind="stable")
    values = scalar_values(lambda x, y: disk.piecewise_stancu_disk(f, 1000, x, y), PTS[order])
    assert_image(values, image(moment, 1000)[order], 1000, scale=4.0)


def _root(x):
    return math.sqrt(max(1.0 - x * x, 0.0))


DISK = CurvilinearDomain(-1.0, 1.0, lambda x: -_root(x), _root)
# x^2 + 2 y^2, whose image is monomial_image's "x2" plus twice its "y2"
SECOND_MOMENTS = vectorized(lambda x, y: x * x + 2.0 * (y * y))


@pytest.mark.filterwarnings("ignore:schedule .* yields n_k=0")
@pytest.mark.parametrize("n", [200, 1000])
@pytest.mark.parametrize("sched", [NodeSchedule.n_minus_k(), NodeSchedule.k_index()],
                         ids=["n-minus-k", "k"])
def test_stancu_on_the_disk_reproduces_its_second_moments(sched, n):
    pts = PTS[::6]
    values = scalar_values(lambda x, y: stancu(SECOND_MOMENTS, DISK, n, sched, x, y), pts)
    expected = [monomial_image("x2", DISK, n, sched, x, y)
                + 2.0 * monomial_image("y2", DISK, n, sched, x, y) for x, y in pts.tolist()]
    assert_image(values, np.array(expected), n, scale=2.0)  # |f| <= 2 on the disk
