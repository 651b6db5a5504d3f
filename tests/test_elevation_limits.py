"""The limits of degree elevation (univariate._elevate), which every scalar
form with rows of several degrees and every off-mesh Cbar and Bbar value
take: a degree past univariate._ELEVATE_MAX raises, naming it, before f is
called, while forms with rows of one degree run on past it; and no call
leaves behind a table that grows with its degree.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diskbern
from diskbern import bivariate as biv
from diskbern import disk
from diskbern import experiments as ex
from diskbern import univariate as uv
from diskbern import vectorized
from diskbern.bivariate import NodeSchedule
from diskbern.disk import Quadrant

pytestmark = pytest.mark.filterwarnings("ignore:schedule .* yields n_k=0")

N = 2100  # past the limit


def test_the_limit_is_checked_without_elevating():
    uv._check_elevation(uv._ELEVATE_MAX)
    with pytest.raises(ValueError, match=f"degree {uv._ELEVATE_MAX + 1} is too large"):
        uv._check_elevation(uv._ELEVATE_MAX + 1)


def test_the_largest_sums_elevate_at_the_limit_and_overflow_past_it():
    """Each row is scaled by the power of two above its largest |F|, so a
    table of 1 - 2^-53 has the largest sums: at the limit Cbar reads it
    within tests/test_moments.py's 2e-15 n, and piecewise_stancu_disk, which
    elevates the table less its constant, to the bit; one degree past it
    _elevate overflows."""
    c, n = 1.0 - 2.0**-53, uv._ELEVATE_MAX
    f = vectorized(lambda x, y: np.full_like(x, c))
    value = ex.disk_operator("Cbar", n)(f, [(0.3, -0.4)])[0]
    assert abs(value - c) <= 2e-15 * n
    assert disk.piecewise_stancu_disk(f, n, 0.3, -0.4) == c
    degrees = np.arange(n + 1, -1, -1)
    table = np.where(np.arange(n + 2) <= degrees[:, None], c, 0.0)
    with pytest.raises(ValueError, match=f"degree {n + 1} is too large"):
        uv._elevate(table[None], degrees)


ELEVATING = {
    "piecewise_stancu_disk": lambda f: disk.piecewise_stancu_disk(f, N, 0.3, -0.4),
    "quadrant_stancu": lambda f: disk.quadrant_stancu(f, Quadrant.B2, N, -0.3, 0.4),
    "axis_continuity_check": lambda f: disk.axis_continuity_check("stancu", f, N, samples=2),
    "ball_stancu_n_minus_k": lambda f: disk.ball_stancu(f, N, NodeSchedule.n_minus_k(), 0.1, 0.2),
    "square_k": lambda f: disk.square_bernstein(f, N, NodeSchedule.k_index(), 0.1, 0.2),
    "stancu_n_minus_k": lambda f: biv.stancu(f, disk._SIMPLEX, N, NodeSchedule.n_minus_k(),
                                             0.1, 0.2),
    "Cbar": lambda f: ex.disk_operator("Cbar", N)(f, [(0.3, -0.4), (-0.5, 0.1)]),
    "Bbar": lambda f: ex.disk_operator("Bbar", N)(f, [(0.3, -0.4)]),
}


@pytest.mark.parametrize("declared", [False, True], ids=["per-point", "vectorized"])
@pytest.mark.parametrize("name", list(ELEVATING))
def test_a_degree_past_the_limit_raises_before_f_is_called(name, declared):
    calls = []

    def f(x, y):
        calls.append((x, y))
        return np.ones_like(x) if declared else 1.0

    with pytest.raises(ValueError, match=f"degree {N} is too large to elevate"):
        ELEVATING[name](vectorized(f) if declared else f)
    assert calls == []


def test_rows_of_one_degree_need_no_elevation_past_the_limit():
    """The image of a linear f at n = 2100, within tests/test_moments.py's 2e-15 n."""
    value = disk.ball_stancu(lambda x, y: 2.0 * x + 1.0, N, NodeSchedule.constant(3), 0.3, 0.4)
    assert abs(value - 1.6) <= 2e-15 * N


MEMORY_SCRIPT = """
import gc, tracemalloc
from diskbern import bivariate as biv, disk, experiments as ex, vectorized
f = vectorized(lambda x, y: x * x + y)
gc.collect()
tracemalloc.start()
ex.disk_operator("Cbar", 1000)(f, [(0.3, 0.4), (-0.5, -0.2)])
disk.piecewise_stancu_disk(f, 1000, 0.3, -0.4)
biv._node_tables.clear()
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_large_degree_calls_leave_no_table_behind():
    """In a new process, so that no earlier call has grown a table: after a
    Cbar call and a scalar call at n = 1000 and an emptied memo, diskbern
    holds under 1 MB more than it did before them."""
    src = str(Path(diskbern.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", MEMORY_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1 << 20
