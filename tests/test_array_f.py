"""Vectorized f: the samplers call a declared f once per block, with
read-only arrays, and the declared builtins keep the bits of their math
forms; an undeclared f is still called once per point with Python floats,
in (k, j) or point order.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

import diskbern
from diskbern import bivariate as biv
from diskbern import cli
from diskbern import disk
from diskbern import experiments as ex
from diskbern.bivariate import NodeSchedule

# n-minus-k substitutes n_k = 1 at k = n with a warning, by design
pytestmark = pytest.mark.filterwarnings("ignore:schedule .* yields n_k=0:UserWarning")

# The benchmark's meshes and node tables: the tables degrees, large_n's
# 120 and 320, the 160 of its sections; the scalar ops run at 40.
MESH_N = (*ex.DEFAULT_N_LIST, 120, 160, 320)
DISK_DOMAIN = biv.CurvilinearDomain(-1.0, 1.0, lambda x: -math.sqrt(max(1.0 - x * x, 0.0)),
                                    lambda x: math.sqrt(max(1.0 - x * x, 0.0)))


def math_example1(x, y):
    return x * math.sin(5 * x - 6 * y) + y


def math_example2(x, y):
    return math.sin(10 * x + y)


def math_example4(x, y):
    r2 = x * x + y * y
    if r2 < 0.5:
        return 1.0
    if r2 <= 0.8:
        return 0.0
    return 0.5


MATH_FORMS = {1: math_example1, 2: math_example2, 4: math_example4}


def per_point(f, x, y):
    return np.array([f(a, b) for a, b in zip(x.tolist(), y.tolist())])


def test_builtins_1_2_4_are_declared_and_3_is_not():
    assert diskbern.vectorized is biv.vectorized
    for e in (1, 2, 4):
        assert isinstance(ex.builtin(e), biv.vectorized)
    # np.exp and math.exp differ by 1 ulp on about 5% of arguments
    assert not isinstance(ex.builtin(3), biv.vectorized)


@pytest.mark.parametrize("n", MESH_N)
def test_declared_builtins_keep_math_bits_on_meshes(n):
    """On strided columns and on contiguous copies alike, and through
    _sample_points."""
    for mesh in (ex.mesh_stancu_disk(n), ex.mesh_quadrant_disk(n, dedup=True)):
        pts = mesh.points
        for e, math_form in MATH_FORMS.items():
            f = ex.builtin(e)
            expected = per_point(math_form, pts[:, 0], pts[:, 1]).tobytes()
            assert f(pts[:, 0], pts[:, 1]).tobytes() == expected
            assert f(*pts.T.copy()).tobytes() == expected
            assert biv._sample_points(f, pts).tobytes() == expected


@pytest.mark.parametrize("n", MESH_N)
def test_declared_builtins_keep_math_bits_on_node_tables(n):
    for e, math_form in MATH_FORMS.items():
        f = ex.builtin(e)
        for q in disk.Quadrant:
            assert (disk.quadrant_node_table(f, n, q).tobytes()
                    == disk.quadrant_node_table(math_form, n, q).tobytes())
        counts, nodes = np.full(n + 1, n), disk._chord_nodes(n)
        assert (biv._node_values(f, counts, nodes).tobytes()
                == biv._node_values(math_form, counts, nodes).tobytes())


def test_declared_builtins_keep_math_bits_in_scalar_ops():
    """The pointwise workload's three scalar operators at n = 40, each with
    its own node table, and the axis check."""
    rng = np.random.default_rng(40)
    n = 40
    const, n_minus_k = NodeSchedule.constant(n), NodeSchedule.n_minus_k()
    for e, math_form in MATH_FORMS.items():
        f = ex.builtin(e)
        for _ in range(10):
            r, a = 0.98 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
            x, y = r * math.cos(a), r * math.sin(a)
            for op in (lambda g: disk.piecewise_stancu_disk(g, n, x, y),
                       lambda g: disk.ball_stancu(g, n, const, x, y),
                       lambda g: biv.stancu(g, DISK_DOMAIN, n, n_minus_k, x, y)):
                assert op(f) == op(math_form)
        assert (disk.axis_continuity_check("stancu", f, n)
                == disk.axis_continuity_check("stancu", math_form, n))
        assert (biv._node_values(f, n_minus_k.counts(n), biv._row_nodes(DISK_DOMAIN, n)).tobytes()
                == biv._node_values(math_form, n_minus_k.counts(n),
                                    biv._row_nodes(DISK_DOMAIN, n)).tobytes())


def recorded_floats(f):
    """f as an undeclared function recording each call's (x, y), which
    must be Python floats."""
    calls = []

    def g(x, y):
        assert type(x) is float and type(y) is float
        calls.append((x, y))
        return f(x, y)

    return g, calls


def row_loop_calls(counts, nodes):
    """The (x, y) of every node, row by row in order of k, then j, from one
    whole-table call of nodes: the order f was called in before the
    samplers worked in blocks."""
    k = np.arange(counts.size)[:, None]
    j = np.arange(counts.max() + 1)
    x, y = (np.broadcast_to(c, (k.size, j.size)) for c in nodes(k, j, counts[:, None]))
    return [(float(x[r, 0]), v) for r, m in enumerate((counts + 1).tolist())
            for v in y[r, :m].tolist()]


@pytest.mark.parametrize("n", [80, 320])
def test_undeclared_f_keeps_its_call_sequence(n):
    """One call per node in (k, j) order across several node blocks (320
    spans 13), and per point in point order across _sample_points blocks."""
    f = ex.builtin(3)
    for counts, nodes in ((np.full(n + 1, n), disk._chord_nodes(n)),
                          (n - np.arange(n + 1), disk._quadrant_nodes(n, disk.Quadrant.B3))):
        g, calls = recorded_floats(f)
        table = biv._node_values(g, counts, nodes)
        expected = row_loop_calls(counts, nodes)
        assert np.array(calls).tobytes() == np.array(expected).tobytes()
        live = np.arange(table.shape[1]) <= counts[:, None]
        assert table[live].tobytes() == np.array([f(x, y) for x, y in expected]).tobytes()
        assert not table[~live].any()
    pts = ex.mesh_stancu_disk(n).points
    g, calls = recorded_floats(f)
    biv._sample_points(g, pts)
    assert np.array(calls).tobytes() == pts.tobytes()


def test_example3_calls_per_tables_pass(monkeypatch):
    """Example 3 is undeclared: a tables pass still calls it once per node
    of the Cbar cells' tables and once per chord node and chord-mesh point
    of the Bstancu cells."""
    g, calls = recorded_floats(ex.builtin(3))
    monkeypatch.setitem(ex.BUILTINS, "example3", g)
    ex.run_example(3, threads=1)
    assert len(calls) == 85_248
    assert len(calls) == sum(2 * (n + 1) * (n + 2) + 2 * (n + 1) ** 2 for n in ex.DEFAULT_N_LIST)


def recorded_arrays(f):
    """f declared, recording the arguments of each call."""
    calls = []

    def g(x, y):
        calls.append((x, y))
        return f(x, y)

    return biv.vectorized(g), calls


def test_declared_f_gets_one_call_per_block():
    pts = ex.mesh_stancu_disk(40).points  # 1681 points: blocks of 512, 512, 512, 145
    g, calls = recorded_arrays(ex.builtin(1))
    biv._sample_points(g, pts)
    assert [x.size for x, _ in calls] == [512, 512, 512, 145]
    assert np.concatenate([np.column_stack(c) for c in calls]).tobytes() == pts.tobytes()
    for x, y in calls:
        assert x.dtype == y.dtype == np.float64 and x.ndim == y.ndim == 1
        assert not x.flags.writeable and not y.flags.writeable

    n = 320  # 25 rows of 321 entries a block: 13 blocks
    g, calls = recorded_arrays(ex.builtin(1))
    disk.quadrant_node_table(g, n, disk.Quadrant.B2)
    rows = biv._NODE_BLOCK // (n + 1)
    assert len(calls) == -(-(n + 1) // rows) == 13
    assert [x.size for x, _ in calls] == [sum(n - k + 1 for k in range(a, min(a + rows, n + 1)))
                                         for a in range(0, n + 1, rows)]  # live nodes only
    expected = row_loop_calls(n - np.arange(n + 1), disk._quadrant_nodes(n, disk.Quadrant.B2))
    assert np.concatenate([np.column_stack(c) for c in calls]).tobytes() == np.array(expected).tobytes()

    g, calls = recorded_arrays(ex.builtin(1))
    disk.quadrant_node_table(g, 80, disk.Quadrant.B1)  # one block up to n = 89
    assert len(calls) == 1 and calls[0][0].size == 81 * 82 // 2


def test_declared_f_nan_names_the_first_bad_point_and_node():
    f = biv.vectorized(lambda x, y: np.where(x > 0.25, np.inf, x + y))
    pts = np.array([[0.0, 0.1]] * 600 + [[0.5, -0.5], [0.3, 0.3]])
    with pytest.raises(ValueError, match=r"f\(0\.5, -0\.5\) = inf is not finite"):
        biv._sample_points(f, pts)
    g = biv.vectorized(lambda x, y: np.where((x < -0.3) & (y < -0.5), np.nan, 1.0))
    n = 320  # the first bad node, k = 29 and j = 81, is in the second block of 25 rows
    bad = f"f({-math.sqrt(29 / n)!r}, {-math.sqrt(81 / n)!r}) = nan is not finite"
    with pytest.raises(ValueError, match=re.escape(bad)):
        disk.quadrant_node_table(g, n, disk.Quadrant.B3)
    assert np.isfinite(disk.quadrant_node_table(g, n, disk.Quadrant.B2)).all()


@pytest.mark.parametrize("returns, got", [
    (lambda x, y: 1.0, "float"),
    (lambda x, y: np.float64(1.0), "float64"),
    (lambda x, y: np.array(1.0), r"float64 array of shape \(\)"),
    (lambda x, y: list(x), "list"),
    (lambda x, y: np.stack((x, y)), r"float64 array of shape \(2, "),
    (lambda x, y: x[:-1], "float64 array of shape"),
    (lambda x, y: x.astype(np.float32), "float32 array"),
    (lambda x, y: np.ones(x.shape, dtype=int), "int64 array"),
    (lambda x, y: None, "NoneType"),
])
def test_declared_f_must_return_a_float_array_of_the_argument_shape(returns, got):
    f = biv.vectorized(returns)
    for sample in (lambda: biv._sample_points(f, np.array([[0.1, 0.2], [0.3, 0.4]])),
                   lambda: disk.quadrant_node_table(f, 3, disk.Quadrant.B1),
                   lambda: ex.disk_operator("Bstancu", 3)(f, [(0.1, 0.2)])):
        with pytest.raises(ValueError, match=f"vectorized f returned {got}"):
            sample()


def test_declared_f_cannot_write_into_its_arguments():
    def in_place(x, y):
        x += y
        return x

    def item(x, y):
        y[0] = 0.0
        return x + y

    pts = np.array([[0.1, 0.2], [0.3, 0.4]])
    for g in (in_place, item):
        f = biv.vectorized(g)
        with pytest.raises(ValueError, match="read-only"):
            biv._sample_points(f, pts)
        with pytest.raises(ValueError, match="read-only"):
            disk.quadrant_node_table(f, 4, disk.Quadrant.B1)
    assert pts.tobytes() == np.array([[0.1, 0.2], [0.3, 0.4]]).tobytes()


def test_cli_const_is_declared(capsys):
    _, f = cli._resolve_function("const:2.5")
    assert isinstance(f, biv.vectorized)
    assert cli.main(["eval", "--op", "Cbar", "--fn", "const:nan", "--n", "5",
                     "--point", "0.1,0.2"]) == 2
    err = capsys.readouterr().err
    assert "f(0.0, 0.0) = nan is not finite" in err  # the first node of B1's table


def test_declared_sampling_memory_is_bounded():
    """The n = 1000 chord node table (8 MB) peaks at 1.5 times its size."""
    n = 1000
    counts, nodes = np.full(n + 1, n), disk._chord_nodes(n)
    tracemalloc.start()
    try:
        table = biv._node_values(ex.builtin(1), counts, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 8 * (n + 1) ** 2
    assert peak <= 1.5 * table.nbytes


@pytest.mark.parametrize("m", [3.5, "3", 0, None, -2])
def test_constant_schedule_needs_an_integer_m(m):
    with pytest.raises(ValueError, match="integer m >= 1"):
        NodeSchedule.constant(m)


def test_constant_schedule_takes_a_numpy_integer():
    sched = NodeSchedule.constant(np.int64(3))
    assert sched == NodeSchedule.constant(3) and type(sched.m) is int
    f = ex.builtin(3)
    assert disk.ball_stancu(f, 5, sched, 0.2, 0.3) == disk.ball_stancu(f, 5, NodeSchedule.constant(3), 0.2, 0.3)
    assert biv.stancu_nodes(biv.UNIT_SQUARE, 4, sched).node_count == 5 * 4


@pytest.mark.parametrize("dom, y", [(DISK_DOMAIN, 0.0), (biv.UNIT_SQUARE, 0.4)])
def test_stancu_clamps_x_within_the_domain_tolerance(dom, y):
    f, sched = ex.builtin(3), NodeSchedule.n_minus_k()
    for end, step in ((dom.b, 1e-10), (dom.a, -1e-10)):
        assert biv.stancu(f, dom, 12, sched, end + step, y) == biv.stancu(f, dom, 12, sched, end, y)
        with pytest.raises(ValueError, match="outside the domain"):
            biv.stancu(f, dom, 12, sched, end + 100 * step, y)
