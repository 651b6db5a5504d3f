"""What a large RMSE cell holds: the groups come from one sort with int32
indices and the same content as the two-sort construction they replace, the
calling thread is one of the `threads` that evaluate them, the chord
coordinates are finished in place, `rmse` squares in place with unchanged
bits and sums the squares exactly rounded, as math.fsum does, every cell
samples f once at each of its points besides the operator's node tables,
reference_report takes both denominators from one sum, and nonsense thread
counts and degrees fail before any work.
"""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskbern import experiments as ex
from diskbern.univariate import _degree_rows, basis_rows


def groups_two_sorts(u, t, rows=512):
    """_groups as it was: np.unique over all t, then one lexsort by (span, u)."""
    span = np.unique(t, return_inverse=True)[1] // rows
    order = np.lexsort((u, span))
    span, su = span[order], u[order]
    new_span = np.r_[True, span[1:] != span[:-1]]
    new_u = new_span | np.r_[True, su[1:] != su[:-1]]
    seen = np.cumsum(new_u)
    rank = seen - seen[new_span][np.cumsum(new_span) - 1]
    cut = new_span | np.r_[True, rank[1:] // rows != rank[:-1] // rows]
    bounds = np.r_[np.nonzero(cut)[0], len(order)]
    groups = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        p = order[a:b]
        gu, gui = np.unique(u[p], return_inverse=True)
        gt, gti = np.unique(t[p], return_inverse=True)
        groups.append((p, gu, gui, gt, gti))
    return groups


def assert_same_groups(u, t):
    expected = groups_two_sorts(u, t)
    got = ex._groups(u, t)
    assert len(got) == len(expected)
    for g, (p, gu, gui, gt, gti) in zip(got, expected):
        assert g.points.dtype == g.ui.dtype == g.ti.dtype == np.int32
        assert np.array_equal(g.points, p)
        assert np.array_equal(g.ui, gui) and np.array_equal(g.ti, gti)
        assert g.u.tobytes() == gu.tobytes() and g.t.tobytes() == gt.tobytes()


def quadrant_coordinates(pts):
    """(u, t) = (x^2, y^2 / (1 - x^2)) as the Cbar kernel computes them."""
    x, y = pts[:, 0], pts[:, 1]
    u = np.clip(x * x, 0.0, 1.0)
    rest = 1.0 - u
    t = np.where(rest > 1e-12, (y * y) / np.where(rest > 1e-12, rest, 1.0), 0.0)
    return u, np.clip(t, 0.0, 1.0)


def test_groups_match_on_chord_meshes():
    for n in list(range(1, 46)) + [320]:
        assert_same_groups(*ex._chord_coordinates(ex.mesh_stancu_disk(n).points))


@pytest.mark.parametrize("dedup", [True, False])
def test_groups_match_on_quadrant_meshes(dedup):
    for n in list(range(1, 46)) + [120]:
        assert_same_groups(*quadrant_coordinates(ex.mesh_quadrant_disk(n, dedup).points))


@pytest.mark.parametrize("count", [1, 2, 511, 512, 513, 5000, 60000])
def test_groups_match_on_random_inputs(count):
    rng = np.random.default_rng(count)
    # 3 levels repeat every value; 700 and 5000 levels put more than 512
    # distinct u into one span; random floats give every point its own t
    for levels in (3, 700, 5000):
        assert_same_groups(rng.integers(0, levels, count) / levels,
                           rng.integers(0, levels, count) / levels)
    assert_same_groups(rng.random(count), rng.random(count))
    assert_same_groups(rng.random(count), np.full(count, 0.5))
    assert_same_groups(np.full(count, 0.25), np.full(count, 0.75))


def chord_coordinates_out_of_place(pts):
    """_chord_coordinates as it was, one expression per array."""
    x = np.clip(pts[:, 0], -1.0, 1.0)
    y = pts[:, 1]
    u = (x + 1.0) / 2.0
    half = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    t = np.where(half > 1e-12, (np.divide(y, np.where(half > 1e-12, half, 1.0)) + 1.0) / 2.0, 0.5)
    return u, np.clip(t, 0.0, 1.0)


def test_chord_coordinates_keep_their_bits_in_less_memory():
    for n in list(range(1, 30)) + [400]:
        pts = ex.mesh_stancu_disk(n).points
        for got, expected in zip(ex._chord_coordinates(pts), chord_coordinates_out_of_place(pts)):
            assert got.tobytes() == expected.tobytes()
    tracemalloc.start()  # on the last mesh, n = 400
    try:
        before = tracemalloc.get_traced_memory()[0]
        u, t = ex._chord_coordinates(pts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * (u.nbytes + t.nbytes)


def test_groups_peak_and_keep_little_memory():
    u, t = ex._chord_coordinates(ex.mesh_stancu_disk(320).points)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        groups = ex._groups(u, t)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(groups) > 1
    assert peak - before <= 6.5 * u.nbytes
    assert kept - before <= 2.0 * u.nbytes


# ---------------------------------------------------------------------------
# the calling thread works in the pool

class RecordingPool(ex.ThreadPoolExecutor):
    sizes = []

    def __init__(self, max_workers=None, **kwargs):
        RecordingPool.sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


def many_groups():
    """Points with 12 groups (the n = 120 quadrant mesh's collapsed coordinates)."""
    u, t = quadrant_coordinates(ex.mesh_quadrant_disk(120).points)
    return ex._groups(u, t), u.size


@pytest.mark.parametrize("threads, sizes", [(None, []), (1, []), (2, [1]), (3, [2]), (5, [4])])
def test_pool_has_one_worker_fewer_than_threads(threads, sizes, monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(ex, "ThreadPoolExecutor", RecordingPool)
    groups, count = many_groups()
    callers = set()
    caller, caller_took = threading.get_ident(), threading.Event()

    def evaluate(g):
        callers.add(threading.get_ident())
        if threading.get_ident() == caller:
            caller_took.set()
        elif not caller_took.wait(timeout=10):  # no worker finishes a group before the caller
            caller_took.set()  # takes one; if it never does, stop waiting and fail below
        return g.ui + 1000.0 * g.ti

    out = ex._evaluate_groups(evaluate, groups, count, threads)
    assert RecordingPool.sizes == sizes
    assert threading.get_ident() in callers
    expected = np.empty(count)
    for g in groups:
        expected[g.points] = g.ui + 1000.0 * g.ti
    assert out.tobytes() == expected.tobytes()


def test_pool_never_outnumbers_the_groups(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(ex, "ThreadPoolExecutor", RecordingPool)
    u, t = ex._chord_coordinates(ex.mesh_stancu_disk(5).points)
    groups = ex._groups(u, t)
    assert len(groups) == 1
    ex._evaluate_groups(lambda g: np.zeros(g.points.size), groups, u.size, 4)
    assert RecordingPool.sizes == []


def test_every_group_runs_once_under_contention():
    rng = np.random.default_rng(7)
    u, t = rng.random(40000), rng.random(40000)  # 79 groups of one span each
    groups = ex._groups(u, t)
    runs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            runs.clear()
            out = ex._evaluate_groups(lambda g: runs.append(g) or t[g.points] * 2.0,
                                      groups, u.size, 8)
            assert sorted(map(id, runs)) == sorted(map(id, groups))
            assert out.tobytes() == (t * 2.0).tobytes()
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_an_error_in_any_group_propagates(threads):
    groups, count = many_groups()

    def evaluate(g):
        if g is groups[5]:
            raise ArithmeticError("group 5")
        return np.zeros(g.points.size)

    with pytest.raises(ArithmeticError, match="group 5"):
        ex._evaluate_groups(evaluate, groups, count, threads)


# ---------------------------------------------------------------------------
# rmse squares in place

@pytest.mark.parametrize("example", [1, 2, 3, 4])
def test_rmse_keeps_its_bits(example):
    f = ex.builtin(example)
    for n in (1, 7, 40):
        for kind, mesh in (("Cbar", ex.mesh_quadrant_disk(n)), ("Bstancu", ex.mesh_stancu_disk(n))):
            op = ex.disk_operator(kind, n)
            z = np.array([f(x, y) for x, y in mesh.points.tolist()])
            sq = (z - op(f, mesh)) ** 2
            for denominator, denom in (("nominal", mesh.nominal_size), ("actual", len(mesh.points))):
                expected = math.sqrt(math.fsum(sq) / denom)
                assert ex.rmse(f, op, mesh, denominator=denominator) == expected


def fsum_outcome(total, values):
    """total(values), or OverflowError when the sum is beyond the float range."""
    try:
        return total(values)
    except OverflowError:
        return OverflowError


# Non-negative floats: zeros, subnormals, the float range's ends, inf, and
# integers times powers of two, whose sums often fall half way between two
# floats (2^53 + 1, 1 + 2^-53).
SQUARES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 2.0 ** -53, 1.0, 3.0, 2.0 ** 53,
                     1.7976931348623157e308, math.inf]),
    st.floats(0.0, 1e-300),
    st.floats(0.0, math.inf),
    st.builds(math.ldexp, st.integers(0, 2 ** 53), st.integers(-1126, 970)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(SQUARES, max_size=60))
def test_exact_sum_is_fsum(values):
    expected = fsum_outcome(math.fsum, values)
    got = fsum_outcome(ex._exact_sum, np.array(values, dtype=float))
    assert got == expected and type(got) is type(expected)


def test_exact_sum_is_fsum_across_blocks(monkeypatch):
    rng = np.random.default_rng(11)
    wide = np.ldexp(rng.random(5000), rng.integers(-1100, 60, 5000))
    squares = rng.random(2 * ex._SUM_BLOCK + 3) ** 2
    assert ex._exact_sum(squares) == math.fsum(squares)
    monkeypatch.setattr(ex, "_SUM_BLOCK", 7)
    assert ex._exact_sum(wide) == math.fsum(wide)
    assert ex._exact_sum(np.r_[wide, math.inf, wide]) == math.inf
    with pytest.raises(OverflowError):
        ex._exact_sum(np.full(20, 1.7e308))


class Counted:
    """f that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x, y):
        self.calls += 1
        return self.f(x, y)


def signs(x, y):
    """Reads the sign of zero: f(-0.0, y) != f(0.0, y)."""
    return math.copysign(1.0, x) + 2.0 * math.copysign(1.0, y)


def per_point_rmse(f, op, mesh, denominator):
    z = np.array([f(x, y) for x, y in mesh.points.tolist()])
    denom = mesh.nominal_size if denominator == "nominal" else len(mesh.points)
    return math.sqrt(math.fsum((z - op(f, mesh)) ** 2) / denom)


def assert_rmse_samples_f_at_every_point(op, mesh, functions, denominators=("nominal",)):
    """rmse has the per-point bits and calls f once per mesh point plus
    once per node of the tables the operator reads."""
    for f in functions:
        nodes = Counted(f)
        op(nodes, mesh)
        for denominator in denominators:
            counted = Counted(f)
            assert ex.rmse(counted, op, mesh, denominator=denominator) == per_point_rmse(
                f, op, mesh, denominator)
            assert counted.calls == len(mesh.points) + nodes.calls


@pytest.mark.parametrize("dedup", [True, False])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_quadrant_cell_reads_f_from_its_node_tables_with_the_per_point_bits(n, dedup):
    mesh = ex.mesh_quadrant_disk(n, dedup)
    for kind in ("Cbar", "Bbar"):
        assert_rmse_samples_f_at_every_point(ex.disk_operator(kind, n), mesh,
                                             (signs, ex.builtin(1), ex.builtin(4)),
                                             ("nominal", "actual"))


@pytest.mark.parametrize("kind, n, mesh", [
    ("Bstancu", 7, ex.mesh_stancu_disk(7)),
    ("Bstancu", 7, ex.mesh_quadrant_disk(7)),
    ("Cbar", 7, ex.mesh_quadrant_disk(8)),
    ("Bbar", 8, ex.mesh_quadrant_disk(7, dedup=False)),
    ("Cbar", 7, ex.mesh_stancu_disk(7)),
])
def test_other_cells_still_sample_f_at_every_mesh_point(kind, n, mesh):
    assert_rmse_samples_f_at_every_point(ex.disk_operator(kind, n), mesh, (signs, ex.builtin(2)))


def node_point_sets(n):
    """Point sets of Cbar and Bbar at degree n whose every point is a node,
    though MeshSpec's fields do not say so or say otherwise."""
    mesh = ex.mesh_quadrant_disk(n)
    zeros = mesh.points.copy()
    zeros[zeros == 0.0] = -0.0  # signs tells these from +0.0
    return {"reversed": dataclasses.replace(mesh, points=mesh.points[::-1].copy()),
            "every other": dataclasses.replace(mesh, points=mesh.points[::2].copy()),
            "dedup field False": dataclasses.replace(mesh, dedup=False),
            "signed zeros": dataclasses.replace(mesh, points=zeros),
            "degree m | n": ex.mesh_quadrant_disk({8: 4, 9: 3}[n])}


@pytest.mark.parametrize("points", ["reversed", "every other", "dedup field False",
                                    "signed zeros", "degree m | n"])
@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("kind", ["Cbar", "Bbar"])
def test_any_node_point_set_reads_f_from_the_node_tables(kind, n, points):
    assert_rmse_samples_f_at_every_point(ex.disk_operator(kind, n), node_point_sets(n)[points],
                                         (signs, *map(ex.builtin, (1, 2, 3, 4))),
                                         ("nominal", "actual"))


def off_node_point_sets():
    mesh = ex.mesh_quadrant_disk(7)
    moved = mesh.points.copy()
    moved[9, 1] = np.nextafter(moved[9, 1], 2.0)
    return {"one ulp off": dataclasses.replace(mesh, points=moved),
            "empty": dataclasses.replace(mesh, points=np.empty((0, 2))),
            "chord, quadrant fields": dataclasses.replace(ex.mesh_stancu_disk(7), kind="quadrant")}


@pytest.mark.parametrize("points", ["one ulp off", "empty", "chord, quadrant fields"])
def test_a_point_off_the_nodes_samples_f_at_every_point(points):
    assert_rmse_samples_f_at_every_point(ex.disk_operator("Cbar", 7), off_node_point_sets()[points],
                                         (signs, ex.builtin(2)))


@pytest.mark.parametrize("example", [1, 2, 3, 4])
def test_reference_report_matches_rmse(example):
    f = ex.builtin(example)
    for cell in ex.reference_report(example, [10, 20]):
        op = ex.disk_operator(cell.operator_id, cell.n)
        mesh = (ex.mesh_quadrant_disk(cell.n) if cell.operator_id == "Cbar"
                else ex.mesh_stancu_disk(cell.n))
        assert cell.computed == ex.rmse(f, op, mesh, denominator="nominal")
        assert cell.computed_alt == ex.rmse(f, op, mesh, denominator="actual")


# ---------------------------------------------------------------------------
# nonsense thread counts and degrees

BAD_THREADS = [0, -3, 1.5, "2", True]


class Recording:
    def __init__(self):
        self.calls = 0

    def __call__(self, x, y):
        self.calls += 1
        return x + y


@pytest.mark.parametrize("threads", BAD_THREADS)
def test_bad_threads_raise_before_f_is_called(threads, monkeypatch):
    f = Recording()
    monkeypatch.setitem(ex.BUILTINS, "example1", f)
    calls = [
        lambda: ex.disk_operator("Cbar", 5)(f, [(0.1, 0.2)], threads=threads),
        lambda: ex.disk_operator("Bstancu", 5)(f, [(0.1, 0.2)], threads=threads),
        lambda: ex.rmse(f, ex.disk_operator("Cbar", 3), ex.mesh_quadrant_disk(3), threads=threads),
        lambda: ex.run_example(1, [3], threads=threads),
        lambda: ex.reference_report(1, [10], threads=threads),
        lambda: ex.cross_section("Cbar", f, [3], samples=5, threads=threads),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^threads must be (an integer, got|>= 1)"):
            call()
    assert f.calls == 0


def test_integer_thread_counts_are_accepted():
    f, pts = ex.builtin(2), ex.mesh_stancu_disk(6).points
    op = ex.disk_operator("Bstancu", 6)
    expected = op(f, pts).tobytes()
    for threads in (None, 1, 2, np.int64(3)):
        assert op(f, pts, threads=threads).tobytes() == expected


def test_negative_degree_rows_raise():
    with pytest.raises(ValueError, match="degree must be non-negative"):
        basis_rows(-1, [0.5, 0.0])
    with pytest.raises(ValueError, match="degree must be non-negative"):
        next(_degree_rows(-1, [0.5, 0.0]))
