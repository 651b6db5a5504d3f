"""The scalar evaluator's inner rows: univariate._row_triangle from the
cached _log_triangle of a node table's row degrees, against the formula it
replaced (kept here only as the oracle), and the triangles' place in the
node-table memo (bivariate._node_table): a hit builds no log-factorials,
the memo stays under its byte bound, and threads read the parent's bits.
"""

import math
import random
import sys
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diskbern import bivariate as biv, disk, experiments as ex, univariate as uv
from diskbern.bivariate import CurvilinearDomain, NodeSchedule


def old_row_triangle(degrees, x):
    """The formula _row_triangle had before its t-independent part was
    cached: every entry in log space, -inf above the diagonal, one exp."""
    x = uv._check_unit(x)
    m = np.asarray(degrees)[:, None]
    k = np.arange(int(m.max()) + 1)
    if x == 0.0 or x == 1.0:
        return (k == (m if x == 1.0 else 0 * m)).astype(float)
    lf = uv.log_factorials(k[-1])
    d = m - k
    above = d < 0
    d[above] = 0
    logs = lf[m] - lf[k]
    logs -= lf[d]
    logs += k * math.log(x)
    logs += d * math.log1p(-x)
    logs[above] = -np.inf
    return np.exp(logs, out=logs)


def degree_sets(n):
    """The row degrees of a node table at degree n, by the form that builds it."""
    k = np.arange(n + 1)
    return {"constant": np.full(n + 1, n), "n-minus-k": np.maximum(n - k, 1),
            "k": np.maximum(k, 1), "quadrant": n - k}


_rng = random.Random(28)
T_VALUES = [0.0, 1.0, 1e-300, 5e-324, 1.0 - 1e-16] + [_rng.random() for _ in range(2)]


def bands(n):
    """Whole, a middle band and the last row; n = 1000 takes two of them."""
    out = [slice(0, n + 1), slice(n // 3, 2 * n // 3 + 1), slice(n, n + 1)]
    return out[:2] if n >= 1000 else out


@pytest.mark.parametrize("n, form", [(n, form) for n in (0, 1, 2, 5, 40, 120, 200, 320, 1000)
                                     for form in ("constant", "n-minus-k", "k", "quadrant")
                                     if n or form == "quadrant"])  # schedules start at n = 1
def test_cached_rows_bit_equal_to_the_old_formula(n, form):
    counts = degree_sets(n)[form]
    logs = uv._log_triangle(counts)
    assert [a.dtype for a in logs] == [np.float64, np.float64, np.bool_]
    for t in T_VALUES:
        for band in bands(n):
            degrees = counts[band]
            w = int(degrees.max()) + 1
            expected = old_row_triangle(degrees, t).tobytes()
            assert uv._row_triangle(degrees, t, [a[band, :w] for a in logs]).tobytes() == expected
            if band.start or n < 1000:  # built for the band alone, as past the memo bound
                assert uv._row_triangle(degrees, t).tobytes() == expected
        for m in {int(counts[0]), int(counts[-1])}:  # one degree: _log_binomials, one row
            assert uv._row_triangle([m], t).tobytes() == old_row_triangle([m], t).tobytes()
            assert uv.basis_row(m, t).tobytes() == old_row_triangle([m], t)[0].tobytes()


def test_log_triangle_of_repeated_and_unsorted_degrees():
    degrees = [3, 0, 7, 7, 1, 3]
    L, d, below = uv._log_triangle(degrees)
    m, k = np.array(degrees)[:, None], np.arange(8)
    lf = uv.log_factorials(7)
    assert np.array_equal(below, k <= m)
    assert np.array_equal(d, np.maximum(m - k, 0).astype(float))
    assert L.tobytes() == ((lf[m] - lf[k]) - lf[np.maximum(m - k, 0)]).tobytes()
    assert uv._log_triangle_nbytes(degrees) == sum(a.nbytes for a in (L, d, below))
    for t in T_VALUES:
        assert uv._row_triangle(degrees, t).tobytes() == old_row_triangle(degrees, t).tobytes()


def _root(x):
    return math.sqrt(max(1.0 - x * x, 0.0))


DISK = CurvilinearDomain(-1.0, 1.0, lambda x: -_root(x), _root)


def scalar_ops(f, n):
    """One operator per degree set: constant, n-minus-k, k and quadrant."""
    return [lambda x, y: disk.ball_stancu(f, n, NodeSchedule.constant(n), x, y),
            lambda x, y: biv.stancu(f, DISK, n, NodeSchedule.n_minus_k(), x, y),
            lambda x, y: disk.ball_stancu(f, n, NodeSchedule.k_index(), x, y),
            lambda x, y: disk.piecewise_stancu_disk(f, n, x, y)]


POINTS = [(0.31, -0.42), (-0.8, 0.1), (0.05, 0.9), (0.0, 0.0), (0.6, 0.6), (-0.999, 0.01)]


def bits(value):
    return np.float64(value).tobytes()


def run_quietly(jobs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the n_k = 0 substitution of n-minus-k and k
        return [bits(op(x, y)) for op, x, y in jobs]


def triangle_keys():
    return list(biv._log_triangles)


def empty_memo(monkeypatch, bound):
    monkeypatch.setattr(biv, "_node_tables", OrderedDict())
    monkeypatch.setattr(biv, "_node_table_bytes", 0)
    monkeypatch.setattr(biv, "_log_triangles", OrderedDict())
    monkeypatch.setattr(biv, "_log_triangle_bytes", 0)
    monkeypatch.setattr(biv, "_NODE_TABLE_BYTES", bound)


def check_memo_bytes(bound):
    assert biv._node_table_bytes == sum(map(biv._nbytes, biv._node_tables.values()))
    assert biv._log_triangle_bytes == sum(map(biv._nbytes, biv._log_triangles.values()))
    assert biv._node_table_bytes + biv._log_triangle_bytes <= bound


def test_a_hit_builds_no_log_factorials(monkeypatch):
    n, f = 40, ex.builtin(3)
    jobs = [(op, x, y) for op in scalar_ops(f, n) for x, y in POINTS]
    run_quietly(jobs)
    calls = []

    def counted(m):
        calls.append(m)
        return log_factorials(m)

    log_factorials = uv.log_factorials
    monkeypatch.setattr(uv, "log_factorials", counted)
    run_quietly(jobs)
    assert calls == []


def test_one_triangle_per_degree_set_read_only_in_the_memo():
    n, f, g = 40, ex.builtin(1), ex.builtin(2)
    run_quietly([(op, x, y) for h in (f, g) for op in scalar_ops(h, n) for x, y in POINTS])
    sets = degree_sets(n)
    # constant rows take one basis row; n-minus-k and k share {1..n} but not the order
    assert sorted(triangle_keys()) == sorted(
        sets[form].tobytes() for form in ("n-minus-k", "k", "quadrant"))
    for key in triangle_keys():
        stored = biv._log_triangles[key]
        built = uv._log_triangle(np.frombuffer(key, dtype=np.int64))
        assert [a.tobytes() for a in stored] == [a.tobytes() for a in built]
        assert not any(a.flags.writeable for a in stored)
    check_memo_bytes(biv._NODE_TABLE_BYTES)


@pytest.mark.parametrize("n", [5, 40])
def test_memo_bytes_stay_under_the_bound_and_an_oversized_triangle_is_not_stored(monkeypatch, n):
    f = ex.builtin(4)
    jobs = [(op, x, y) for x, y in POINTS for op in scalar_ops(f, n)]
    expected = run_quietly(jobs)
    triangle = uv._log_triangle_nbytes(degree_sets(n)["quadrant"])
    table = (n + 1) ** 2 * 8 + (n + 1) * 8  # F and its row degrees
    for bound in (triangle - 1, table + triangle, 2 * triangle + table, 3 * table):
        empty_memo(monkeypatch, bound)
        for job, value in zip(jobs, expected):
            assert run_quietly([job]) == [value]
            check_memo_bytes(bound)
            for key in triangle_keys():
                assert uv._log_triangle_nbytes(np.frombuffer(key, dtype=np.int64)) <= bound
        if bound < triangle:
            assert not triangle_keys()


def counting(f):
    calls = []

    def g(x, y):
        calls.append((x, y))
        return f(x, y)
    return g, calls


@pytest.mark.parametrize("form", [1, 2, 3])  # n-minus-k, k and quadrant
def test_a_triangle_never_evicts_a_table_so_a_repeated_call_makes_no_f_call(monkeypatch, form):
    """A bound that holds the table, or the triangle, but not both: the
    table stays, the triangle is built per call for the band, and a
    repeated call at an interior point makes no f call. Two tables that fit
    together both stay too, however the calls alternate."""
    n, (x, y) = 40, POINTS[0]
    table = (n + 1) ** 2 * 8 + (n + 1) * 8
    triangle = uv._log_triangle_nbytes(degree_sets(n)["quadrant"])
    for bound, hs in ((table + triangle - 1, [ex.builtin(1)]),
                      (2 * table + triangle - 1, [ex.builtin(1), ex.builtin(2)])):
        empty_memo(monkeypatch, bound)
        recorded = [counting(h) for h in hs]
        ops = [scalar_ops(g, n)[form] for g, _ in recorded]
        first = run_quietly([(op, x, y) for op in ops])
        assert all(calls for _, calls in recorded)
        before = [len(calls) for _, calls in recorded]
        for _ in range(3):
            assert run_quietly([(op, x, y) for op in ops]) == first
        assert [len(calls) for _, calls in recorded] == before
        assert len(biv._node_tables) == len(hs) and not triangle_keys()
        check_memo_bytes(bound)
        fresh = run_quietly([(scalar_ops(h, n)[form], x, y) for h in hs])
        assert fresh == first


def test_threads_1_and_2_give_the_same_bits(monkeypatch):
    n, f = 40, ex.builtin(2)
    jobs = [(op, x, y) for _ in range(2) for x, y in POINTS for op in scalar_ops(f, n)]
    serial = run_quietly(jobs)
    # a bound of two triangles and one table, so threads evict what others read
    bound = 2 * uv._log_triangle_nbytes(degree_sets(n)["quadrant"]) + (n + 1) ** 2 * 8
    empty_memo(monkeypatch, bound)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(op, x, y) for op, x, y in jobs]
                threaded = [bits(fut.result(timeout=60)) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    check_memo_bytes(bound)
