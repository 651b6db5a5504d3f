"""The scalar evaluator's inner rows: univariate._row_triangle, whose rows
of several degrees come from the one log-binomial table every caller
shares (univariate._log_binomial_rows), against the formula it replaced
(kept here only as the oracle); and that table: row m is _log_binomials(m),
a hit builds no log-factorials, a degree past the kept table leaves it as
it is, and threads that grow it at once read the serial bits.
"""

import math
import random
import sys
import warnings
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
    """Whole, a middle band and the last row; n >= 1000 takes the first two."""
    out = [slice(0, n + 1), slice(n // 3, 2 * n // 3 + 1), slice(n, n + 1)]
    return out[:2] if n >= 1000 else out


KEPT = math.isqrt(uv._NODE_TABLE_BYTES // 8)  # rows of the largest kept table
EMPTY = (np.empty((0, 0)), np.empty((0, 0), np.int8))  # the shared table before any caller grew it


@pytest.fixture
def no_kept_table(monkeypatch):
    monkeypatch.setattr(uv, "_log_binomial_kept", EMPTY)


@pytest.mark.parametrize("n, form", [(n, form) for n in (0, 1, 2, 5, 40, 120, 200, 320, 1000)
                                     for form in ("constant", "n-minus-k", "k", "quadrant")
                                     if n or form == "quadrant"]  # schedules start at n = 1
                         + [(KEPT + 76, "n-minus-k")])  # past the kept table
def test_rows_bit_equal_to_the_old_formula(n, form):
    counts = degree_sets(n)[form]
    for t in T_VALUES:
        for band in bands(n):
            degrees = counts[band]
            assert uv._row_triangle(degrees, t).tobytes() == old_row_triangle(degrees, t).tobytes()
        for m in {int(counts[0]), int(counts[-1])}:  # one degree: _log_binomials, one row
            assert uv._row_triangle([m], t).tobytes() == old_row_triangle([m], t).tobytes()
            assert uv.basis_row(m, t).tobytes() == old_row_triangle([m], t)[0].tobytes()


def test_rows_of_repeated_and_unsorted_degrees():
    degrees = [3, 0, 7, 7, 1, 3]
    for t in T_VALUES:
        assert uv._row_triangle(degrees, t).tobytes() == old_row_triangle(degrees, t).tobytes()


@pytest.mark.parametrize("top", [1000, KEPT + 76])  # kept, and built for the call alone
def test_row_m_of_the_table_is_log_binomials(no_kept_table, top):
    m, k = np.arange(top + 1), np.arange(top + 1)
    L, d = uv._log_binomial_rows(m)
    assert L.shape == d.shape == (top + 1, top + 1) and d.dtype == np.int16
    assert L.flags.writeable and d.flags.writeable  # new arrays, whichever the source
    for i in (range(top + 1) if top == 1000 else (0, 1, 500, KEPT, top)):
        assert L[i, :i + 1].tobytes() == uv._log_binomials(i).tobytes(), i
        assert np.isneginf(L[i, i + 1:]).all()
        assert np.array_equal(d[i], i - k)


def test_the_table_grows_by_swapping_and_stops_at_the_memo_bound(no_kept_table):
    uv._log_binomial_rows(np.array([40, 3]))
    small = uv._log_binomial_kept
    assert small[0].shape == (41, 41) and small[1].dtype == np.int8
    assert not (small[0].flags.writeable or small[1].flags.writeable)
    uv._log_binomial_rows(np.array([30, 2]))
    assert uv._log_binomial_kept is small
    uv._log_binomial_rows(np.array([41, 0]))  # doubles, as log_factorials does
    assert uv._log_binomial_kept[0].shape == (82, 82)
    assert small[0].shape == (41, 41)  # a reader of the old table keeps a whole one
    uv._log_binomial_rows(np.array([KEPT - 1, 0]))
    kept = uv._log_binomial_kept
    assert kept[0].nbytes == uv._NODE_TABLE_BYTES and kept[1].dtype == np.int16
    L, d = uv._log_binomial_rows(np.array([KEPT, 7, KEPT - 1]))
    assert uv._log_binomial_kept is kept
    assert L[1:, :KEPT].tobytes() == kept[0][[7, KEPT - 1]].tobytes()
    assert d[1:, :KEPT].tobytes() == kept[1][[7, KEPT - 1]].tobytes()


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


def test_a_hit_after_the_table_grew_to_n_1000_has_the_same_bits(no_kept_table):
    f = ex.builtin(1)
    jobs = [(op, x, y) for op in scalar_ops(f, 40) for x, y in POINTS]
    before = run_quietly(jobs)
    assert uv._log_binomial_kept[0].shape == (41, 41)
    run_quietly([(op, *POINTS[0]) for op in scalar_ops(f, 1000)[1:]])
    assert len(uv._log_binomial_kept[0]) > 600
    assert run_quietly(jobs) == before


def test_threads_that_grow_the_table_at_once_give_the_serial_bits(monkeypatch):
    f = ex.builtin(2)
    jobs = [(op, x, y) for n in (40, 90, 200, 5, 600) for x, y in POINTS[:3]
            for op in scalar_ops(f, n)]
    serial = run_quietly(jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(uv, "_log_binomial_kept", EMPTY)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with ThreadPoolExecutor(2) as pool:
                    futures = [pool.submit(op, x, y) for op, x, y in jobs]
                    threaded = [bits(fut.result(timeout=60)) for fut in futures]
            assert threaded == serial
    finally:
        sys.setswitchinterval(interval)
    L, d = uv._log_binomial_kept
    for m in range(len(L)):
        assert L[m, :m + 1].tobytes() == uv._log_binomials(m).tobytes()
